use std::time::Duration;

use crate::profile::Profile;
use crate::settings::Algorithm;

/// Outcome of a solver run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Both residuals dropped below their tolerances.
    Solved,
    /// The iteration limit was reached before convergence.
    MaxIterations,
    /// A certificate of primal infeasibility was found.
    PrimalInfeasible,
    /// A certificate of dual infeasibility (unboundedness) was found.
    DualInfeasible,
    /// The run passed the deadline set through [`Solver::set_deadline`]
    /// before convergence: at the poll before the first iteration, or at
    /// one after every 25th.
    ///
    /// [`Solver::set_deadline`]: crate::Solver::set_deadline
    TimedOut,
    /// An external cancellation flag (see [`Solver::set_cancel_flag`]) was
    /// raised while the iteration was running.
    ///
    /// [`Solver::set_cancel_flag`]: crate::Solver::set_cancel_flag
    Cancelled,
}

impl Status {
    /// `true` only for [`Status::Solved`].
    pub fn is_solved(self) -> bool {
        matches!(self, Status::Solved)
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Status::Solved => "solved",
            Status::MaxIterations => "maximum iterations reached",
            Status::PrimalInfeasible => "primal infeasible",
            Status::DualInfeasible => "dual infeasible",
            Status::TimedOut => "timed out",
            Status::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// The result of a solve: iterates (unscaled), status, residuals, work
/// profile and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// Termination status.
    pub status: Status,
    /// Which solver algorithm produced this result.
    pub algorithm: Algorithm,
    /// Primal solution `x` (original, unscaled space). For infeasible
    /// statuses this holds the last iterate.
    pub x: Vec<f64>,
    /// Dual solution `y`.
    pub y: Vec<f64>,
    /// Constraint value `z ≈ A x`.
    pub z: Vec<f64>,
    /// Objective value at `x`.
    pub obj_val: f64,
    /// Final (unscaled) primal residual `‖Ax − z‖∞`.
    pub prim_res: f64,
    /// Final (unscaled) dual residual `‖Px + q + Aᵀy‖∞`.
    pub dual_res: f64,
    /// ADMM iterations executed.
    pub iterations: usize,
    /// FLOP/operation profile of the run.
    pub profile: Profile,
    /// Wall-clock time of `solve()` (native execution on this host — the
    /// platform models in `mib-platforms` translate the profile to the
    /// paper's reference hardware instead of using this directly).
    pub solve_time: Duration,
    /// The certificate vector for infeasible statuses (`δy` for primal,
    /// `δx` for dual), empty otherwise.
    pub certificate: Vec<f64>,
}

impl Default for SolveResult {
    /// An empty placeholder result (status [`Status::MaxIterations`],
    /// infinite residuals, no iterates) suitable as the target of a first
    /// [`solve_into`](crate::Solver::solve_into) call.
    fn default() -> Self {
        SolveResult {
            status: Status::MaxIterations,
            algorithm: Algorithm::default(),
            x: Vec::new(),
            y: Vec::new(),
            z: Vec::new(),
            obj_val: 0.0,
            prim_res: f64::INFINITY,
            dual_res: f64::INFINITY,
            iterations: 0,
            profile: Profile::default(),
            solve_time: Duration::ZERO,
            certificate: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display_and_predicate() {
        assert!(Status::Solved.is_solved());
        assert!(!Status::MaxIterations.is_solved());
        assert_eq!(Status::Solved.to_string(), "solved");
        assert_eq!(Status::PrimalInfeasible.to_string(), "primal infeasible");
        assert_eq!(Status::TimedOut.to_string(), "timed out");
        assert_eq!(Status::Cancelled.to_string(), "cancelled");
        assert!(!Status::TimedOut.is_solved());
        assert!(!Status::Cancelled.is_solved());
    }
}
