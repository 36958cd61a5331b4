//! The pluggable solver-algorithm boundary: [`Algorithm`] selection and
//! the [`QpBackend`] trait every iteration family implements.
//!
//! The public [`Solver`](crate::Solver) facade owns a `Box<dyn QpBackend>`
//! and forwards every call, so the layers above (the `mib-serve` shard
//! workers, the bench harnesses) treat algorithms uniformly: setup
//! from [`Problem`] + [`Settings`], allocation-free [`solve_into`] on a
//! shared [`SolveWorkspace`], warm starting, parametric updates,
//! cancellation/deadline hooks and per-iteration `Iteration` telemetry.
//!
//! Two backends exist today:
//!
//! * [`AdmmSolver`](crate::AdmmSolver) — the OSQP-style ADMM loop
//!   (Algorithm 1 of the paper), with direct LDLᵀ or indirect PCG KKT
//!   solves. The trait refactor left its arithmetic untouched: results are
//!   bitwise-identical to the pre-trait solver.
//! * [`PdqpSolver`](crate::PdqpSolver) — a restarted, averaged primal-dual
//!   hybrid gradient method ("PDQP", after Lu & Yang's first-order QP
//!   solver). Its hot path is three sparse mat-vecs per iteration on the
//!   existing `_into` kernels — no factorization at all.
//!
//! [`solve_into`]: QpBackend::solve_into
//! [`SolveWorkspace`]: crate::SolveWorkspace

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use crate::workspace::SolveWorkspace;
use crate::{Problem, Result, Settings, SolveResult};

/// Which iteration family solves the QP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// OSQP-style ADMM (splitting + KKT solves; Algorithm 1 of the paper).
    #[default]
    Admm,
    /// Restarted averaged primal-dual hybrid gradient ("PDQP" à la
    /// Lu & Yang): factorization-free, three mat-vecs per iteration.
    Pdqp,
}

/// Number of algorithm variants (size of per-algorithm metric arrays).
pub const ALGORITHM_COUNT: usize = 2;

impl Algorithm {
    /// Short lowercase name (`"admm"` / `"pdqp"`), used in reports,
    /// telemetry tags and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Admm => "admm",
            Algorithm::Pdqp => "pdqp",
        }
    }

    /// Dense index in `0..ALGORITHM_COUNT`, for per-algorithm counters.
    pub fn index(self) -> usize {
        match self {
            Algorithm::Admm => 0,
            Algorithm::Pdqp => 1,
        }
    }

    /// Every algorithm, in [`Algorithm::index`] order.
    pub fn all() -> [Algorithm; ALGORITHM_COUNT] {
        [Algorithm::Admm, Algorithm::Pdqp]
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One solver algorithm behind the [`Solver`](crate::Solver) facade.
///
/// # Contract
///
/// Implementations own a scaled copy of the problem, their iterates and a
/// [`SolveWorkspace`]; after construction, [`solve_into`] performs **no
/// heap allocation** (the counting-allocator test enforces this for every
/// backend). [`reset`] restores the post-setup state bitwise as a pure
/// function of the *current* problem data — the invariant pooled serving
/// and batch parity rely on. Backends emit
/// [`Iteration`](mib_trace::Event::Iteration) telemetry (tagged with
/// [`Algorithm::name`]) at every termination-check boundary when tracing
/// is enabled.
///
/// [`solve_into`]: QpBackend::solve_into
/// [`reset`]: QpBackend::reset
pub trait QpBackend: std::fmt::Debug + Send + Sync {
    /// Which algorithm this backend implements.
    fn algorithm(&self) -> Algorithm;

    /// The solver settings.
    fn settings(&self) -> &Settings;

    /// The original (unscaled) problem.
    fn problem(&self) -> &Problem;

    /// The preallocated workspace (for inspection in tests and benches).
    fn workspace(&self) -> &SolveWorkspace;

    /// The current base step size: `ρ` for ADMM, the primal step `τ` for
    /// PDQP. Reported in telemetry; comparable only within one algorithm.
    fn step_size(&self) -> f64;

    /// Warm-starts the iterates from an (unscaled) primal/dual guess.
    ///
    /// # Panics
    ///
    /// Panics if the lengths do not match the problem dimensions. (The
    /// [`Solver`](crate::Solver) facade offers the validating
    /// [`warm_start_from`](crate::Solver::warm_start_from) instead.)
    fn warm_start(&mut self, x: &[f64], y: &[f64]);

    /// Resets the backend to its post-setup state (see the trait docs).
    fn reset(&mut self);

    /// Replaces the linear cost `q` (same dimensions), preserving scaling.
    ///
    /// # Errors
    ///
    /// [`QpError::InvalidProblem`](crate::QpError) on length mismatch or
    /// non-finite entries.
    fn update_q(&mut self, q: &[f64]) -> Result<()>;

    /// Replaces the bounds `l`, `u` (same dimensions), preserving scaling.
    ///
    /// # Errors
    ///
    /// [`QpError::InvalidProblem`](crate::QpError) if any `l[i] > u[i]` or
    /// lengths mismatch.
    fn update_bounds(&mut self, l: &[f64], u: &[f64]) -> Result<()>;

    /// Installs (or clears) an external cancellation flag, polled every
    /// [`Settings::check_interval`] iterations.
    fn set_cancel_flag(&mut self, cancel: Option<Arc<AtomicBool>>);

    /// Installs (or clears) an absolute wall-clock deadline (combined
    /// with [`Settings::time_limit`]; whichever expires first wins).
    fn set_deadline(&mut self, deadline: Option<Instant>);

    /// Runs the iteration, writing the outcome into an existing
    /// [`SolveResult`]. Allocation-free when `result` comes from a
    /// previous solve of the same dimensions (infeasible exits clone the
    /// certificate vector).
    fn solve_into(&mut self, result: &mut SolveResult);

    /// Clones the backend behind the object boundary.
    fn clone_box(&self) -> Box<dyn QpBackend>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_indices_and_order() {
        assert_eq!(Algorithm::Admm.name(), "admm");
        assert_eq!(Algorithm::Pdqp.name(), "pdqp");
        assert_eq!(Algorithm::default(), Algorithm::Admm);
        for (i, algo) in Algorithm::all().into_iter().enumerate() {
            assert_eq!(algo.index(), i);
        }
        assert_eq!(Algorithm::all().len(), ALGORITHM_COUNT);
        assert_eq!(Algorithm::Pdqp.to_string(), "pdqp");
    }
}
