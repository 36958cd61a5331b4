//! The public [`Solver`] facade over the pluggable [`QpBackend`] family.
//!
//! [`Solver::new`] selects the backend named by
//! [`Settings::algorithm`](crate::Settings) — the OSQP-style
//! [`AdmmSolver`](crate::AdmmSolver) or the restarted primal-dual
//! [`PdqpSolver`](crate::PdqpSolver) — and forwards every call through the
//! trait, so callers (batch, serve, benches) are algorithm-agnostic. The
//! facade adds the validated [`Solver::warm_start_from`] entry point on
//! top of the trait's panicking `warm_start`.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use crate::admm::AdmmSolver;
use crate::backend::{Algorithm, QpBackend};
use crate::pdqp::PdqpSolver;
use crate::workspace::SolveWorkspace;
use crate::{Problem, QpError, Result, Settings, SolveResult};

/// The QP solver: a thin facade over the algorithm backend selected by
/// [`Settings::algorithm`](crate::Settings).
///
/// A `Solver` owns a scaled copy of the problem, the backend's iterates
/// and a [`SolveWorkspace`] holding every scratch vector the iteration
/// needs; after [`Solver::new`] returns, a call to [`Solver::solve_into`]
/// performs **no heap allocation**. Repeated [`Solver::solve`] calls
/// warm-start from the previous solution, and the parametric update
/// methods ([`Solver::update_q`], [`Solver::update_bounds`]) support the
/// "millions of QPs with the same sparsity pattern" workflow the paper's
/// portfolio example describes without re-running setup.
#[derive(Debug)]
pub struct Solver {
    inner: Box<dyn QpBackend>,
}

impl Clone for Solver {
    fn clone(&self) -> Self {
        Solver {
            inner: self.inner.clone_box(),
        }
    }
}

impl Solver {
    /// Sets up the backend named by `settings.algorithm`: validates
    /// settings, equilibrates the problem and runs the backend's one-time
    /// setup (KKT factorization for ADMM, operator-norm estimation for
    /// PDQP).
    ///
    /// # Errors
    ///
    /// Returns setting/problem validation errors or
    /// [`QpError::KktFactorization`] if an initial factorization fails.
    pub fn new(problem: Problem, settings: Settings) -> Result<Self> {
        let inner: Box<dyn QpBackend> = match settings.algorithm {
            Algorithm::Admm => Box::new(AdmmSolver::new(problem, settings)?),
            Algorithm::Pdqp => Box::new(PdqpSolver::new(problem, settings)?),
        };
        Ok(Solver { inner })
    }

    /// Which algorithm this solver runs.
    pub fn algorithm(&self) -> Algorithm {
        self.inner.algorithm()
    }

    /// The solver settings.
    pub fn settings(&self) -> &Settings {
        self.inner.settings()
    }

    /// The original (unscaled) problem.
    pub fn problem(&self) -> &Problem {
        self.inner.problem()
    }

    /// The current base step size: `ρ` for the ADMM backend, the primal
    /// step `τ` for PDQP.
    pub fn rho(&self) -> f64 {
        self.inner.step_size()
    }

    /// The preallocated workspace (for inspection in tests and benches).
    pub fn workspace(&self) -> &SolveWorkspace {
        self.inner.workspace()
    }

    /// Warm-starts the iterates from an (unscaled) primal/dual guess.
    ///
    /// # Panics
    ///
    /// Panics if the lengths do not match the problem dimensions. For a
    /// non-panicking variant that validates a previous result, see
    /// [`Solver::warm_start_from`].
    pub fn warm_start(&mut self, x: &[f64], y: &[f64]) {
        self.inner.warm_start(x, y);
    }

    /// Warm-starts the iterates from a previous [`SolveResult`] of a
    /// same-dimension problem — the "serve the next request from where the
    /// last one converged" workflow of the `mib-serve` runtime.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`] when the result's dimensions do
    /// not match this solver's problem (e.g. a pooled result from a
    /// different-shaped tenant); the iterates are left untouched.
    pub fn warm_start_from(&mut self, previous: &SolveResult) -> Result<()> {
        let n = self.inner.problem().num_vars();
        let m = self.inner.problem().num_constraints();
        if previous.x.len() != n || previous.y.len() != m {
            return Err(QpError::InvalidProblem(format!(
                "warm start result has dimensions ({}, {}) but problem has ({n}, {m})",
                previous.x.len(),
                previous.y.len()
            )));
        }
        self.inner.warm_start(&previous.x, &previous.y);
        Ok(())
    }

    /// Installs (or clears) an external cancellation flag. The iteration
    /// polls the flag every [`Settings::check_interval`](crate::Settings)
    /// iterations and exits with
    /// [`Status::Cancelled`](crate::Status::Cancelled) once it reads
    /// `true`. The poll never touches the iterates, so installing a flag
    /// cannot change the answer of a run that completes.
    pub fn set_cancel_flag(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.inner.set_cancel_flag(cancel);
    }

    /// Installs (or clears) an absolute wall-clock deadline. Combined with
    /// [`Settings::time_limit`](crate::Settings) (whichever expires first
    /// wins); checked every `check_interval` iterations, yielding
    /// [`Status::TimedOut`](crate::Status::TimedOut).
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.inner.set_deadline(deadline);
    }

    /// Resets the solver to its post-setup state: zero iterates, initial
    /// step sizes, no warm-start memory. After `reset`, a solve reproduces
    /// the very first solve of a freshly constructed solver bitwise.
    ///
    /// The reset state is a pure function of the current problem data — a
    /// pooled solver that served other parameters first reaches bitwise
    /// the same state as a fresh clone of its template with the same
    /// updates applied. This invariant holds for every backend.
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Replaces the linear cost `q` (same dimensions), preserving scaling.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`] on length mismatch or non-finite
    /// entries.
    pub fn update_q(&mut self, q: &[f64]) -> Result<()> {
        let _span = mib_trace::span_if(
            mib_trace::enabled(),
            "update_q",
            mib_trace::Category::Solver,
        );
        self.inner.update_q(q)
    }

    /// Replaces the bounds `l`, `u` (same dimensions), preserving scaling.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`] if any `l[i] > u[i]` or lengths
    /// mismatch.
    pub fn update_bounds(&mut self, l: &[f64], u: &[f64]) -> Result<()> {
        let _span = mib_trace::span_if(
            mib_trace::enabled(),
            "update_bounds",
            mib_trace::Category::Solver,
        );
        self.inner.update_bounds(l, u)
    }

    /// Runs the iteration until convergence, infeasibility detection or
    /// the iteration limit. Repeated calls warm-start from the previous
    /// iterates.
    pub fn solve(&mut self) -> SolveResult {
        let mut result = SolveResult::default();
        self.solve_into(&mut result);
        result
    }

    /// Runs the iteration, writing the outcome into an existing
    /// [`SolveResult`]. When `result` comes from a previous solve of the
    /// same problem dimensions, this performs **zero heap allocations** on
    /// feasible problems — the property the repository's counting-allocator
    /// test pins down. (Infeasible exits clone the certificate vector.)
    pub fn solve_into(&mut self, result: &mut SolveResult) {
        self.inner.solve_into(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KktBackend, Status};
    use mib_sparse::CscMatrix;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn box_qp(backend: KktBackend) -> SolveResult {
        // minimize x0^2 + x1^2 - x0 - x1 s.t. 0 <= x <= 0.3
        // Unconstrained optimum (0.5, 0.5); clipped to (0.3, 0.3).
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        let mut settings = Settings::with_backend(backend);
        settings.eps_abs = 1e-6;
        settings.eps_rel = 1e-6;
        Solver::new(problem, settings).unwrap().solve()
    }

    #[test]
    fn solves_box_qp_direct() {
        let r = box_qp(KktBackend::Direct);
        assert_eq!(r.status, Status::Solved);
        assert_eq!(r.algorithm, Algorithm::Admm);
        assert!((r.x[0] - 0.3).abs() < 1e-4, "x0 = {}", r.x[0]);
        assert!((r.x[1] - 0.3).abs() < 1e-4);
        // Active upper bounds => positive duals y = -(Px+q) = 1 - 2*0.3 = 0.4.
        assert!((r.y[0] - 0.4).abs() < 1e-3, "y0 = {}", r.y[0]);
    }

    #[test]
    fn solves_box_qp_indirect() {
        let r = box_qp(KktBackend::Indirect);
        assert_eq!(r.status, Status::Solved);
        assert!((r.x[0] - 0.3).abs() < 1e-4);
        assert!(r.profile.pcg_iters > 0, "indirect run must use PCG");
    }

    #[test]
    fn solves_box_qp_pdqp() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        let settings = Settings {
            algorithm: Algorithm::Pdqp,
            max_iter: 200_000,
            ..Settings::default()
        };
        let mut solver = Solver::new(problem, settings).unwrap();
        assert_eq!(solver.algorithm(), Algorithm::Pdqp);
        let r = solver.solve();
        assert_eq!(r.status, Status::Solved);
        assert_eq!(r.algorithm, Algorithm::Pdqp);
        assert!((r.x[0] - 0.3).abs() < 1e-2, "x0 = {}", r.x[0]);
        assert!((r.x[1] - 0.3).abs() < 1e-2);
        assert!(r.profile.pcg_iters == 0, "PDQP never solves a KKT system");
    }

    #[test]
    fn pdqp_and_admm_agree_on_the_solution() {
        let p = CscMatrix::from_dense(3, 3, &[3.0, 1.0, 0.0, 0.0, 2.0, 0.5, 0.0, 0.0, 1.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(2, 3, &[1.0, 1.0, 1.0, 1.0, -1.0, 0.0]);
        let problem =
            Problem::new(p, vec![-1.0, 0.5, 1.0], a, vec![1.0, -0.3], vec![1.0, 0.3]).unwrap();
        let tight = |algorithm| Settings {
            algorithm,
            eps_abs: 1e-6,
            eps_rel: 1e-6,
            max_iter: 500_000,
            ..Settings::default()
        };
        let ra = Solver::new(problem.clone(), tight(Algorithm::Admm))
            .unwrap()
            .solve();
        let rp = Solver::new(problem, tight(Algorithm::Pdqp))
            .unwrap()
            .solve();
        assert_eq!(ra.status, Status::Solved);
        assert_eq!(rp.status, Status::Solved, "pdqp prim {}", rp.prim_res);
        for (u, v) in ra.x.iter().zip(&rp.x) {
            assert!((u - v).abs() < 1e-3, "{u} vs {v}");
        }
        assert!((ra.obj_val - rp.obj_val).abs() < 1e-4);
    }

    #[test]
    fn equality_constrained_qp() {
        // minimize x0^2 + x1^2 s.t. x0 + x1 = 1 -> x = (0.5, 0.5).
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::from_dense(1, 2, &[1.0, 1.0]);
        let problem = Problem::new(p, vec![0.0; 2], a, vec![1.0], vec![1.0]).unwrap();
        let settings = Settings {
            eps_abs: 1e-7,
            eps_rel: 1e-7,
            ..Settings::default()
        };
        let r = Solver::new(problem, settings).unwrap().solve();
        assert_eq!(r.status, Status::Solved);
        assert!((r.x[0] - 0.5).abs() < 1e-5);
        assert!((r.x[1] - 0.5).abs() < 1e-5);
        assert!((r.obj_val - 0.5).abs() < 1e-4);
    }

    #[test]
    fn pdqp_solves_equality_constrained_qp() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::from_dense(1, 2, &[1.0, 1.0]);
        let problem = Problem::new(p, vec![0.0; 2], a, vec![1.0], vec![1.0]).unwrap();
        let settings = Settings {
            algorithm: Algorithm::Pdqp,
            max_iter: 500_000,
            ..Settings::default()
        };
        let r = Solver::new(problem, settings).unwrap().solve();
        assert_eq!(r.status, Status::Solved, "prim {}", r.prim_res);
        assert!((r.x[0] - 0.5).abs() < 1e-2);
        assert!((r.x[1] - 0.5).abs() < 1e-2);
    }

    #[test]
    fn detects_primal_infeasibility() {
        // x >= 1 and x <= 0 simultaneously.
        let p = CscMatrix::identity(1);
        let a = CscMatrix::from_dense(2, 1, &[1.0, 1.0]);
        let problem = Problem::new(p, vec![0.0], a, vec![1.0, -2e30], vec![2e30, 0.0]).unwrap();
        let r = Solver::new(problem, Settings::default()).unwrap().solve();
        assert_eq!(r.status, Status::PrimalInfeasible);
        assert!(!r.certificate.is_empty());
    }

    #[test]
    fn detects_dual_infeasibility() {
        // minimize x (linear, unbounded below on half line): P = 0, q = 1,
        // constraint x <= 0 only.
        let p = CscMatrix::zeros(1, 1);
        let a = CscMatrix::identity(1);
        let problem = Problem::new(p, vec![1.0], a, vec![-2e30], vec![0.0]).unwrap();
        let r = Solver::new(problem, Settings::default()).unwrap().solve();
        assert_eq!(r.status, Status::DualInfeasible);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        let problem = Problem::new(
            p,
            vec![1.0, 1.0],
            a,
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.7, 0.7],
        )
        .unwrap();
        let mut solver = Solver::new(problem, Settings::default()).unwrap();
        let r1 = solver.solve();
        assert_eq!(r1.status, Status::Solved);
        let r2 = solver.solve(); // warm from the solution
        assert!(r2.iterations <= r1.iterations);
    }

    #[test]
    fn update_q_resolves_parametrically() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![-10.0; 2], vec![10.0; 2]).unwrap();
        let settings = Settings {
            eps_abs: 1e-7,
            eps_rel: 1e-7,
            ..Settings::default()
        };
        let mut solver = Solver::new(problem, settings).unwrap();
        let r1 = solver.solve();
        assert!((r1.x[0] - 0.5).abs() < 1e-4);
        solver.update_q(&[-2.0, -2.0]).unwrap();
        let r2 = solver.solve();
        assert!(
            (r2.x[0] - 1.0).abs() < 1e-4,
            "x after q update: {}",
            r2.x[0]
        );
    }

    #[test]
    fn update_bounds_resolves() {
        let p = CscMatrix::from_dense(1, 1, &[2.0]);
        let a = CscMatrix::identity(1);
        let problem = Problem::new(p, vec![-2.0], a, vec![0.0], vec![0.4]).unwrap();
        let settings = Settings {
            eps_abs: 1e-7,
            eps_rel: 1e-7,
            ..Settings::default()
        };
        let mut solver = Solver::new(problem, settings).unwrap();
        let r1 = solver.solve();
        assert!((r1.x[0] - 0.4).abs() < 1e-4);
        solver.update_bounds(&[0.0], &[10.0]).unwrap();
        let r2 = solver.solve();
        assert!(
            (r2.x[0] - 1.0).abs() < 1e-4,
            "x after bound update: {}",
            r2.x[0]
        );
    }

    #[test]
    fn direct_and_indirect_agree() {
        let p = CscMatrix::from_dense(3, 3, &[3.0, 1.0, 0.0, 0.0, 2.0, 0.5, 0.0, 0.0, 1.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(2, 3, &[1.0, 1.0, 1.0, 1.0, -1.0, 0.0]);
        let problem =
            Problem::new(p, vec![-1.0, 0.5, 1.0], a, vec![1.0, -0.3], vec![1.0, 0.3]).unwrap();
        let tight = |backend| {
            let mut s = Settings::with_backend(backend);
            s.eps_abs = 1e-7;
            s.eps_rel = 1e-7;
            s
        };
        let rd = Solver::new(problem.clone(), tight(KktBackend::Direct))
            .unwrap()
            .solve();
        let ri = Solver::new(problem, tight(KktBackend::Indirect))
            .unwrap()
            .solve();
        assert_eq!(rd.status, Status::Solved);
        assert_eq!(ri.status, Status::Solved);
        for (u, v) in rd.x.iter().zip(&ri.x) {
            assert!((u - v).abs() < 1e-4, "{u} vs {v}");
        }
        assert!((rd.obj_val - ri.obj_val).abs() < 1e-5);
    }

    #[test]
    fn profile_accumulates_work() {
        let r = box_qp(KktBackend::Direct);
        assert!(r.profile.ops.total() > 0.0);
        assert!(r.profile.factor_count >= 1);
        assert!(r.profile.ops.col_elim > 0.0);
        assert!(r.profile.ops.mac > 0.0);
        assert_eq!(r.iterations, r.profile.admm_iters.max(r.iterations));
    }

    #[test]
    fn scaling_disabled_still_solves() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![1.0; 2]).unwrap();
        let settings = Settings {
            scaling_iters: 0,
            ..Settings::default()
        };
        let r = Solver::new(problem, settings).unwrap().solve();
        assert_eq!(r.status, Status::Solved);
    }

    #[test]
    fn solve_into_reuses_result_buffers() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        let mut solver = Solver::new(problem, Settings::default()).unwrap();
        let mut result = solver.solve();
        assert_eq!(result.status, Status::Solved);
        let x1 = result.x.clone();
        solver.reset();
        solver.solve_into(&mut result);
        assert_eq!(result.status, Status::Solved);
        assert_eq!(
            result.x, x1,
            "reset + solve_into must reproduce the first solve"
        );
    }

    #[test]
    fn reset_restores_cold_start_bitwise() {
        let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        let problem = Problem::new(
            p,
            vec![1.0, 1.0],
            a,
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.7, 0.7],
        )
        .unwrap();
        let mut solver = Solver::new(problem.clone(), Settings::default()).unwrap();
        let r1 = solver.solve();
        solver.solve(); // drift the iterates and possibly rho
        solver.reset();
        let r3 = solver.solve();
        assert_eq!(r1.x, r3.x, "reset must restore cold-start behavior exactly");
        assert_eq!(r1.iterations, r3.iterations);
    }

    #[test]
    fn cancellation_flag_stops_the_iteration() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        let settings = Settings {
            check_interval: 1,
            ..Settings::default()
        };
        let mut solver = Solver::new(problem, settings).unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        solver.set_cancel_flag(Some(flag.clone()));
        let r = solver.solve();
        assert_eq!(r.status, Status::Cancelled);
        assert_eq!(r.iterations, 0, "pre-cancelled run must not iterate");
        // Clearing the flag resumes normal behavior.
        flag.store(false, Ordering::Relaxed);
        solver.reset();
        let r = solver.solve();
        assert_eq!(r.status, Status::Solved);
    }

    #[test]
    fn pdqp_honors_cancellation_and_deadlines() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        let settings = Settings {
            algorithm: Algorithm::Pdqp,
            check_interval: 1,
            max_iter: 200_000,
            ..Settings::default()
        };
        let mut solver = Solver::new(problem, settings).unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        solver.set_cancel_flag(Some(flag.clone()));
        let r = solver.solve();
        assert_eq!(r.status, Status::Cancelled);
        assert_eq!(r.iterations, 0, "pre-cancelled run must not iterate");
        flag.store(false, Ordering::Relaxed);
        solver.set_cancel_flag(None);
        solver.set_deadline(Some(Instant::now()));
        solver.reset();
        assert_eq!(solver.solve().status, Status::TimedOut);
        solver.set_deadline(None);
        solver.reset();
        assert_eq!(solver.solve().status, Status::Solved);
    }

    #[test]
    fn expired_deadline_times_out() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        let mut solver = Solver::new(problem, Settings::default()).unwrap();
        // A deadline of "now" is already unmeetable by the time the solve
        // performs its pre-loop check.
        solver.set_deadline(Some(Instant::now()));
        let r = solver.solve();
        assert_eq!(r.status, Status::TimedOut);
        solver.set_deadline(None);
        solver.reset();
        assert_eq!(solver.solve().status, Status::Solved);
    }

    #[test]
    fn time_limit_setting_times_out_long_runs() {
        // An infeasible-ish tight problem would still finish fast; instead
        // pin the limit to zero-ish via an already-expired external
        // deadline equivalent: a 1ns budget with per-iteration checks.
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        let settings = Settings {
            time_limit: Some(std::time::Duration::from_nanos(1)),
            check_interval: 1,
            eps_abs: 1e-12,
            eps_rel: 1e-12,
            ..Settings::default()
        };
        let r = Solver::new(problem, settings).unwrap().solve();
        assert_eq!(r.status, Status::TimedOut);
        assert!(r.iterations <= 1, "must stop at the first check boundary");
    }

    #[test]
    fn interruption_checks_do_not_perturb_solved_runs() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        let plain = Solver::new(problem.clone(), Settings::default())
            .unwrap()
            .solve();
        let settings = Settings {
            time_limit: Some(std::time::Duration::from_secs(5000)),
            check_interval: 1,
            ..Settings::default()
        };
        let mut guarded = Solver::new(problem, settings).unwrap();
        guarded.set_cancel_flag(Some(Arc::new(AtomicBool::new(false))));
        let r = guarded.solve();
        assert_eq!(r.status, Status::Solved);
        assert_eq!(r.x, plain.x, "polling must not change the trajectory");
        assert_eq!(r.iterations, plain.iterations);
    }

    #[test]
    fn warm_start_from_matches_manual_warm_start() {
        let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        let problem = Problem::new(
            p,
            vec![1.0, 1.0],
            a,
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.7, 0.7],
        )
        .unwrap();
        let mut s1 = Solver::new(problem.clone(), Settings::default()).unwrap();
        let first = s1.solve();
        assert_eq!(first.status, Status::Solved);

        let mut a1 = Solver::new(problem.clone(), Settings::default()).unwrap();
        a1.warm_start_from(&first).unwrap();
        let via_result = a1.solve();
        let mut a2 = Solver::new(problem, Settings::default()).unwrap();
        a2.warm_start(&first.x, &first.y);
        let via_slices = a2.solve();
        assert_eq!(via_result.x, via_slices.x);
        assert_eq!(via_result.iterations, via_slices.iterations);
        assert!(via_result.iterations <= first.iterations);
    }

    #[test]
    fn warm_start_from_rejects_wrong_dimensions() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        let other = Problem::new(
            CscMatrix::identity(3),
            vec![0.0; 3],
            CscMatrix::identity(3),
            vec![-1.0; 3],
            vec![1.0; 3],
        )
        .unwrap();
        let foreign = Solver::new(other, Settings::default()).unwrap().solve();

        for algorithm in Algorithm::all() {
            let mut solver =
                Solver::new(problem.clone(), Settings::with_algorithm(algorithm)).unwrap();
            let err = solver.warm_start_from(&foreign).unwrap_err();
            assert!(
                matches!(err, QpError::InvalidProblem(_)),
                "{algorithm}: {err}"
            );
            // The rejected warm start must leave the solver untouched.
            let cold = Solver::new(problem.clone(), Settings::with_algorithm(algorithm))
                .unwrap()
                .solve();
            let after = solver.solve();
            assert_eq!(after.x, cold.x, "{algorithm}: iterates were perturbed");
            assert_eq!(after.iterations, cold.iterations);
        }
    }

    #[test]
    fn reset_after_classification_change_matches_fresh_clone() {
        // Template: row 1 is an inequality. The update turns it into an
        // equality; a pooled solver that already drifted rho must reach
        // bitwise the same reset state as a fresh clone of the template.
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        let problem = Problem::new(
            p,
            vec![-1.0, 0.5],
            a,
            vec![-1.0, 0.0, 0.0],
            vec![1.0, 0.8, 0.8],
        )
        .unwrap();
        let template = Solver::new(problem, Settings::default()).unwrap();

        let tighten = |s: &mut Solver| {
            s.update_q(&[-2.0, 0.1]).unwrap();
            s.update_bounds(&[-1.0, 0.4, 0.0], &[1.0, 0.4, 0.8])
                .unwrap();
            s.reset();
        };
        let relax = |s: &mut Solver| {
            s.update_bounds(&[-1.0, 0.0, 0.0], &[1.0, 0.8, 0.8])
                .unwrap();
            s.reset();
        };

        // Pooled path: serve other parameters first — row 1 changes class
        // (and the KKT matrix is refactorized) at every reset — then
        // re-parameterize.
        let mut pooled = template.clone();
        pooled.solve();
        for _ in 0..4 {
            tighten(&mut pooled);
            pooled.solve();
            relax(&mut pooled);
            pooled.solve();
        }
        tighten(&mut pooled);
        let via_pool = pooled.solve();

        // Reference path: fresh clone, same updates.
        let mut fresh = template.clone();
        tighten(&mut fresh);
        let via_fresh = fresh.solve();

        assert_eq!(via_pool.x, via_fresh.x, "pooled reset must be bitwise");
        assert_eq!(via_pool.iterations, via_fresh.iterations);
        assert_eq!(via_pool.status, via_fresh.status);
        assert_eq!(
            via_pool.profile, via_fresh.profile,
            "a pooled solve reports its own work, not that of the resets before it"
        );
    }

    #[test]
    fn cloned_solver_solves_independently() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        // Both optima sit on the bound 0.3, so compare them only once the
        // solves have converged far below the 1e-9 margin.
        let settings = Settings {
            eps_abs: 1e-12,
            eps_rel: 1e-12,
            ..Settings::default()
        };
        let solver = Solver::new(problem, settings).unwrap();
        let mut c1 = solver.clone();
        let mut c2 = solver.clone();
        c2.update_q(&[-2.0, -2.0]).unwrap();
        let r1 = c1.solve();
        let r2 = c2.solve();
        assert_eq!(r1.status, Status::Solved);
        assert_eq!(r2.status, Status::Solved);
        assert!(r2.x[0] > r1.x[0] - 1e-9, "clones must not share state");
    }
}
