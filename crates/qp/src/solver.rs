//! The public [`Solver`]: one solve envelope around two algorithms.
//!
//! [`Solver`] owns everything the OSQP-style ADMM loop and the restarted
//! primal-dual ("PDQP") loop share: the validated settings, the original
//! and the Ruiz-scaled problem data, the workspace, the set-up profile,
//! the parametric updates, warm-start scaling, the cancellation and
//! deadline poll, and the result epilogue. What differs — each loop's
//! iterates and state, and how it recovers the slack `z` — sits in a
//! private enum with one variant per [`Algorithm`], dispatched by `match`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mib_sparse::vector;
use mib_trace::Category as TraceCat;

use crate::admm::Admm;
use crate::pdqp::Pdqp;
use crate::profile::Profile;
use crate::scaling::{ruiz_equilibrate, Scaling};
use crate::workspace::SolveWorkspace;
use crate::{Algorithm, Problem, QpError, Result, Settings, SolveResult, Status};

/// The QP solver: the algorithm named by
/// [`Settings::algorithm`](crate::Settings) inside one shared envelope.
///
/// A `Solver` owns a scaled copy of the problem, the algorithm's iterates
/// and a [`SolveWorkspace`] holding every scratch vector the iteration
/// needs; after [`Solver::new`] returns, a call to [`Solver::solve_into`]
/// performs **no heap allocation**. Repeated [`Solver::solve`] calls
/// warm-start from the previous solution, and the parametric update
/// methods ([`Solver::update_q`], [`Solver::update_bounds`]) support the
/// "millions of QPs with the same sparsity pattern" workflow the paper's
/// portfolio example describes without re-running setup.
#[derive(Debug, Clone)]
pub struct Solver {
    pub(crate) env: Env,
    pub(crate) algo: Algo,
    /// Set-up work (the initial factorization); every solve starts from it.
    profile: Profile,
    /// External cancellation flag, polled every `CHECK_INTERVAL`
    /// iterations.
    cancel: Option<Arc<AtomicBool>>,
    /// External absolute deadline, polled with the flag.
    deadline: Option<Instant>,
}

/// The data both algorithms read: the settings, the original problem (for
/// residuals, certificates and the objective), its scaled `q`, `l`, `u`
/// with the scaling, and the scratch buffers.
#[derive(Debug, Clone)]
pub(crate) struct Env {
    pub(crate) settings: Settings,
    pub(crate) orig: Problem,
    pub(crate) q: Vec<f64>,
    pub(crate) l: Vec<f64>,
    pub(crate) u: Vec<f64>,
    pub(crate) scaling: Scaling,
    pub(crate) ws: SolveWorkspace,
}

/// The algorithm-specific state. One per solver and never collected on
/// its own, so the size gap between the variants costs nothing worth a
/// `Box` and its extra indirection.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum Algo {
    Admm(Admm),
    Pdqp(Pdqp),
}

/// Residual snapshot of one termination check.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Residuals {
    pub(crate) prim: f64,
    pub(crate) dual: f64,
    pub(crate) prim_norm: f64,
    pub(crate) dual_norm: f64,
}

/// While tracing, the per-stage kernel spans are recorded on iteration 1
/// and every `KERNEL_SPAN_STRIDE`-th iteration after it, so a trace
/// prices a sample of the iterations instead of every one.
const KERNEL_SPAN_STRIDE: usize = 16;

/// Iteration stride of the cancellation and deadline poll. Each poll
/// costs one atomic load and one clock read, and never touches the
/// iterates.
const CHECK_INTERVAL: usize = 25;

/// What the envelope hands an algorithm's loop for one solve: the trace
/// flag, read once per solve, and the interruption poll.
pub(crate) struct Run<'a> {
    /// [`mib_trace::enabled`]: spans and events are gated on this bool,
    /// so the disabled-mode cost of a whole solve is one relaxed load.
    pub(crate) tracing: bool,
    cancel: Option<&'a AtomicBool>,
    deadline: Option<Instant>,
}

impl Run<'_> {
    /// Whether iteration `k` records its kernel spans: only while
    /// tracing, and then on iteration 1 and every `KERNEL_SPAN_STRIDE`-th.
    pub(crate) fn sampled(&self, k: usize) -> bool {
        self.tracing && (k == 1 || k.is_multiple_of(KERNEL_SPAN_STRIDE))
    }

    /// Polls the cancellation flag and the deadline after iteration `k`
    /// when `k` is a multiple of `CHECK_INTERVAL` (so also before the
    /// first iteration, `k = 0`). Cancellation wins over timeout when both
    /// fire in the same window. The poll reads no iterate state, so it
    /// cannot perturb a run that finishes.
    pub(crate) fn interruption(&self, k: usize) -> Option<Status> {
        if !k.is_multiple_of(CHECK_INTERVAL) {
            return None;
        }
        if self.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return Some(Status::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(Status::TimedOut);
        }
        None
    }
}

impl Env {
    /// Unscaled residuals and their normalization terms of the iterate
    /// staged in `ws.x_us`, `ws.y_us` and `ws.z_us`; with `project_z`,
    /// `z_us` is first set to the projection of `Ax` onto `[l, u]`.
    pub(crate) fn residuals(&mut self, project_z: bool, prof: &mut Profile) -> Residuals {
        let ws = &mut self.ws;
        let a = self.orig.a();
        let p = self.orig.p();

        a.spmv_into(&ws.x_us, &mut ws.ax);
        prof.add_spmv_mac(a.nnz());
        if project_z {
            vector::clamp_into(&mut ws.z_us, &ws.ax, self.orig.l(), self.orig.u());
        }
        let prim = vector::norm_inf_diff(&ws.ax, &ws.z_us);
        let prim_norm = vector::norm_inf(&ws.ax).max(vector::norm_inf(&ws.z_us));

        p.sym_upper_mul_vec_into(&ws.x_us, &mut ws.px);
        prof.add_spmv_mac(2 * p.nnz());
        a.spmv_t_into(&ws.y_us, &mut ws.aty);
        prof.add_spmv_col_elim(a.nnz());
        let dual = vector::norm_inf_sum3(&ws.px, self.orig.q(), &ws.aty);
        let dual_norm = vector::norm_inf(&ws.px)
            .max(vector::norm_inf(&ws.aty))
            .max(vector::norm_inf(self.orig.q()));
        prof.add_vector(4.0 * (ws.x_us.len() + ws.z_us.len()) as f64);

        Residuals {
            prim,
            dual,
            prim_norm,
            dual_norm,
        }
    }
}

impl Solver {
    /// Sets up the algorithm named by `settings.algorithm`: validates
    /// settings, equilibrates the problem and runs the algorithm's
    /// one-time setup (KKT factorization for ADMM, operator-norm
    /// estimation for PDQP).
    ///
    /// # Errors
    ///
    /// Returns setting/problem validation errors or
    /// [`QpError::KktFactorization`] if an initial factorization fails.
    pub fn new(problem: Problem, settings: Settings) -> Result<Self> {
        settings.validate()?;
        let n = problem.num_vars();
        let m = problem.num_constraints();

        // Scale a copy of the data.
        let mut p = problem.p().clone();
        let mut q = problem.q().to_vec();
        let mut a = problem.a().clone();
        let mut l = problem.l().to_vec();
        let mut u = problem.u().to_vec();
        let scaling = if settings.scaling_iters > 0 {
            let _scaling_span =
                mib_trace::span_if(mib_trace::enabled(), "scaling", TraceCat::Solver);
            ruiz_equilibrate(
                &mut p,
                &mut q,
                &mut a,
                &mut l,
                &mut u,
                settings.scaling_iters,
            )
        } else {
            Scaling::identity(n, m)
        };
        let env = Env {
            settings,
            orig: problem,
            q,
            l,
            u,
            scaling,
            ws: SolveWorkspace::new(n, m),
        };

        // ADMM's KKT backend copies what it needs of the scaled `P` and
        // `A`; PDQP keeps them.
        let mut profile = Profile::default();
        let algo = match env.settings.algorithm {
            Algorithm::Admm => Algo::Admm(Admm::new(&env, &p, &a, &mut profile)?),
            Algorithm::Pdqp => Algo::Pdqp(Pdqp::new(p, a)),
        };
        Ok(Solver {
            env,
            algo,
            profile,
            cancel: None,
            deadline: None,
        })
    }

    /// Which algorithm this solver runs.
    pub fn algorithm(&self) -> Algorithm {
        self.env.settings.algorithm
    }

    /// The solver settings.
    pub fn settings(&self) -> &Settings {
        &self.env.settings
    }

    /// The original (unscaled) problem.
    pub fn problem(&self) -> &Problem {
        &self.env.orig
    }

    /// Warm-starts the iterates from an (unscaled) primal/dual guess.
    /// PDQP also opens a fresh restart epoch.
    ///
    /// # Panics
    ///
    /// Panics if the lengths do not match the problem dimensions. For a
    /// non-panicking variant that validates a previous result, see
    /// [`Solver::warm_start_from`].
    pub fn warm_start(&mut self, x: &[f64], y: &[f64]) {
        let (xs, ys) = match &mut self.algo {
            Algo::Admm(admm) => (&mut admm.x, &mut admm.y),
            Algo::Pdqp(pdqp) => (&mut pdqp.x, &mut pdqp.y),
        };
        assert_eq!(x.len(), xs.len(), "warm start x has wrong length");
        assert_eq!(y.len(), ys.len(), "warm start y has wrong length");
        let scaling = &self.env.scaling;
        for (i, v) in xs.iter_mut().enumerate() {
            *v = x[i] * scaling.dinv[i];
        }
        for (i, v) in ys.iter_mut().enumerate() {
            *v = y[i] * scaling.c * scaling.einv[i];
        }
        match &mut self.algo {
            Algo::Admm(admm) => admm.warm_start_z(&mut self.env, x),
            Algo::Pdqp(pdqp) => pdqp.open_epoch(),
        }
    }

    /// Warm-starts the iterates from a previous [`SolveResult`] of a
    /// same-dimension problem — the "serve the next request from where the
    /// last one converged" workflow of the `mib-serve` runtime.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`] when the result's dimensions do
    /// not match this solver's problem (e.g. a pooled result from a
    /// different-shaped tenant), or when an entry of its `x` or `y` is NaN
    /// or ±∞; the iterates are left untouched.
    pub fn warm_start_from(&mut self, previous: &SolveResult) -> Result<()> {
        let n = self.env.orig.num_vars();
        let m = self.env.orig.num_constraints();
        if previous.x.len() != n || previous.y.len() != m {
            return Err(QpError::InvalidProblem(format!(
                "warm start result has dimensions ({}, {}) but problem has ({n}, {m})",
                previous.x.len(),
                previous.y.len()
            )));
        }
        if previous.x.iter().chain(&previous.y).any(|v| !v.is_finite()) {
            return Err(QpError::InvalidProblem(
                "warm start entries must be finite".into(),
            ));
        }
        self.warm_start(&previous.x, &previous.y);
        Ok(())
    }

    /// Installs (or clears) an external cancellation flag. The iteration
    /// polls the flag before its first iteration and after every 25th,
    /// and exits with [`Status::Cancelled`](crate::Status::Cancelled) once
    /// it reads `true`. The poll never touches the iterates, so installing
    /// a flag cannot change the answer of a run that completes.
    pub fn set_cancel_flag(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.cancel = cancel;
    }

    /// Installs (or clears) an absolute wall-clock deadline, the one time
    /// budget of a solve. It is polled with the cancellation flag (before
    /// the first iteration and after every 25th; the flag wins when both
    /// fire) and yields [`Status::TimedOut`](crate::Status::TimedOut)
    /// once passed. Like the flag, it cannot change the answer of a run
    /// that completes.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Resets the solver to its post-setup state: zero iterates, initial
    /// step sizes, no warm-start memory. After `reset`, a solve reproduces
    /// the very first solve of a freshly constructed solver bitwise.
    ///
    /// The reset state is a pure function of the current problem data — a
    /// pooled solver that served other parameters first reaches bitwise
    /// the same state as a fresh clone of its template with the same
    /// updates applied. This invariant holds for every algorithm.
    pub fn reset(&mut self) {
        match &mut self.algo {
            Algo::Admm(admm) => admm.reset(&self.env),
            Algo::Pdqp(pdqp) => pdqp.reset(),
        }
    }

    /// Replaces the linear cost `q` (same dimensions), preserving scaling.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`] on length mismatch or non-finite
    /// entries.
    pub fn update_q(&mut self, q: &[f64]) -> Result<()> {
        let _span = mib_trace::span_if(mib_trace::enabled(), "update_q", TraceCat::Solver);
        self.env.orig.set_q(q)?;
        self.env.scaling.scale_q_into(q, &mut self.env.q);
        Ok(())
    }

    /// Replaces the bounds `l`, `u` (same dimensions), preserving scaling.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`] if any `l[i] > u[i]` or lengths
    /// mismatch.
    pub fn update_bounds(&mut self, l: &[f64], u: &[f64]) -> Result<()> {
        let _span = mib_trace::span_if(mib_trace::enabled(), "update_bounds", TraceCat::Solver);
        let env = &mut self.env;
        env.orig.set_bounds(l, u)?;
        env.scaling.scale_bounds_into(l, &mut env.l);
        env.scaling.scale_bounds_into(u, &mut env.u);
        Ok(())
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
        let start = Instant::now();
        let tracing = mib_trace::enabled();
        let _solve_span = mib_trace::span_if(tracing, "solve", TraceCat::Solver);
        let env = &mut self.env;
        let run = Run {
            tracing,
            cancel: self.cancel.as_deref(),
            deadline: self.deadline,
        };
        // Keep the set-up work, reset the per-solve counters.
        let mut prof = self.profile;
        prof.admm_iters = 0;

        let n = env.orig.num_vars();
        let m = env.orig.num_constraints();
        result.x.resize(n, 0.0);
        result.y.resize(m, 0.0);
        result.z.resize(m, 0.0);
        result.certificate.clear();

        // A request may arrive already cancelled or past its deadline.
        let (status, iterations, res) = match run.interruption(0) {
            Some(status) => (status, 0, None),
            None => match &mut self.algo {
                Algo::Admm(admm) => admm.iterate(env, &run, &mut prof, &mut result.certificate),
                Algo::Pdqp(pdqp) => pdqp.iterate(env, &run, &mut prof),
            },
        };

        // Unscale the solution directly into the result buffers.
        let (x, y) = match &self.algo {
            Algo::Admm(admm) => (&admm.x, &admm.y),
            Algo::Pdqp(pdqp) => (&pdqp.x, &pdqp.y),
        };
        env.scaling.unscale_x_into(x, &mut result.x);
        env.scaling.unscale_y_into(y, &mut result.y);
        match &self.algo {
            Algo::Admm(admm) => env.scaling.unscale_z_into(&admm.z, &mut result.z),
            // PDQP keeps no slack: it is the projection of Ax onto [l, u].
            Algo::Pdqp(_) => {
                env.orig.a().spmv_into(&result.x, &mut env.ws.ax);
                vector::clamp_into(&mut result.z, &env.ws.ax, env.orig.l(), env.orig.u());
            }
        }
        let res = res.unwrap_or(Residuals {
            prim: f64::INFINITY,
            dual: f64::INFINITY,
            prim_norm: 1.0,
            dual_norm: 1.0,
        });
        // obj = ½ xᵀPx + qᵀx, with Px staged through the workspace.
        env.orig
            .p()
            .sym_upper_mul_vec_into(&result.x, &mut env.ws.px);
        let obj_val =
            0.5 * vector::dot(&result.x, &env.ws.px) + vector::dot(env.orig.q(), &result.x);

        result.status = status;
        result.algorithm = env.settings.algorithm;
        result.obj_val = obj_val;
        result.prim_res = res.prim;
        result.dual_res = res.dual;
        result.iterations = iterations;
        result.profile = prof;
        result.solve_time = start.elapsed();
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
        let mut solver = Solver::new(problem, Settings::default()).unwrap();
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
    fn interruption_checks_do_not_perturb_solved_runs() {
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
        for settings in configurations() {
            let what = format!("{:?}/{:?}", settings.algorithm, settings.backend);
            // Tight enough to keep every configuration iterating past the
            // first poll.
            let settings = Settings {
                eps_abs: 1e-7,
                eps_rel: 1e-7,
                ..settings
            };
            let plain = Solver::new(problem.clone(), settings.clone())
                .unwrap()
                .solve();
            assert_eq!(plain.status, Status::Solved, "{what}");
            assert!(
                plain.iterations > CHECK_INTERVAL,
                "{what}: a solve of {} iterations polls nothing mid-run",
                plain.iterations
            );
            let mut guarded = Solver::new(problem.clone(), settings).unwrap();
            guarded.set_cancel_flag(Some(Arc::new(AtomicBool::new(false))));
            guarded.set_deadline(Some(Instant::now() + std::time::Duration::from_secs(5000)));
            let r = guarded.solve();
            assert_eq!(r.status, Status::Solved, "{what}");
            assert_eq!(
                r.x, plain.x,
                "{what}: polling must not change the trajectory"
            );
            assert_eq!(r.iterations, plain.iterations, "{what}");
        }
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

        for algorithm in [Algorithm::Admm, Algorithm::Pdqp] {
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
    fn a_non_finite_warm_start_is_refused() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        for settings in configurations() {
            let template = Solver::new(problem.clone(), settings.clone()).unwrap();
            let solved = template.clone().solve();
            for bad in [f64::NAN, f64::INFINITY] {
                let mut previous = solved.clone();
                previous.x[1] = bad;
                previous.y[0] = bad;
                let mut solver = template.clone();
                let err = solver.warm_start_from(&previous).unwrap_err();
                assert!(matches!(err, QpError::InvalidProblem(_)), "{err}");
                // The refusal leaves the iterates as a fresh clone's.
                let (after, fresh) = (solver.solve(), template.clone().solve());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&after.x), bits(&fresh.x), "{bad}");
                assert_eq!(bits(&after.y), bits(&fresh.y), "{bad}");
                assert_eq!(after.iterations, fresh.iterations, "{bad}");
            }
        }
    }

    /// ADMM with the direct and the indirect KKT backend, and PDQP.
    fn configurations() -> [Settings; 3] {
        [
            Settings::with_backend(KktBackend::Direct),
            Settings::with_backend(KktBackend::Indirect),
            Settings::with_algorithm(Algorithm::Pdqp),
        ]
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

        for settings in configurations() {
            let what = format!("{:?}/{:?}", settings.algorithm, settings.backend);
            let template = Solver::new(problem.clone(), settings).unwrap();

            // Pooled path: serve other parameters first — row 1 changes
            // class (and the KKT matrix is refactorized) at every reset —
            // then re-parameterize.
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

            assert_eq!(
                via_pool.x, via_fresh.x,
                "{what}: pooled reset must be bitwise"
            );
            assert_eq!(via_pool.iterations, via_fresh.iterations, "{what}");
            assert_eq!(via_pool.status, via_fresh.status, "{what}");
            assert_eq!(
                via_pool.profile, via_fresh.profile,
                "{what}: a pooled solve reports its own work, not that of the resets before it"
            );
        }
    }

    #[test]
    fn cloned_solver_solves_independently() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap();
        // Both optima sit on the bound 0.3, so compare them only once the
        // solves have converged below the 1e-9 margin: to 1e-12, except
        // indirect ADMM, whose relative PCG tolerance stops at 1e-9.
        let [direct, indirect, pdqp] = configurations();
        for (settings, eps) in [(direct, 1e-12), (indirect, 1e-9), (pdqp, 1e-12)] {
            let what = format!("{:?}/{:?}", settings.algorithm, settings.backend);
            let settings = Settings {
                eps_abs: eps,
                eps_rel: eps,
                eps_pcg_min: 1e-14,
                ..settings
            };
            let solver = Solver::new(problem.clone(), settings).unwrap();
            let mut c1 = solver.clone();
            let mut c2 = solver.clone();
            c2.update_q(&[-2.0, -2.0]).unwrap();
            let r1 = c1.solve();
            let r2 = c2.solve();
            assert_eq!(r1.status, Status::Solved, "{what}");
            assert_eq!(r2.status, Status::Solved, "{what}");
            assert!(
                r2.x[0] > r1.x[0] - 1e-9,
                "{what}: clones must not share state"
            );
        }
    }
}
