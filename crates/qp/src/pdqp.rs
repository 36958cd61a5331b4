//! The restarted primal-dual ("PDQP") backend, behind [`QpBackend`].
//!
//! A restarted, averaged primal-dual hybrid gradient method for
//! `min ½xᵀPx + qᵀx  s.t.  l ≤ Ax ≤ u`, after Lu & Yang's first-order QP
//! solver. Each iteration is three sparse mat-vecs on the existing
//! `mib-sparse` `_into` kernels — **no factorization anywhere**:
//!
//! ```text
//! xᵏ⁺¹ = xᵏ − τ (P xᵏ + q + Aᵀ yᵏ)                 (primal gradient step)
//! w    = yᵏ + σ A (2 xᵏ⁺¹ − xᵏ)                    (dual extrapolated step)
//! yᵏ⁺¹ = w − σ Π_{[l,u]}(w / σ)                    (Moreau decomposition)
//! ```
//!
//! with Condat–Vũ step sizes `σ = ω/‖A‖`, `τ = 0.99/(‖P‖ + ω‖A‖)`
//! (`ω = 1`), the operator norms estimated once at setup by deterministic
//! power iteration. Iterates are averaged within a restart epoch; at every
//! termination-check boundary the better of {current, average} becomes the
//! restart candidate, and the method restarts from it when its normalized
//! KKT score has decayed by [`Settings::pdqp_restart_beta`] — the restart
//! scheme that gives the method its practical linear convergence.
//!
//! Step sizes depend only on `P` and `A`, never on `q`/`l`/`u`, so
//! parametric updates keep them fixed and `reset` is a pure function of
//! the current problem data — the pooled-solver bitwise-parity invariant
//! holds exactly as it does for ADMM. Infeasibility certificates are not
//! produced: on primal/dual infeasible inputs the method exits with
//! [`Status::MaxIterations`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mib_sparse::{vector, CscMatrix};
use mib_trace::{Category as TraceCat, Event as TraceEvent};

use crate::backend::{Algorithm, QpBackend};
use crate::profile::Profile;
use crate::scaling::{ruiz_equilibrate, Scaling};
use crate::workspace::SolveWorkspace;
use crate::{Problem, Result, Settings, SolveResult, Status};

/// Power-iteration budget for the setup-time operator-norm estimates.
const POWER_ITERS: usize = 64;
/// Relative convergence tolerance for the power iteration.
const POWER_TOL: f64 = 1e-9;
/// Safety margin on the norm estimates (power iteration converges from
/// below; overestimating a norm only shrinks the steps slightly).
const NORM_SAFETY: f64 = 1.05;

/// The restarted primal-dual first-order QP solver.
#[derive(Debug, Clone)]
pub struct PdqpSolver {
    settings: Settings,
    /// Original (unscaled) problem, used for residuals and the objective.
    orig: Problem,
    // Scaled data. Unlike ADMM there is no KKT backend holding the scaled
    // matrices, so the solver keeps them itself.
    p: CscMatrix,
    a: CscMatrix,
    q: Vec<f64>,
    l: Vec<f64>,
    u: Vec<f64>,
    scaling: Scaling,
    /// Primal step size `τ` (fixed; a pure function of `P` and `A`).
    tau: f64,
    /// Dual step size `σ` (fixed).
    sigma: f64,
    // Scaled iterates and restart-epoch averaging state.
    x: Vec<f64>,
    y: Vec<f64>,
    x_sum: Vec<f64>,
    y_sum: Vec<f64>,
    x_avg: Vec<f64>,
    y_avg: Vec<f64>,
    /// Iterations accumulated into the sums since the last restart.
    inner: usize,
    /// Normalized KKT score at the last restart (∞ before the first).
    last_restart_score: f64,
    ws: SolveWorkspace,
    profile: Profile,
    cancel: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

/// Residual snapshot (same formulas as the ADMM backend, with
/// `z := Π_{[l,u]}(Ax)`).
#[derive(Debug, Clone, Copy)]
struct Residuals {
    prim: f64,
    dual: f64,
    prim_norm: f64,
    dual_norm: f64,
}

impl PdqpSolver {
    /// Sets up the solver: validates settings, equilibrates the problem
    /// and estimates the operator norms that fix the step sizes.
    ///
    /// # Errors
    ///
    /// Returns setting/problem validation errors.
    pub fn new(problem: Problem, settings: Settings) -> Result<Self> {
        settings.validate()?;
        let n = problem.num_vars();
        let m = problem.num_constraints();

        // Scale a copy of the data (identical to the ADMM setup path).
        let mut p = problem.p().clone();
        let mut q = problem.q().to_vec();
        let mut a = problem.a().clone();
        let mut l = problem.l().to_vec();
        let mut u = problem.u().to_vec();
        let tracing = mib_trace::enabled();
        let scaling = if settings.scaling_iters > 0 {
            let _scaling_span = mib_trace::span_if(tracing, "scaling", TraceCat::Solver);
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

        let setup_span = mib_trace::span_if(tracing, "pdqp_setup", TraceCat::Solver);
        let norm_a = (operator_norm_a(&a, n, m) * NORM_SAFETY).max(1e-8);
        let norm_p = operator_norm_p(&p, n) * NORM_SAFETY;
        drop(setup_span);
        let omega = 1.0;
        let sigma = omega / norm_a;
        let tau = 0.99 / (norm_p + omega * norm_a);

        Ok(PdqpSolver {
            settings,
            orig: problem,
            p,
            a,
            q,
            l,
            u,
            scaling,
            tau,
            sigma,
            x: vec![0.0; n],
            y: vec![0.0; m],
            x_sum: vec![0.0; n],
            y_sum: vec![0.0; m],
            x_avg: vec![0.0; n],
            y_avg: vec![0.0; m],
            inner: 0,
            last_restart_score: f64::INFINITY,
            ws: SolveWorkspace::new(n, m),
            profile: Profile::default(),
            cancel: None,
            deadline: None,
        })
    }

    /// The fixed primal step size `τ`.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The fixed dual step size `σ`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Warm-starts the iterates from an (unscaled) primal/dual guess and
    /// opens a fresh restart epoch.
    ///
    /// # Panics
    ///
    /// Panics if the lengths do not match the problem dimensions.
    pub fn warm_start(&mut self, x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), self.x.len(), "warm start x has wrong length");
        assert_eq!(y.len(), self.y.len(), "warm start y has wrong length");
        for (i, xs) in self.x.iter_mut().enumerate() {
            *xs = x[i] * self.scaling.dinv[i];
        }
        for (i, ys) in self.y.iter_mut().enumerate() {
            *ys = y[i] * self.scaling.c * self.scaling.einv[i];
        }
        self.x_sum.fill(0.0);
        self.y_sum.fill(0.0);
        self.inner = 0;
        self.last_restart_score = f64::INFINITY;
    }

    /// Resets the solver to its post-setup state: zero iterates, empty
    /// averaging sums, no restart memory. The step sizes are a pure
    /// function of `P`/`A` and never change, so after `reset` a solve
    /// reproduces the very first solve of a freshly constructed solver
    /// bitwise — the same pooled-solver invariant the ADMM backend keeps.
    pub fn reset(&mut self) {
        self.x.fill(0.0);
        self.y.fill(0.0);
        self.x_sum.fill(0.0);
        self.y_sum.fill(0.0);
        self.x_avg.fill(0.0);
        self.y_avg.fill(0.0);
        self.inner = 0;
        self.last_restart_score = f64::INFINITY;
    }

    /// Replaces the linear cost `q` (same dimensions), preserving scaling.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`](crate::QpError::InvalidProblem)
    /// on length mismatch or non-finite entries.
    pub fn update_q(&mut self, q: &[f64]) -> Result<()> {
        self.orig.set_q(q)?;
        self.scaling.scale_q_into(q, &mut self.q);
        Ok(())
    }

    /// Replaces the bounds `l`, `u` (same dimensions), preserving scaling.
    /// The step sizes do not depend on the bounds and stay fixed.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`](crate::QpError::InvalidProblem)
    /// if any `l[i] > u[i]` or lengths mismatch.
    pub fn update_bounds(&mut self, l: &[f64], u: &[f64]) -> Result<()> {
        self.orig.set_bounds(l, u)?;
        self.scaling.scale_bounds_into(l, &mut self.l);
        self.scaling.scale_bounds_into(u, &mut self.u);
        Ok(())
    }

    /// Runs the restarted PDHG iteration, writing the outcome into an
    /// existing [`SolveResult`]. Allocation-free when `result` comes from
    /// a previous solve of the same dimensions.
    pub fn solve_into(&mut self, result: &mut SolveResult) {
        let start = Instant::now();
        let tracing = mib_trace::enabled();
        // Opt-in per-segment kernel spans, hoisted like `tracing`.
        let ktrace = mib_trace::kernel_spans();
        // Per-iteration kernel detail is sampled at the kernel stride;
        // the default stride of 1 records every iteration exactly.
        let kstride = usize::try_from(mib_trace::kernel_span_stride()).unwrap_or(usize::MAX);
        let _solve_span = mib_trace::span_if(tracing, "solve", TraceCat::Solver);
        let mut prof = self.profile;
        prof.admm_iters = 0;

        let n = self.x.len();
        let m = self.y.len();
        let max_iter = self.settings.max_iter;
        let check_every = self.settings.check_termination;
        let beta = self.settings.pdqp_restart_beta;

        result.x.resize(n, 0.0);
        result.y.resize(m, 0.0);
        result.z.resize(m, 0.0);
        result.certificate.clear();

        let deadline = match (self.settings.time_limit.map(|d| start + d), self.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let check_interval = self.settings.check_interval;

        let mut status = Status::MaxIterations;
        let mut final_res: Option<Residuals> = None;
        let mut iterations = 0usize;

        if let Some(s) = self.interruption(deadline) {
            status = s;
        }
        let loop_span = mib_trace::span_if(tracing, "pdqp_loop", TraceCat::Solver);
        for k in 1..=max_iter {
            if status != Status::MaxIterations {
                break;
            }
            iterations = k;
            self.step(ktrace && (k == 1 || k % kstride == 0), &mut prof);

            let checking = k % check_every == 0 || k == max_iter;
            if checking {
                // Average candidate for this restart epoch.
                let t = self.inner as f64;
                vector::div_scale_into(&mut self.x_avg, &self.x_sum, t);
                vector::div_scale_into(&mut self.y_avg, &self.y_sum, t);
                let res_cur = self.residuals_at(false, &mut prof);
                let res_avg = self.residuals_at(true, &mut prof);
                prof.checks += 1;
                let (use_avg, res) = if self.score(&res_avg) < self.score(&res_cur) {
                    (true, res_avg)
                } else {
                    (false, res_cur)
                };
                final_res = Some(res);
                if tracing {
                    // As in the ADMM backend, `res` is exactly what a
                    // terminating check writes into the result, so the last
                    // Iteration event matches the returned residuals bitwise.
                    mib_trace::record_if(
                        true,
                        TraceEvent::Iteration {
                            algo: Algorithm::Pdqp.name(),
                            iter: u32::try_from(k).unwrap_or(u32::MAX),
                            prim_res: res.prim,
                            dual_res: res.dual,
                            rho: self.tau,
                            pcg_iters: 0,
                            kkt_ns: 0,
                        },
                    );
                }
                let sc = self.score(&res);
                if sc < 1.0 {
                    if use_avg {
                        self.x.copy_from_slice(&self.x_avg);
                        self.y.copy_from_slice(&self.y_avg);
                    }
                    status = Status::Solved;
                    break;
                }
                // Restart once the best candidate's score has decayed
                // enough relative to the last restart point.
                if sc <= beta * self.last_restart_score {
                    if use_avg {
                        self.x.copy_from_slice(&self.x_avg);
                        self.y.copy_from_slice(&self.y_avg);
                    }
                    self.x_sum.fill(0.0);
                    self.y_sum.fill(0.0);
                    self.inner = 0;
                    self.last_restart_score = sc;
                }
            }
            if k % check_interval == 0 {
                if let Some(s) = self.interruption(deadline) {
                    status = s;
                    break;
                }
            }
            prof.admm_iters = k;
        }
        drop(loop_span);

        // Unscale the solution directly into the result buffers; the slack
        // is defined as the projection of Ax onto the box.
        self.scaling.unscale_x_into(&self.x, &mut result.x);
        self.scaling.unscale_y_into(&self.y, &mut result.y);
        self.orig.a().mul_vec_into(&result.x, &mut self.ws.ax);
        vector::clamp_into(&mut result.z, &self.ws.ax, self.orig.l(), self.orig.u());
        let res = final_res.unwrap_or(Residuals {
            prim: f64::INFINITY,
            dual: f64::INFINITY,
            prim_norm: 1.0,
            dual_norm: 1.0,
        });
        self.orig
            .p()
            .sym_upper_mul_vec_into(&result.x, &mut self.ws.px);
        let obj_val =
            0.5 * vector::dot(&result.x, &self.ws.px) + vector::dot(self.orig.q(), &result.x);

        result.status = status;
        result.algorithm = Algorithm::Pdqp;
        result.obj_val = obj_val;
        result.prim_res = res.prim;
        result.dual_res = res.dual;
        result.iterations = iterations;
        result.profile = prof;
        result.solve_time = start.elapsed();
    }

    /// One PDHG iteration: primal gradient step, dual extrapolated step
    /// via Moreau decomposition, then epoch-average accumulation. Three
    /// sparse mat-vecs, all through preallocated workspace buffers.
    /// `ktrace` is the caller-hoisted [`mib_trace::kernel_spans`] flag.
    fn step(&mut self, ktrace: bool, prof: &mut Profile) {
        let ws = &mut self.ws;
        let n = self.x.len();
        let m = self.y.len();
        {
            // Gradient: P x + q + Aᵀ y, staged through px / aty, then the
            // primal step with extrapolation 2 x⁺ − x for the dual step.
            let _s = mib_trace::span_if(ktrace, "stage_gradient", TraceCat::Kernel);
            self.p.sym_upper_mul_vec_into(&self.x, &mut ws.px);
            prof.add_spmv_mac(2 * self.p.nnz());
            self.a.spmv_t_into(&self.y, &mut ws.aty);
            prof.add_spmv_col_elim(self.a.nnz());
            vector::grad_step_into(
                &mut ws.xtilde,
                &mut ws.rhs_x,
                &self.x,
                self.tau,
                &ws.px,
                &self.q,
                &ws.aty,
            );
        }
        {
            let _s = mib_trace::span_if(ktrace, "stage_dual", TraceCat::Kernel);
            self.a.mul_vec_into(&ws.rhs_x, &mut ws.ax);
            prof.add_spmv_mac(self.a.nnz());
            let sigma = self.sigma;
            vector::moreau_into(&mut self.y, &mut ws.ztilde, sigma, &ws.ax, &self.l, &self.u);
        }
        {
            let _s = mib_trace::span_if(ktrace, "stage_average", TraceCat::Kernel);
            self.x.copy_from_slice(&ws.xtilde);
            vector::add_assign(&mut self.x_sum, &self.x);
            vector::add_assign(&mut self.y_sum, &self.y);
        }
        self.inner += 1;
        prof.add_vector((5 * n + 6 * m) as f64);
    }

    /// Unscaled KKT residuals of the current iterate (`avg = false`) or
    /// the epoch average (`avg = true`), staged through the workspace.
    fn residuals_at(&mut self, avg: bool, prof: &mut Profile) -> Residuals {
        let ws = &mut self.ws;
        let (xs, ys) = if avg {
            (&self.x_avg[..], &self.y_avg[..])
        } else {
            (&self.x[..], &self.y[..])
        };
        self.scaling.unscale_x_into(xs, &mut ws.x_us);
        self.scaling.unscale_y_into(ys, &mut ws.y_us);
        let a = self.orig.a();
        let p = self.orig.p();

        a.mul_vec_into(&ws.x_us, &mut ws.ax);
        prof.add_spmv_mac(a.nnz());
        vector::clamp_into(&mut ws.z_us, &ws.ax, self.orig.l(), self.orig.u());
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

    /// Normalized KKT score: `< 1` exactly when the ADMM termination test
    /// `prim < ε_abs + ε_rel·‖·‖ ∧ dual < ε_abs + ε_rel·‖·‖` passes.
    fn score(&self, res: &Residuals) -> f64 {
        let eps_prim = self.settings.eps_abs + self.settings.eps_rel * res.prim_norm;
        let eps_dual = self.settings.eps_abs + self.settings.eps_rel * res.dual_norm;
        (res.prim / eps_prim).max(res.dual / eps_dual)
    }

    /// Polls the external cancellation flag and the effective deadline.
    fn interruption(&self, deadline: Option<Instant>) -> Option<Status> {
        if self
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
        {
            return Some(Status::Cancelled);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(Status::TimedOut);
        }
        None
    }
}

impl QpBackend for PdqpSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Pdqp
    }

    fn settings(&self) -> &Settings {
        &self.settings
    }

    fn problem(&self) -> &Problem {
        &self.orig
    }

    fn workspace(&self) -> &SolveWorkspace {
        &self.ws
    }

    fn step_size(&self) -> f64 {
        self.tau
    }

    fn warm_start(&mut self, x: &[f64], y: &[f64]) {
        PdqpSolver::warm_start(self, x, y);
    }

    fn reset(&mut self) {
        PdqpSolver::reset(self);
    }

    fn update_q(&mut self, q: &[f64]) -> Result<()> {
        PdqpSolver::update_q(self, q)
    }

    fn update_bounds(&mut self, l: &[f64], u: &[f64]) -> Result<()> {
        PdqpSolver::update_bounds(self, l, u)
    }

    fn set_cancel_flag(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.cancel = cancel;
    }

    fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    fn solve_into(&mut self, result: &mut SolveResult) {
        PdqpSolver::solve_into(self, result);
    }

    fn clone_box(&self) -> Box<dyn QpBackend> {
        Box::new(self.clone())
    }
}

/// `‖A‖₂` by power iteration on `AᵀA` from a deterministic start vector.
/// Converges from below; callers apply the safety margin.
fn operator_norm_a(a: &CscMatrix, n: usize, m: usize) -> f64 {
    if n == 0 || m == 0 {
        return 0.0;
    }
    let mut v: Vec<f64> = (0..n).map(|j| 1.0 / (j as f64 + 1.0)).collect();
    let mut av = vec![0.0; m];
    let mut atav = vec![0.0; n];
    let mut lambda = 0.0f64;
    for _ in 0..POWER_ITERS {
        a.mul_vec_into(&v, &mut av);
        a.spmv_t_into(&av, &mut atav);
        let next = vector::norm2(&atav);
        if next <= 0.0 {
            return 0.0;
        }
        vector::div_scale_into(&mut v, &atav, next);
        let converged = (next - lambda).abs() <= POWER_TOL * next.max(1.0);
        lambda = next;
        if converged {
            break;
        }
    }
    lambda.sqrt()
}

/// `‖P‖₂` by power iteration on the symmetric (upper-stored) `P`.
fn operator_norm_p(p: &CscMatrix, n: usize) -> f64 {
    if n == 0 || p.nnz() == 0 {
        return 0.0;
    }
    let mut v: Vec<f64> = (0..n).map(|j| 1.0 / (j as f64 + 1.0)).collect();
    let mut pv = vec![0.0; n];
    let mut lambda = 0.0f64;
    for _ in 0..POWER_ITERS {
        p.sym_upper_mul_vec_into(&v, &mut pv);
        let next = vector::norm2(&pv);
        if next <= 0.0 {
            return 0.0;
        }
        vector::div_scale_into(&mut v, &pv, next);
        let converged = (next - lambda).abs() <= POWER_TOL * next.max(1.0);
        lambda = next;
        if converged {
            break;
        }
    }
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box_problem() -> Problem {
        // minimize x0^2 + x1^2 - x0 - x1 s.t. 0 <= x <= 0.3.
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        Problem::new(p, vec![-1.0, -1.0], a, vec![0.0; 2], vec![0.3; 2]).unwrap()
    }

    fn pdqp_settings() -> Settings {
        Settings {
            algorithm: Algorithm::Pdqp,
            max_iter: 200_000,
            ..Settings::default()
        }
    }

    #[test]
    fn step_sizes_satisfy_the_condat_vu_condition() {
        let solver = PdqpSolver::new(box_problem(), pdqp_settings()).unwrap();
        assert!(solver.tau() > 0.0 && solver.sigma() > 0.0);
        // For the scaled identity-ish data here the true norms are modest;
        // the estimates must keep 1/τ − σ‖A‖² ≥ ‖P‖ with slack.
        assert!(solver.tau() < 1.0);
    }

    #[test]
    fn power_iteration_matches_known_norms() {
        // A = diag(3, 1) as a 2x2: ‖A‖ = 3. P = diag(2, 2): ‖P‖ = 2.
        let a = CscMatrix::from_dense(2, 2, &[3.0, 0.0, 0.0, 1.0]);
        let na = operator_norm_a(&a, 2, 2);
        assert!((na - 3.0).abs() < 1e-6, "norm_a = {na}");
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let np = operator_norm_p(&p, 2);
        assert!((np - 2.0).abs() < 1e-6, "norm_p = {np}");
    }

    #[test]
    fn solves_box_qp() {
        let mut solver = PdqpSolver::new(box_problem(), pdqp_settings()).unwrap();
        let mut result = SolveResult::default();
        solver.solve_into(&mut result);
        assert_eq!(result.status, Status::Solved, "prim {}", result.prim_res);
        assert_eq!(result.algorithm, Algorithm::Pdqp);
        assert!((result.x[0] - 0.3).abs() < 1e-2, "x0 = {}", result.x[0]);
        assert!((result.x[1] - 0.3).abs() < 1e-2);
    }

    #[test]
    fn reset_restores_cold_start_bitwise() {
        let mut solver = PdqpSolver::new(box_problem(), pdqp_settings()).unwrap();
        let mut r1 = SolveResult::default();
        solver.solve_into(&mut r1);
        let mut drift = SolveResult::default();
        solver.solve_into(&mut drift); // drift the iterates
        solver.reset();
        let mut r2 = SolveResult::default();
        solver.solve_into(&mut r2);
        assert_eq!(r1.x, r2.x, "reset must restore cold-start bitwise");
        assert_eq!(r1.iterations, r2.iterations);
    }

    #[test]
    fn update_q_resolves_parametrically() {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        let problem = Problem::new(p, vec![-1.0, -1.0], a, vec![-10.0; 2], vec![10.0; 2]).unwrap();
        let mut solver = PdqpSolver::new(problem, pdqp_settings()).unwrap();
        let tau_before = solver.tau();
        let mut r1 = SolveResult::default();
        solver.solve_into(&mut r1);
        assert_eq!(r1.status, Status::Solved);
        assert!((r1.x[0] - 0.5).abs() < 1e-2);
        solver.update_q(&[-2.0, -2.0]).unwrap();
        solver.reset();
        let mut r2 = SolveResult::default();
        solver.solve_into(&mut r2);
        assert!(
            (r2.x[0] - 1.0).abs() < 1e-2,
            "x after q update: {}",
            r2.x[0]
        );
        assert_eq!(
            solver.tau().to_bits(),
            tau_before.to_bits(),
            "step sizes are a pure function of P/A"
        );
    }
}
