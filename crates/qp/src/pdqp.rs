//! The restarted primal-dual ("PDQP") iteration: the
//! [`Solver`](crate::Solver) variant for [`Algorithm::Pdqp`].
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
//! KKT score has decayed by `RESTART_BETA` — the restart scheme that
//! gives the method its practical linear convergence.
//!
//! Step sizes depend only on `P` and `A`, never on `q`/`l`/`u`, so
//! parametric updates keep them fixed and `reset` is a pure function of
//! the current problem data — the pooled-solver bitwise-parity invariant
//! holds exactly as it does for ADMM. Infeasibility certificates are not
//! produced: on primal/dual infeasible inputs the method exits with
//! [`Status::MaxIterations`].

use mib_sparse::{vector, CscMatrix};
use mib_trace::{Category as TraceCat, Event as TraceEvent};

use crate::profile::Profile;
use crate::solver::{Env, Residuals, Run};
use crate::{Algorithm, Settings, Status};

/// Power-iteration budget for the setup-time operator-norm estimates.
const POWER_ITERS: usize = 64;
/// Relative convergence tolerance for the power iteration.
const POWER_TOL: f64 = 1e-9;
/// Safety margin on the norm estimates (power iteration converges from
/// below; overestimating a norm only shrinks the steps slightly).
const NORM_SAFETY: f64 = 1.05;
/// Restart threshold `β ∈ (0, 1)`: the method restarts from its best
/// candidate once that candidate's normalized KKT score has decayed below
/// `β` times the score at the previous restart.
const RESTART_BETA: f64 = 0.5;

/// PDQP's own state: the scaled matrices, the step sizes, the scaled
/// iterates and the restart-epoch averages.
#[derive(Debug, Clone)]
pub(crate) struct Pdqp {
    // Scaled matrices. Unlike ADMM there is no KKT backend holding them.
    p: CscMatrix,
    a: CscMatrix,
    /// Primal step size `τ` (fixed; a pure function of `P` and `A`).
    tau: f64,
    /// Dual step size `σ` (fixed).
    sigma: f64,
    // Scaled iterates and restart-epoch averaging state.
    pub(crate) x: Vec<f64>,
    pub(crate) y: Vec<f64>,
    x_sum: Vec<f64>,
    y_sum: Vec<f64>,
    x_avg: Vec<f64>,
    y_avg: Vec<f64>,
    /// Iterations accumulated into the sums since the last restart.
    inner: usize,
    /// Normalized KKT score at the last restart (∞ before the first).
    last_restart_score: f64,
}

impl Pdqp {
    /// Takes the scaled `p`, `a` and estimates the operator norms that fix
    /// the step sizes.
    pub(crate) fn new(p: CscMatrix, a: CscMatrix) -> Self {
        let (n, m) = (p.ncols(), a.nrows());
        let setup_span = mib_trace::span_if(mib_trace::enabled(), "pdqp_setup", TraceCat::Solver);
        let norm_a = (operator_norm_a(&a, n, m) * NORM_SAFETY).max(1e-8);
        let norm_p = operator_norm_p(&p, n) * NORM_SAFETY;
        drop(setup_span);
        let omega = 1.0;
        let sigma = omega / norm_a;
        let tau = 0.99 / (norm_p + omega * norm_a);
        Pdqp {
            p,
            a,
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
        }
    }

    /// Opens a fresh restart epoch: empty averaging sums, no restart
    /// memory. A warm start does this after installing its iterates.
    pub(crate) fn open_epoch(&mut self) {
        self.x_sum.fill(0.0);
        self.y_sum.fill(0.0);
        self.inner = 0;
        self.last_restart_score = f64::INFINITY;
    }

    /// Zero iterates and averages and a fresh epoch. The step sizes never
    /// change, so this is the state of a freshly constructed solver.
    pub(crate) fn reset(&mut self) {
        self.x.fill(0.0);
        self.y.fill(0.0);
        self.x_avg.fill(0.0);
        self.y_avg.fill(0.0);
        self.open_epoch();
    }

    /// Runs the restarted PDHG loop from the current iterates and returns
    /// the status, the iteration count and the residuals of the last
    /// check's candidate.
    pub(crate) fn iterate(
        &mut self,
        env: &mut Env,
        run: &Run,
        prof: &mut Profile,
    ) -> (Status, usize, Option<Residuals>) {
        let max_iter = env.settings.max_iter;
        let check_every = env.settings.check_termination;

        let mut status = Status::MaxIterations;
        let mut final_res: Option<Residuals> = None;
        let mut iterations = 0usize;

        let loop_span = mib_trace::span_if(run.tracing, "pdqp_loop", TraceCat::Solver);
        for k in 1..=max_iter {
            iterations = k;
            self.step(env, run.sampled(k), prof);

            let checking = k % check_every == 0 || k == max_iter;
            if checking {
                // Average candidate for this restart epoch.
                let t = self.inner as f64;
                vector::div_scale_into(&mut self.x_avg, &self.x_sum, t);
                vector::div_scale_into(&mut self.y_avg, &self.y_sum, t);
                let res_cur = self.residuals_at(env, false, prof);
                let res_avg = self.residuals_at(env, true, prof);
                prof.checks += 1;
                let (use_avg, res) =
                    if score(&env.settings, &res_avg) < score(&env.settings, &res_cur) {
                        (true, res_avg)
                    } else {
                        (false, res_cur)
                    };
                final_res = Some(res);
                if run.tracing {
                    // As in the ADMM loop, `res` is exactly what a
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
                        },
                    );
                }
                let sc = score(&env.settings, &res);
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
                if sc <= RESTART_BETA * self.last_restart_score {
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
            if let Some(s) = run.interruption(k) {
                status = s;
                break;
            }
            prof.admm_iters = k;
        }
        drop(loop_span);
        (status, iterations, final_res)
    }

    /// One PDHG iteration: primal gradient step, dual extrapolated step
    /// via Moreau decomposition, then epoch-average accumulation. Three
    /// sparse mat-vecs, all through preallocated workspace buffers.
    /// `kspans`: whether this iteration records its kernel spans.
    fn step(&mut self, env: &mut Env, kspans: bool, prof: &mut Profile) {
        let ws = &mut env.ws;
        let n = self.x.len();
        let m = self.y.len();
        {
            // Gradient: P x + q + Aᵀ y, staged through px / aty, then the
            // primal step with extrapolation 2 x⁺ − x for the dual step.
            let _s = mib_trace::span_if(kspans, "stage_gradient", TraceCat::Kernel);
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
                &env.q,
                &ws.aty,
            );
        }
        {
            let _s = mib_trace::span_if(kspans, "stage_dual", TraceCat::Kernel);
            self.a.spmv_into(&ws.rhs_x, &mut ws.ax);
            prof.add_spmv_mac(self.a.nnz());
            let sigma = self.sigma;
            vector::moreau_into(&mut self.y, &mut ws.ztilde, sigma, &ws.ax, &env.l, &env.u);
        }
        {
            let _s = mib_trace::span_if(kspans, "stage_average", TraceCat::Kernel);
            self.x.copy_from_slice(&ws.xtilde);
            vector::add_assign(&mut self.x_sum, &self.x);
            vector::add_assign(&mut self.y_sum, &self.y);
        }
        self.inner += 1;
        prof.add_vector((5 * n + 6 * m) as f64);
    }

    /// Unscaled KKT residuals of the current iterate (`avg = false`) or
    /// the epoch average (`avg = true`), with `z := Π_{[l,u]}(Ax)`.
    fn residuals_at(&self, env: &mut Env, avg: bool, prof: &mut Profile) -> Residuals {
        let (xs, ys) = if avg {
            (&self.x_avg[..], &self.y_avg[..])
        } else {
            (&self.x[..], &self.y[..])
        };
        env.scaling.unscale_x_into(xs, &mut env.ws.x_us);
        env.scaling.unscale_y_into(ys, &mut env.ws.y_us);
        env.residuals(true, prof)
    }
}

/// Normalized KKT score: `< 1` exactly when the ADMM termination test
/// `prim < ε_abs + ε_rel·‖·‖ ∧ dual < ε_abs + ε_rel·‖·‖` passes.
fn score(settings: &Settings, res: &Residuals) -> f64 {
    let eps_prim = settings.eps_abs + settings.eps_rel * res.prim_norm;
    let eps_dual = settings.eps_abs + settings.eps_rel * res.dual_norm;
    (res.prim / eps_prim).max(res.dual / eps_dual)
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
        a.spmv_into(&v, &mut av);
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
    use crate::solver::Algo;
    use crate::{Problem, SolveResult, Solver};

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

    /// The PDQP state of a PDQP solver.
    fn pdqp(solver: &Solver) -> &Pdqp {
        let Algo::Pdqp(pdqp) = &solver.algo else {
            unreachable!("a PDQP solver")
        };
        pdqp
    }

    #[test]
    fn step_sizes_satisfy_the_condat_vu_condition() {
        let solver = Solver::new(box_problem(), pdqp_settings()).unwrap();
        let state = pdqp(&solver);
        assert!(state.tau > 0.0 && state.sigma > 0.0);
        // For the scaled identity-ish data here the true norms are modest;
        // the estimates must keep 1/τ − σ‖A‖² ≥ ‖P‖ with slack.
        assert!(state.tau < 1.0);
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
        let mut solver = Solver::new(box_problem(), pdqp_settings()).unwrap();
        let mut result = SolveResult::default();
        solver.solve_into(&mut result);
        assert_eq!(result.status, Status::Solved, "prim {}", result.prim_res);
        assert_eq!(result.algorithm, Algorithm::Pdqp);
        assert!((result.x[0] - 0.3).abs() < 1e-2, "x0 = {}", result.x[0]);
        assert!((result.x[1] - 0.3).abs() < 1e-2);
    }

    #[test]
    fn reset_restores_cold_start_bitwise() {
        let mut solver = Solver::new(box_problem(), pdqp_settings()).unwrap();
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
        let mut solver = Solver::new(problem, pdqp_settings()).unwrap();
        let tau_before = pdqp(&solver).tau;
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
            pdqp(&solver).tau.to_bits(),
            tau_before.to_bits(),
            "step sizes are a pure function of P/A"
        );
    }
}
