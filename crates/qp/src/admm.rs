//! The ADMM iteration (Algorithm 1 of the paper): the
//! [`Solver`](crate::Solver) variant for
//! [`Algorithm::Admm`](crate::Algorithm::Admm).
//!
//! `Solver` owns the problem data, the workspace and the solve envelope
//! (set-up, updates, interruption, the result epilogue); this module owns
//! ADMM's iterates, its step sizes, its KKT backend and its loop. The
//! pre-test-triggered checks of [`Admm::iterate`] may only stop a solve
//! sooner: they never change the iterates. On the indirect backend the
//! pre-test's step also drives the PCG tolerance. With adaptive `ρ` on,
//! every fifth iteration is instead a full check that may update `ρ`, on
//! both backends.

use mib_sparse::{vector, CscMatrix};
use mib_trace::{Category as TraceCat, Event as TraceEvent};

use crate::linsys::Kkt;
use crate::profile::Profile;
use crate::solver::{Env, Residuals, Run};
use crate::{Algorithm, Result, Settings, Status, INFTY};

/// Relaxation parameter `α ∈ (0, 2)` of the x- and z-updates (Algorithm 1
/// of the paper; OSQP's default).
pub const ALPHA: f64 = 1.6;

/// Iteration stride of the convergence pre-test between regular
/// termination checks (see [`Admm::iterate`]).
const PRETEST_EVERY: usize = 5;

/// Factor applied to the PCG tolerance when the pre-test's primal step,
/// relative to its bound, has not fallen since the previous pre-test.
const PCG_STALL_TIGHTEN: f64 = 0.2;

/// Relative PCG tolerance at the start of every solve.
const PCG_TOL_START: f64 = 1e-4;

/// Floor of the relative PCG tolerance.
const PCG_TOL_FLOOR: f64 = 1e-9;

/// Primal infeasibility tolerance of the certificate test.
const EPS_PRIM_INF: f64 = 1e-4;

/// Dual infeasibility tolerance of the certificate test.
const EPS_DUAL_INF: f64 = 1e-4;

/// Adaptive `ρ` changes `ρ` only when the new value differs from it by
/// more than this factor.
const ADAPTIVE_RHO_TOLERANCE: f64 = 5.0;

/// ADMM's own state: the scaled iterates, the step sizes and the KKT
/// backend.
///
/// The iteration is decomposed into named stages — `stage_rhs`,
/// `stage_ztilde`, `stage_x_update`, `stage_z_projection`,
/// `stage_y_update`, `stage_pretest`, `stage_residuals`,
/// `stage_adaptive_rho` — each of
/// which reads and writes well-defined workspace buffers, so they are
/// testable in isolation. All but `stage_pretest` map one-to-one onto the
/// schedule fragments the MIB compiler emits; the pre-test has no
/// fragment, and the MIB cycle model does not charge it.
#[derive(Debug, Clone)]
pub(crate) struct Admm {
    rho: f64,
    rho_vec: Vec<f64>,
    rho_inv_vec: Vec<f64>,
    kkt: Kkt,
    // Scaled iterates.
    pub(crate) x: Vec<f64>,
    pub(crate) y: Vec<f64>,
    pub(crate) z: Vec<f64>,
}

impl Admm {
    /// Builds the `ρ` vector and the KKT backend for the scaled `p`, `a`,
    /// charging the factorization to `profile`.
    ///
    /// # Errors
    ///
    /// [`QpError::KktFactorization`](crate::QpError::KktFactorization) if
    /// the initial factorization fails.
    pub(crate) fn new(
        env: &Env,
        p: &CscMatrix,
        a: &CscMatrix,
        profile: &mut Profile,
    ) -> Result<Self> {
        let settings = &env.settings;
        let (rho_vec, rho_inv_vec) = build_rho_vec(settings, settings.rho, &env.l, &env.u);
        let kkt_setup_span = mib_trace::span_if(mib_trace::enabled(), "kkt_setup", TraceCat::Kkt);
        let kkt = Kkt::new(settings, p, a, &rho_vec, profile)?;
        drop(kkt_setup_span);
        let (n, m) = (env.q.len(), env.l.len());
        Ok(Admm {
            rho: settings.rho,
            rho_vec,
            rho_inv_vec,
            kkt,
            x: vec![0.0; n],
            y: vec![0.0; m],
            z: vec![0.0; m],
        })
    }

    /// The warm-start slack: `z = A x` of the unscaled guess `x`, scaled.
    /// The first iteration re-establishes it.
    pub(crate) fn warm_start_z(&mut self, env: &mut Env, x: &[f64]) {
        env.orig.a().spmv_into(x, &mut env.ws.ax);
        for (i, zs) in self.z.iter_mut().enumerate() {
            *zs = env.ws.ax[i] * env.scaling.e[i];
        }
    }

    /// Zero iterates, the initial `ρ` and no PCG warm start.
    ///
    /// The `ρ` vector is rebuilt from the *current* bounds, so the reset
    /// state is a pure function of the current problem data, even when a
    /// bounds update changed a constraint's loose/equality/inequality
    /// classification.
    pub(crate) fn reset(&mut self, env: &Env) {
        self.x.fill(0.0);
        self.y.fill(0.0);
        self.z.fill(0.0);
        self.kkt.reset();
        self.rho = env.settings.rho;
        // Rebuild only when some entry actually changes (classification
        // drift or a previous adaptive-ρ run); `rho_vec` always mirrors the
        // value the KKT backend was last updated with, so an unchanged
        // vector needs no refactorization.
        let changed = env
            .l
            .iter()
            .zip(&env.u)
            .zip(&self.rho_vec)
            .any(|((&lo, &hi), &r)| rho_for(&env.settings, self.rho, lo, hi) != r);
        if changed {
            build_rho_vec_into(
                &env.settings,
                self.rho,
                &env.l,
                &env.u,
                &mut self.rho_vec,
                &mut self.rho_inv_vec,
            );
            // Counted nowhere: the setup profile stays the work of `new`,
            // so a pooled solver's solve reports what a fresh clone's
            // would, not a running total of the resets before it.
            let _ = self.kkt.update_rho(&self.rho_vec, &mut Profile::default());
        }
    }

    /// Runs the ADMM loop from the current iterates and returns the
    /// status, the iteration count and the last checked residuals. An
    /// infeasibility certificate is appended to `certificate`.
    ///
    /// The full termination check runs every `check_termination`
    /// iterations (a regular check: only these test the infeasibility
    /// certificates), and also on any multiple of `PRETEST_EVERY` (5)
    /// where the cheap `stage_pretest` passes. A triggered check can only
    /// stop the solve as `Solved` — it reads the iterates and writes
    /// nothing but residual scratch — so a solve follows the same iterate
    /// sequence as with regular checks alone and stops at or before the
    /// same iteration.
    ///
    /// Adaptive `ρ` is the exception: with it on, every multiple of
    /// `PRETEST_EVERY` runs the full check, on both backends, and every
    /// full check that does not stop the solve applies
    /// `stage_adaptive_rho`. An applied update refactors on the direct
    /// backend (about two iterations' work at the served sizes) and
    /// re-evaluates `S` or the Jacobi diagonal on the indirect one. The
    /// direct backend then skips the pre-test, whose only use there is to
    /// gate a check that runs anyway.
    ///
    /// The indirect backend's PCG tolerance is set to `PCG_TOL_START` on
    /// entry, so a re-solve without `reset` starts from the same tolerance
    /// as the first solve. It then halves at every regular check, and
    /// shrinks by `PCG_STALL_TIGHTEN` at every multiple of `PRETEST_EVERY`
    /// where the pre-test's ratio `step / bound` has not fallen since the
    /// previous one (floor `PCG_TOL_FLOOR`). On that backend the pre-test
    /// runs on every multiple of `PRETEST_EVERY`, regular ones included.
    pub(crate) fn iterate(
        &mut self,
        env: &mut Env,
        run: &Run,
        prof: &mut Profile,
        certificate: &mut Vec<f64>,
    ) -> (Status, usize, Option<Residuals>) {
        let tracing = run.tracing;
        let max_iter = env.settings.max_iter;
        let check_every = env.settings.check_termination;

        let mut status = Status::MaxIterations;
        let mut pcg_tol = PCG_TOL_START;
        let mut last_ratio = f64::INFINITY;
        let indirect = if let Kkt::Indirect(kkt) = &mut self.kkt {
            kkt.set_tolerance(pcg_tol);
            true
        } else {
            false
        };
        // Adaptive ρ: a full check, and an adaptation, at every multiple
        // of `PRETEST_EVERY`.
        let adapt = env.settings.adaptive_rho;
        let mut final_res: Option<Residuals> = None;
        let mut iterations = 0usize;
        // Telemetry delta: PCG iterations since the last per-iteration
        // record (untouched when tracing is off).
        let mut pcg_reported = prof.pcg_iters;

        let admm_span = mib_trace::span_if(tracing, "admm_loop", TraceCat::Solver);
        for k in 1..=max_iter {
            iterations = k;
            let kspans = run.sampled(k);
            {
                let _s = mib_trace::span_if(kspans, "stage_rhs", TraceCat::Kernel);
                self.stage_rhs(env, prof);
            }
            self.kkt.solve(&mut env.ws, prof);
            {
                let _s = mib_trace::span_if(kspans, "stage_ztilde", TraceCat::Kernel);
                self.stage_ztilde(env, prof);
            }
            {
                let _s = mib_trace::span_if(kspans, "stage_x_update", TraceCat::Kernel);
                self.stage_x_update(env, prof);
            }
            {
                let _s = mib_trace::span_if(kspans, "stage_z_projection", TraceCat::Kernel);
                self.stage_z_projection(env, prof);
            }
            {
                let _s = mib_trace::span_if(kspans, "stage_y_update", TraceCat::Kernel);
                self.stage_y_update(env, prof);
            }

            // Only regular checks and the indirect backend's pre-test
            // drive side effects (infeasibility, PCG tolerance); a
            // triggered check can only stop the solve, except that
            // adaptive ρ runs at every check.
            let regular = k % check_every == 0 || k == max_iter;
            let on_grid = k % PRETEST_EVERY == 0;
            let pretest = (on_grid && (indirect || !(regular || adapt)))
                .then(|| self.stage_pretest(env, prof));
            if let (Some((step, bound)), Kkt::Indirect(kkt)) = (pretest, &mut self.kkt) {
                // A primal step that stopped falling relative to its bound
                // means the inexact KKT solves stall ADMM: tighten PCG.
                let ratio = step / bound;
                if ratio >= last_ratio {
                    pcg_tol = (PCG_STALL_TIGHTEN * pcg_tol).max(PCG_TOL_FLOOR);
                    kkt.set_tolerance(pcg_tol);
                }
                last_ratio = ratio;
            }
            let triggered =
                !regular && on_grid && (adapt || pretest.is_some_and(|(step, bound)| step < bound));
            if regular || triggered {
                let res = {
                    let _s = mib_trace::span_if(kspans, "stage_residuals", TraceCat::Kernel);
                    self.stage_residuals(env, prof)
                };
                prof.checks += 1;
                if tracing {
                    // `res.prim`/`res.dual` are the exact values a
                    // terminating check writes into the result, so the
                    // last Iteration event matches the returned
                    // `SolveResult` residuals bitwise.
                    mib_trace::record_if(
                        true,
                        TraceEvent::Iteration {
                            algo: Algorithm::Admm.name(),
                            iter: u32::try_from(k).unwrap_or(u32::MAX),
                            prim_res: res.prim,
                            dual_res: res.dual,
                            rho: self.rho,
                            pcg_iters: u32::try_from(prof.pcg_iters - pcg_reported)
                                .unwrap_or(u32::MAX),
                        },
                    );
                    pcg_reported = prof.pcg_iters;
                }
                let eps_prim = env.settings.eps_abs + env.settings.eps_rel * res.prim_norm;
                let eps_dual = env.settings.eps_abs + env.settings.eps_rel * res.dual_norm;
                if res.prim < eps_prim && res.dual < eps_dual {
                    final_res = Some(res);
                    status = Status::Solved;
                    break;
                }
                if !triggered {
                    final_res = Some(res);
                    if self.check_primal_infeasible(env, prof) {
                        status = Status::PrimalInfeasible;
                        certificate.extend_from_slice(&env.ws.cert_y);
                        break;
                    }
                    if self.check_dual_infeasible(env, prof) {
                        status = Status::DualInfeasible;
                        certificate.extend_from_slice(&env.ws.cert_x);
                        break;
                    }
                    // Halve the PCG tolerance at every regular check, so
                    // the inner solves tighten even while the pre-test's
                    // step keeps falling.
                    if let Kkt::Indirect(kkt) = &mut self.kkt {
                        pcg_tol = (0.5 * pcg_tol).max(PCG_TOL_FLOOR);
                        kkt.set_tolerance(pcg_tol);
                    }
                }
                if adapt {
                    self.stage_adaptive_rho(env, &res, k, tracing, prof);
                }
            }
            if let Some(s) = run.interruption(k) {
                status = s;
                break;
            }
            prof.admm_iters = k;
        }
        drop(admm_span);
        (status, iterations, final_res)
    }

    /// Stage 1: build the KKT right-hand side
    /// `[σ xᵏ − q ; zᵏ − ρ⁻¹ yᵏ]` into `ws.rhs_x` / `ws.rhs_z`.
    fn stage_rhs(&self, env: &mut Env, prof: &mut Profile) {
        let ws = &mut env.ws;
        let sigma = env.settings.sigma;
        vector::sax_sub_into(&mut ws.rhs_x, sigma, &self.x, &env.q);
        vector::sub_prod_into(&mut ws.rhs_z, &self.z, &self.rho_inv_vec, &self.y);
        prof.add_vector((2 * self.x.len() + 2 * self.z.len()) as f64);
    }

    /// Stage 2 (after the KKT solve): `z̃ = z + ρ⁻¹(ν − y)` into
    /// `ws.ztilde`.
    fn stage_ztilde(&self, env: &mut Env, prof: &mut Profile) {
        let ws = &mut env.ws;
        vector::add_prod_diff_into(&mut ws.ztilde, &self.z, &self.rho_inv_vec, &ws.nu, &self.y);
        prof.add_vector(3.0 * self.z.len() as f64);
    }

    /// Stage 3: relaxed x-update `xᵏ⁺¹ = α x̃ + (1−α) xᵏ`, recording the
    /// step `δx` in `ws.delta_x`.
    fn stage_x_update(&mut self, env: &mut Env, prof: &mut Profile) {
        let ws = &mut env.ws;
        vector::relax_delta_into(&mut self.x, &mut ws.delta_x, ALPHA, &ws.xtilde);
        prof.add_vector(4.0 * self.x.len() as f64);
    }

    /// Stage 4: z-projection. Forms the relaxed iterate
    /// `α z̃ + (1−α) zᵏ` (kept in `ws.z_relaxed` for the y-update) and
    /// projects `z_relaxed + ρ⁻¹ yᵏ` onto `[l, u]`.
    fn stage_z_projection(&mut self, env: &mut Env, prof: &mut Profile) {
        let ws = &mut env.ws;
        vector::relax_project_into(
            &mut self.z,
            &mut ws.z_relaxed,
            ALPHA,
            &ws.ztilde,
            &self.rho_inv_vec,
            &self.y,
            &env.l,
            &env.u,
        );
        prof.add_vector(6.0 * self.z.len() as f64);
    }

    /// Stage 5: y-update `yᵏ⁺¹ = yᵏ + ρ (z_relaxed − zᵏ⁺¹)`, recording the
    /// step `δy` in `ws.delta_y`.
    fn stage_y_update(&mut self, env: &mut Env, prof: &mut Profile) {
        let ws = &mut env.ws;
        vector::scaled_diff_update_into(
            &mut self.y,
            &mut ws.delta_y,
            &self.rho_vec,
            &ws.z_relaxed,
            &self.z,
        );
        prof.add_vector(3.0 * self.y.len() as f64);
    }

    /// Convergence pre-test, one m-length pass after the y-update: returns
    /// the unscaled primal-residual step `‖E⁻¹(z_relaxed − zᵏ⁺¹)‖∞` (that
    /// is, `δy/ρ`) and its bound `eps_abs + eps_rel·‖E⁻¹ zᵏ⁺¹‖∞`. A step
    /// below the bound only earns a full
    /// [`stage_residuals`](Self::stage_residuals) check.
    fn stage_pretest(&self, env: &Env, prof: &mut Profile) -> (f64, f64) {
        let (step, norm) =
            vector::norm_inf_weighted_step(&env.scaling.einv, &env.ws.z_relaxed, &self.z);
        prof.add_vector(3.0 * self.z.len() as f64);
        (step, env.settings.eps_abs + env.settings.eps_rel * norm)
    }

    /// Stage 6: unscaled residuals and their normalization terms, staged
    /// through the workspace (`x_us`, `y_us`, `z_us`, `ax`, `px`, `aty`).
    fn stage_residuals(&self, env: &mut Env, prof: &mut Profile) -> Residuals {
        let ws = &mut env.ws;
        env.scaling.unscale_x_into(&self.x, &mut ws.x_us);
        env.scaling.unscale_y_into(&self.y, &mut ws.y_us);
        env.scaling.unscale_z_into(&self.z, &mut ws.z_us);
        env.residuals(false, prof)
    }

    /// Tests the primal infeasibility certificate on the unscaled `δy`.
    /// On success the certificate is left in `ws.cert_y`.
    fn check_primal_infeasible(&self, env: &mut Env, prof: &mut Profile) -> bool {
        let eps = EPS_PRIM_INF;
        let ws = &mut env.ws;
        // Unscale: δy = E δȳ / c.
        vector::prod_scale_into(
            &mut ws.cert_y,
            &ws.delta_y,
            &env.scaling.e,
            env.scaling.cinv,
        );
        let norm = vector::norm_inf(&ws.cert_y);
        if norm <= 0.0 {
            return false;
        }
        let a = env.orig.a();
        a.spmv_t_into(&ws.cert_y, &mut ws.aty);
        prof.add_spmv_col_elim(a.nnz());
        if vector::norm_inf(&ws.aty) > eps * norm {
            return false;
        }
        // Support function: uᵀ(δy)₊ + lᵀ(δy)₋ must be certifiably negative.
        // Infinite bounds (±1e30) make the sum astronomically positive when
        // the corresponding component has the wrong sign, failing the test
        // exactly as intended.
        let mut lhs = 0.0;
        for (i, &d) in ws.cert_y.iter().enumerate() {
            if d > 0.0 {
                lhs += env.orig.u()[i] * d;
            } else if d < 0.0 {
                lhs += env.orig.l()[i] * d;
            }
        }
        prof.add_vector(2.0 * ws.cert_y.len() as f64);
        lhs <= -eps * norm
    }

    /// Tests the dual infeasibility certificate on the unscaled `δx`.
    /// On success the certificate is left in `ws.cert_x`.
    fn check_dual_infeasible(&self, env: &mut Env, prof: &mut Profile) -> bool {
        let eps = EPS_DUAL_INF;
        let ws = &mut env.ws;
        vector::ew_prod_into(&mut ws.cert_x, &ws.delta_x, &env.scaling.d);
        let norm = vector::norm_inf(&ws.cert_x);
        if norm <= 0.0 {
            return false;
        }
        let p = env.orig.p();
        p.sym_upper_mul_vec_into(&ws.cert_x, &mut ws.px);
        prof.add_spmv_mac(2 * p.nnz());
        if vector::norm_inf(&ws.px) > eps * norm {
            return false;
        }
        if vector::dot(env.orig.q(), &ws.cert_x) > -eps * norm {
            return false;
        }
        let a = env.orig.a();
        a.spmv_into(&ws.cert_x, &mut ws.ax);
        prof.add_spmv_mac(a.nnz());
        prof.add_vector(2.0 * ws.cert_x.len() as f64);
        for (i, &v) in ws.ax.iter().enumerate() {
            let u_inf = env.orig.u()[i] >= INFTY;
            let l_inf = env.orig.l()[i] <= -INFTY;
            let ok = match (l_inf, u_inf) {
                (true, true) => true,
                (false, true) => v >= -eps * norm,
                (true, false) => v <= eps * norm,
                (false, false) => v.abs() <= eps * norm,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Stage 7: the OSQP adaptive-ρ rule at iteration `k`, rebuilding the
    /// `ρ` vectors in place if the residual balance of `res` warrants it
    /// and recording the change as a `RhoUpdate` trace event.
    fn stage_adaptive_rho(
        &mut self,
        env: &Env,
        res: &Residuals,
        k: usize,
        tracing: bool,
        prof: &mut Profile,
    ) {
        let prim_rel = res.prim / res.prim_norm.max(1e-12);
        let dual_rel = res.dual / res.dual_norm.max(1e-12);
        if prim_rel <= 0.0 || dual_rel <= 0.0 {
            return;
        }
        let rho_new = (self.rho * (prim_rel / dual_rel).sqrt())
            .clamp(env.settings.rho_min, env.settings.rho_max);
        let tol = ADAPTIVE_RHO_TOLERANCE;
        if rho_new > self.rho * tol || rho_new < self.rho / tol {
            let rho_old = self.rho;
            self.rho = rho_new;
            build_rho_vec_into(
                &env.settings,
                rho_new,
                &env.l,
                &env.u,
                &mut self.rho_vec,
                &mut self.rho_inv_vec,
            );
            if self.kkt.update_rho(&self.rho_vec, prof).is_ok() {
                prof.rho_updates += 1;
            }
            mib_trace::record_if(
                tracing,
                TraceEvent::RhoUpdate {
                    iter: u32::try_from(k).unwrap_or(u32::MAX),
                    rho_old,
                    rho_new,
                },
            );
        }
    }
}

/// Builds the per-constraint step sizes: equality rows get
/// `ρ · rho_eq_scale`, loose rows get `rho_min`, everything else `ρ`.
fn build_rho_vec(settings: &Settings, rho: f64, l: &[f64], u: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut rho_vec = vec![0.0; l.len()];
    let mut rho_inv_vec = vec![0.0; l.len()];
    build_rho_vec_into(settings, rho, l, u, &mut rho_vec, &mut rho_inv_vec);
    (rho_vec, rho_inv_vec)
}

/// In-place form of [`build_rho_vec`], used on the allocation-free
/// adaptive-ρ path.
fn build_rho_vec_into(
    settings: &Settings,
    rho: f64,
    l: &[f64],
    u: &[f64],
    rho_vec: &mut [f64],
    rho_inv_vec: &mut [f64],
) {
    for (i, (&lo, &hi)) in l.iter().zip(u).enumerate() {
        let r = rho_for(settings, rho, lo, hi);
        rho_vec[i] = r;
        rho_inv_vec[i] = 1.0 / r;
    }
}

/// Step size of a constraint row with bounds `[lo, hi]` when the scalar
/// step is `rho` (OSQP's rule): a row without bounds gets `rho_min`, an
/// equality row `rho · rho_eq_scale` clamped to `[rho_min, rho_max]`, and
/// any other row `rho`. The one definition of the rule: the solver and the
/// MIB compiler both build their `ρ` vectors from it.
pub fn rho_for(settings: &Settings, rho: f64, lo: f64, hi: f64) -> f64 {
    if lo <= -INFTY && hi >= INFTY {
        settings.rho_min
    } else if lo == hi {
        (rho * settings.rho_eq_scale).clamp(settings.rho_min, settings.rho_max)
    } else {
        rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Algo;
    use crate::{Problem, Solver};

    fn staged_solver() -> (Admm, Env) {
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
        // Keep stage arithmetic easy to verify: no scaling.
        let s = Settings {
            scaling_iters: 0,
            ..Settings::default()
        };
        let Solver {
            env,
            algo: Algo::Admm(admm),
            ..
        } = Solver::new(problem, s).unwrap()
        else {
            unreachable!("the default algorithm is ADMM")
        };
        (admm, env)
    }

    #[test]
    fn stage_rhs_builds_kkt_rhs() {
        let (mut solver, mut env) = staged_solver();
        solver.x.copy_from_slice(&[0.5, -0.25]);
        solver.z.copy_from_slice(&[0.1, 0.2, 0.3]);
        solver.y.copy_from_slice(&[1.0, -1.0, 0.5]);
        let mut prof = Profile::default();
        solver.stage_rhs(&mut env, &mut prof);
        let sigma = env.settings.sigma;
        for j in 0..2 {
            let want = sigma * solver.x[j] - env.q[j];
            assert_eq!(env.ws.rhs_x[j], want);
        }
        for i in 0..3 {
            let want = solver.z[i] - solver.rho_inv_vec[i] * solver.y[i];
            assert_eq!(env.ws.rhs_z[i], want);
        }
        assert!(prof.ops.elementwise > 0.0);
    }

    #[test]
    fn stage_x_update_applies_relaxation() {
        let (mut solver, mut env) = staged_solver();
        solver.x.copy_from_slice(&[1.0, 2.0]);
        env.ws.xtilde.copy_from_slice(&[3.0, -2.0]);
        let mut prof = Profile::default();
        solver.stage_x_update(&mut env, &mut prof);
        for j in 0..2 {
            let x_old = [1.0, 2.0][j];
            let want = ALPHA * env.ws.xtilde[j] + (1.0 - ALPHA) * x_old;
            assert_eq!(solver.x[j], want);
            assert_eq!(env.ws.delta_x[j], want - x_old);
        }
    }

    #[test]
    fn z_projection_then_y_update_matches_fused_reference() {
        let (mut solver, mut env) = staged_solver();
        let z0 = [0.9, -0.4, 0.85];
        let y0 = [0.3, -0.6, 0.0];
        let ztilde = [1.5, 0.1, -0.2];
        solver.z.copy_from_slice(&z0);
        solver.y.copy_from_slice(&y0);
        env.ws.ztilde.copy_from_slice(&ztilde);
        let mut prof = Profile::default();
        solver.stage_z_projection(&mut env, &mut prof);
        solver.stage_y_update(&mut env, &mut prof);
        // Reference: the fused per-element update.
        for i in 0..3 {
            let z_relaxed = ALPHA * ztilde[i] + (1.0 - ALPHA) * z0[i];
            let w = z_relaxed + solver.rho_inv_vec[i] * y0[i];
            let z_new = w.max(env.l[i]).min(env.u[i]);
            let y_new = y0[i] + solver.rho_vec[i] * (z_relaxed - z_new);
            assert_eq!(solver.z[i], z_new, "z[{i}]");
            assert_eq!(solver.y[i], y_new, "y[{i}]");
            assert_eq!(env.ws.delta_y[i], y_new - y0[i], "delta_y[{i}]");
        }
    }

    #[test]
    fn stage_residuals_matches_direct_computation() {
        let (mut solver, mut env) = staged_solver();
        solver.x.copy_from_slice(&[0.4, 0.2]);
        solver.z.copy_from_slice(&[0.6, 0.4, 0.2]);
        solver.y.copy_from_slice(&[0.1, 0.0, -0.1]);
        let mut prof = Profile::default();
        let res = solver.stage_residuals(&mut env, &mut prof);
        // With identity scaling the unscaled iterates are the iterates.
        let a = env.orig.a();
        let ax = a.mul_vec(&[0.4, 0.2]);
        let prim = vector::norm_inf_diff(&ax, &[0.6, 0.4, 0.2]);
        assert_eq!(res.prim, prim);
        let px = env.orig.p().sym_upper_mul_vec(&[0.4, 0.2]);
        let aty = a.tr_mul_vec(&[0.1, 0.0, -0.1]);
        let mut dual = 0.0f64;
        for j in 0..2 {
            dual = dual.max((px[j] + env.orig.q()[j] + aty[j]).abs());
        }
        assert_eq!(res.dual, dual);
    }

    /// A re-solve without `reset` on the indirect backend starts PCG at
    /// `PCG_TOL_START`, not at the tolerance the previous solve tightened
    /// to: it follows the trajectory of a clone whose backend was put
    /// back at the start tolerance by hand.
    #[test]
    fn resolve_without_reset_restarts_the_pcg_tolerance() {
        let p = CscMatrix::from_dense(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 5.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(
            4,
            3,
            &[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        );
        let problem = Problem::new(
            p,
            vec![-1.0, 2.0, -3.0],
            a,
            vec![1.0, -0.2, -0.2, -0.2],
            vec![1.0, 0.6, 0.6, 0.6],
        )
        .unwrap();
        let settings = Settings {
            eps_abs: 1e-7,
            eps_rel: 1e-7,
            ..Settings::with_backend(crate::KktBackend::Indirect)
        };
        let mut solver = Solver::new(problem, settings).unwrap();
        let first = solver.solve();
        assert_eq!(first.status, Status::Solved);
        assert!(
            first.iterations > 25,
            "the first solve must reach a regular check, which tightens PCG"
        );
        solver.update_q(&[2.0, -1.0, 1.0]).unwrap();
        let mut by_hand = solver.clone();
        let Algo::Admm(Admm {
            kkt: Kkt::Indirect(kkt),
            ..
        }) = &mut by_hand.algo
        else {
            unreachable!("an indirect ADMM solver")
        };
        kkt.set_tolerance(PCG_TOL_START);
        let resolved = solver.solve();
        let reference = by_hand.solve();
        assert_eq!(resolved.status, Status::Solved);
        assert_eq!(resolved.x, reference.x);
        assert_eq!(resolved.iterations, reference.iterations);
        assert_eq!(resolved.profile.pcg_iters, reference.profile.pcg_iters);
    }

    #[test]
    fn build_rho_vec_into_matches_allocating() {
        let s = Settings::default();
        let l = [-2e30, 1.0, 0.0];
        let u = [2e30, 1.0, 5.0];
        let (rv, riv) = build_rho_vec(&s, 0.25, &l, &u);
        assert_eq!(rv[0], s.rho_min, "loose row");
        assert_eq!(
            rv[1],
            (0.25 * s.rho_eq_scale).clamp(s.rho_min, s.rho_max),
            "equality row"
        );
        assert_eq!(rv[2], 0.25, "inequality row");
        for (a, b) in rv.iter().zip(&riv) {
            assert_eq!(*b, 1.0 / *a);
        }
    }
}
