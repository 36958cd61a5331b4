//! The ADMM backend (Algorithm 1 of the paper), behind [`QpBackend`].
//!
//! This module is the former `solver.rs` iteration core, moved verbatim
//! behind the trait boundary: the arithmetic, stage order and adaptive-ρ
//! logic are untouched, so the iterates remain **bitwise identical** to
//! the pre-trait solver's (the pre-test-triggered checks of
//! [`AdmmSolver::solve_into`] may only stop it sooner). The public entry
//! point is the
//! [`Solver`](crate::Solver) facade, which boxes an [`AdmmSolver`] when
//! [`Settings::algorithm`](crate::Settings) is [`Algorithm::Admm`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mib_sparse::vector;
use mib_trace::{Category as TraceCat, Event as TraceEvent};

use crate::backend::{Algorithm, QpBackend};
use crate::linsys::{DirectKkt, IndirectKkt, KktSolver};
use crate::profile::Profile;
use crate::scaling::{ruiz_equilibrate, Scaling};
use crate::workspace::SolveWorkspace;
use crate::{KktBackend, Problem, Result, Settings, SolveResult, Status, INFTY};

/// Iteration stride of the convergence pre-test between regular
/// termination checks (see [`AdmmSolver::solve_into`]).
const PRETEST_EVERY: usize = 5;

/// The ADMM QP solver (Algorithm 1 of the paper).
///
/// An `AdmmSolver` owns a scaled copy of the problem, the selected KKT
/// backend, the current iterates and a [`SolveWorkspace`] holding every
/// scratch vector the iteration needs; after [`AdmmSolver::new`] returns,
/// a call to `solve_into` performs **no heap allocation**. Repeated solves
/// warm-start from the previous solution, and the parametric update
/// methods (`update_q`, `update_bounds`) support the "millions of QPs with
/// the same sparsity pattern" workflow the paper's portfolio example
/// describes without re-running setup.
///
/// The iteration is decomposed into named stages — `stage_rhs`,
/// `stage_ztilde`, `stage_x_update`, `stage_z_projection`,
/// `stage_y_update`, `stage_pretest`, `stage_residuals`,
/// `stage_adaptive_rho` — each of
/// which reads and writes well-defined workspace buffers, so they are
/// testable in isolation. All but `stage_pretest` map one-to-one onto the
/// schedule fragments the MIB compiler emits; the pre-test has no
/// fragment, and the MIB cycle model does not charge it.
#[derive(Debug)]
pub struct AdmmSolver {
    settings: Settings,
    /// Original (unscaled) problem, used for residuals and certificates.
    orig: Problem,
    // Scaled data.
    q: Vec<f64>,
    l: Vec<f64>,
    u: Vec<f64>,
    scaling: Scaling,
    rho: f64,
    rho_vec: Vec<f64>,
    rho_inv_vec: Vec<f64>,
    kkt: Box<dyn KktSolver>,
    // Scaled iterates.
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    ws: SolveWorkspace,
    profile: Profile,
    /// External cancellation flag, polled every `check_interval` iterations.
    cancel: Option<Arc<AtomicBool>>,
    /// External absolute deadline (combined with `settings.time_limit`).
    deadline: Option<Instant>,
}

impl Clone for AdmmSolver {
    fn clone(&self) -> Self {
        AdmmSolver {
            settings: self.settings.clone(),
            orig: self.orig.clone(),
            q: self.q.clone(),
            l: self.l.clone(),
            u: self.u.clone(),
            scaling: self.scaling.clone(),
            rho: self.rho,
            rho_vec: self.rho_vec.clone(),
            rho_inv_vec: self.rho_inv_vec.clone(),
            kkt: self.kkt.clone_box(),
            x: self.x.clone(),
            y: self.y.clone(),
            z: self.z.clone(),
            ws: self.ws.clone(),
            profile: self.profile,
            cancel: self.cancel.clone(),
            deadline: self.deadline,
        }
    }
}

/// Residual snapshot used by termination and adaptive-ρ logic.
#[derive(Debug, Clone, Copy)]
struct Residuals {
    prim: f64,
    dual: f64,
    prim_norm: f64,
    dual_norm: f64,
}

impl AdmmSolver {
    /// Sets up the solver: validates settings, equilibrates the problem,
    /// builds the `ρ` vector and the KKT backend.
    ///
    /// # Errors
    ///
    /// Returns setting/problem validation errors or
    /// [`QpError::KktFactorization`] if the initial factorization fails.
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

        let (rho_vec, rho_inv_vec) = build_rho_vec(&settings, settings.rho, &l, &u);

        let mut profile = Profile::default();
        let kkt_setup_span = mib_trace::span_if(tracing, "kkt_setup", TraceCat::Kkt);
        let kkt: Box<dyn KktSolver> = match settings.backend {
            KktBackend::Direct => Box::new(DirectKkt::new(
                &p,
                &a,
                settings.sigma,
                &rho_vec,
                &mut profile,
            )?),
            KktBackend::Indirect => Box::new(IndirectKkt::new(
                &p,
                &a,
                settings.sigma,
                &rho_vec,
                settings.eps_pcg_start,
                settings.eps_pcg_min,
                settings.max_pcg_iter,
            )),
        };
        drop(kkt_setup_span);

        // `p`/`a` move into nothing — the backends clone what they need; we
        // keep the scaled P/A inside the backend only, and original copies
        // in `orig`. q/l/u stay here because updates and projections use them.
        drop(p);
        drop(a);

        Ok(AdmmSolver {
            settings,
            orig: problem,
            q,
            l,
            u,
            scaling,
            rho: 0.1,
            rho_vec,
            rho_inv_vec,
            kkt,
            x: vec![0.0; n],
            y: vec![0.0; m],
            z: vec![0.0; m],
            ws: SolveWorkspace::new(n, m),
            profile,
            cancel: None,
            deadline: None,
        })
        .map(|mut s| {
            s.rho = s.settings.rho;
            s
        })
    }

    /// The current base step size `ρ`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Warm-starts the iterates from an (unscaled) primal/dual guess.
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
        // z = A x in the scaled space is re-established by the first
        // iteration; initialize with the projection of the current guess.
        self.orig.a().mul_vec_into(x, &mut self.ws.ax);
        for (i, zs) in self.z.iter_mut().enumerate() {
            *zs = self.ws.ax[i] * self.scaling.e[i];
        }
    }

    /// Resets the solver to its post-setup state: zero iterates, initial
    /// `ρ`, no warm-start memory in the backend. After `reset`, a solve
    /// reproduces the very first solve of a freshly constructed solver
    /// bitwise. [`BatchSolver`](crate::BatchSolver) relies on this to make
    /// parallel and sequential batch runs identical.
    ///
    /// The `ρ` vector is rebuilt from the *current* bounds, so the reset
    /// state is a pure function of the current problem data — a pooled
    /// solver that served other parameters first reaches bitwise the same
    /// state as a fresh clone of its template with the same updates
    /// applied, even when a bounds update changed a constraint's
    /// loose/equality/inequality classification.
    pub fn reset(&mut self) {
        self.x.fill(0.0);
        self.y.fill(0.0);
        self.z.fill(0.0);
        self.kkt.reset();
        self.rho = self.settings.rho;
        // Rebuild only when some entry actually changes (classification
        // drift or a previous adaptive-ρ run); `rho_vec` always mirrors the
        // value the KKT backend was last updated with, so an unchanged
        // vector needs no refactorization.
        let changed = self
            .l
            .iter()
            .zip(&self.u)
            .zip(&self.rho_vec)
            .any(|((&lo, &hi), &r)| rho_for(&self.settings, self.rho, lo, hi) != r);
        if changed {
            build_rho_vec_into(
                &self.settings,
                self.rho,
                &self.l,
                &self.u,
                &mut self.rho_vec,
                &mut self.rho_inv_vec,
            );
            // Counted nowhere: `profile` stays the work of `new`, so a
            // pooled solver's solve reports what a fresh clone's would,
            // not a running total of the resets before it.
            let _ = self.kkt.update_rho(&self.rho_vec, &mut Profile::default());
        }
    }

    /// Replaces the linear cost `q` (same dimensions), preserving scaling.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`] on length mismatch or non-finite
    /// entries.
    pub fn update_q(&mut self, q: &[f64]) -> Result<()> {
        self.orig.set_q(q)?;
        self.scaling.scale_q_into(q, &mut self.q);
        Ok(())
    }

    /// Replaces the bounds `l`, `u` (same dimensions), preserving scaling.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`] if any `l[i] > u[i]` or lengths
    /// mismatch.
    pub fn update_bounds(&mut self, l: &[f64], u: &[f64]) -> Result<()> {
        self.orig.set_bounds(l, u)?;
        self.scaling.scale_bounds_into(l, &mut self.l);
        self.scaling.scale_bounds_into(u, &mut self.u);
        Ok(())
    }

    /// Runs the ADMM iteration, writing the outcome into an existing
    /// [`SolveResult`]. When `result` comes from a previous solve of the
    /// same problem dimensions, this performs **zero heap allocations** on
    /// feasible problems — the property the repository's counting-allocator
    /// test pins down. (Infeasible exits clone the certificate vector.)
    ///
    /// The full termination check runs every `check_termination`
    /// iterations, and also on any multiple of `PRETEST_EVERY` (5) where
    /// the cheap [`stage_pretest`](Self::stage_pretest) passes. A
    /// triggered check can only stop the solve as `Solved` — it reads
    /// the iterates and writes nothing but residual scratch — so a solve
    /// follows the same iterate sequence as with regular checks alone and
    /// stops at or before the same iteration.
    pub fn solve_into(&mut self, result: &mut SolveResult) {
        let start = Instant::now();
        // The solve's only read of the tracing flag: spans and events below
        // are gated on this hoisted bool, so the disabled-mode cost of the
        // whole instrumented solve is this one relaxed atomic load.
        let tracing = mib_trace::enabled();
        // Opt-in per-stage kernel spans (several per iteration), hoisted
        // like `tracing` so the disabled cost is one more relaxed load.
        let ktrace = mib_trace::kernel_spans();
        // Iteration stride for per-iteration detail (stage spans and the
        // KKT timestamp pair): 1 records every iteration exactly; the
        // serving plane raises it so always-on tracing samples instead.
        let kstride = usize::try_from(mib_trace::kernel_span_stride()).unwrap_or(usize::MAX);
        let _solve_span = mib_trace::span_if(tracing, "solve", TraceCat::Solver);
        // Keep setup factorization work, reset per-solve counters.
        let mut prof = self.profile;
        prof.admm_iters = 0;

        let n = self.x.len();
        let m = self.y.len();
        let max_iter = self.settings.max_iter;
        let check_every = self.settings.check_termination;
        // Round the adaptive interval up to a multiple of the termination
        // check so fresh residuals are always available.
        let adapt_every = self
            .settings
            .adaptive_rho_interval
            .div_ceil(check_every)
            .max(1)
            * check_every;

        result.x.resize(n, 0.0);
        result.y.resize(m, 0.0);
        result.z.resize(m, 0.0);
        result.certificate.clear();

        // Effective deadline: the earlier of the per-solve time limit and
        // the externally installed absolute deadline.
        let deadline = match (self.settings.time_limit.map(|d| start + d), self.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let check_interval = self.settings.check_interval;

        let mut status = Status::MaxIterations;
        let mut pcg_tol = self.settings.eps_pcg_start;
        let mut final_res: Option<Residuals> = None;
        let mut iterations = 0usize;
        // Telemetry deltas: KKT time and PCG iterations since the last
        // per-iteration record (both stay untouched when tracing is off).
        let mut kkt_ns_total: u64 = 0;
        let mut kkt_ns_reported: u64 = 0;
        let mut pcg_reported = prof.pcg_iters;

        // A request may arrive already cancelled or past its deadline.
        if let Some(s) = self.interruption(deadline) {
            status = s;
        }
        let admm_span = mib_trace::span_if(tracing, "admm_loop", TraceCat::Solver);
        for k in 1..=max_iter {
            if status != Status::MaxIterations {
                break;
            }
            iterations = k;
            // Per-iteration detail is sampled at the kernel stride; with
            // the default stride of 1 every iteration records, so the
            // attribution harnesses keep exact stage totals.
            let sampled = k == 1 || k % kstride == 0;
            let kdetail = ktrace && sampled;
            {
                let _s = mib_trace::span_if(kdetail, "stage_rhs", TraceCat::Kernel);
                self.stage_rhs(&mut prof);
            }
            let kkt_start = if tracing && sampled {
                Some(Instant::now())
            } else {
                None
            };
            let kkt_failed = self.kkt.solve(&mut self.ws, &mut prof).is_err();
            if let Some(t0) = kkt_start {
                kkt_ns_total += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            if kkt_failed {
                // Factorization failures cannot occur mid-run (pattern and
                // quasi-definiteness are fixed); treat defensively as a stall.
                break;
            }
            {
                let _s = mib_trace::span_if(kdetail, "stage_ztilde", TraceCat::Kernel);
                self.stage_ztilde(&mut prof);
            }
            {
                let _s = mib_trace::span_if(kdetail, "stage_x_update", TraceCat::Kernel);
                self.stage_x_update(&mut prof);
            }
            {
                let _s = mib_trace::span_if(kdetail, "stage_z_projection", TraceCat::Kernel);
                self.stage_z_projection(&mut prof);
            }
            {
                let _s = mib_trace::span_if(kdetail, "stage_y_update", TraceCat::Kernel);
                self.stage_y_update(&mut prof);
            }

            // Only regular checks drive side effects (infeasibility, PCG
            // tolerance, adaptive ρ); a triggered one can only stop the solve.
            let regular = k % check_every == 0 || k == max_iter;
            let triggered = !regular && k % PRETEST_EVERY == 0 && self.stage_pretest(&mut prof);
            if regular || triggered {
                let res = {
                    let _s = mib_trace::span_if(kdetail, "stage_residuals", TraceCat::Kernel);
                    self.stage_residuals(&mut prof)
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
                            kkt_ns: kkt_ns_total - kkt_ns_reported,
                        },
                    );
                    pcg_reported = prof.pcg_iters;
                    kkt_ns_reported = kkt_ns_total;
                }
                let eps_prim = self.settings.eps_abs + self.settings.eps_rel * res.prim_norm;
                let eps_dual = self.settings.eps_abs + self.settings.eps_rel * res.dual_norm;
                if res.prim < eps_prim && res.dual < eps_dual {
                    final_res = Some(res);
                    status = Status::Solved;
                    break;
                }
                if !triggered {
                    final_res = Some(res);
                    if self.check_primal_infeasible(&mut prof) {
                        status = Status::PrimalInfeasible;
                        result.certificate.extend_from_slice(&self.ws.cert_y);
                        break;
                    }
                    if self.check_dual_infeasible(&mut prof) {
                        status = Status::DualInfeasible;
                        result.certificate.extend_from_slice(&self.ws.cert_x);
                        break;
                    }
                    // Adaptive PCG tolerance: tighten as the ADMM residuals
                    // fall, and halve unconditionally at every check so a
                    // stalled outer loop (caused by inexact inner solves)
                    // always escapes.
                    if self.kkt.backend() == KktBackend::Indirect {
                        let target = 0.15
                            * (res.prim / res.prim_norm.max(1e-12) * res.dual
                                / res.dual_norm.max(1e-12))
                            .sqrt();
                        pcg_tol = (0.5 * pcg_tol).min(target).max(1e-9);
                        self.kkt.set_tolerance(pcg_tol);
                    }
                    if self.settings.adaptive_rho && k % adapt_every == 0 {
                        let rho_before = self.rho;
                        let res = self.stage_adaptive_rho(res, &mut prof);
                        final_res = Some(res);
                        if tracing && self.rho.to_bits() != rho_before.to_bits() {
                            mib_trace::record_if(
                                true,
                                TraceEvent::RhoUpdate {
                                    iter: u32::try_from(k).unwrap_or(u32::MAX),
                                    rho_old: rho_before,
                                    rho_new: self.rho,
                                },
                            );
                        }
                    }
                }
            }
            // Interruption boundary: cancellation and deadline polls live
            // on their own interval so latency-sensitive callers can react
            // faster than the (costlier) termination check. The poll reads
            // no iterate state, so it cannot perturb a run that finishes.
            if k % check_interval == 0 {
                if let Some(s) = self.interruption(deadline) {
                    status = s;
                    break;
                }
            }
            prof.admm_iters = k;
        }
        drop(admm_span);

        // Unscale the solution directly into the result buffers.
        self.scaling.unscale_x_into(&self.x, &mut result.x);
        self.scaling.unscale_y_into(&self.y, &mut result.y);
        self.scaling.unscale_z_into(&self.z, &mut result.z);
        let res = final_res.unwrap_or(Residuals {
            prim: f64::INFINITY,
            dual: f64::INFINITY,
            prim_norm: 1.0,
            dual_norm: 1.0,
        });
        // obj = ½ xᵀPx + qᵀx, with Px staged through the workspace.
        self.orig
            .p()
            .sym_upper_mul_vec_into(&result.x, &mut self.ws.px);
        let obj_val =
            0.5 * vector::dot(&result.x, &self.ws.px) + vector::dot(self.orig.q(), &result.x);

        result.status = status;
        result.algorithm = Algorithm::Admm;
        result.obj_val = obj_val;
        result.prim_res = res.prim;
        result.dual_res = res.dual;
        result.iterations = iterations;
        result.profile = prof;
        result.solve_time = start.elapsed();
    }

    /// Polls the external cancellation flag and the effective deadline.
    /// Cancellation wins over timeout when both fire in the same window.
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

    /// Stage 1: build the KKT right-hand side
    /// `[σ xᵏ − q ; zᵏ − ρ⁻¹ yᵏ]` into `ws.rhs_x` / `ws.rhs_z`.
    fn stage_rhs(&mut self, prof: &mut Profile) {
        let ws = &mut self.ws;
        let sigma = self.settings.sigma;
        vector::sax_sub_into(&mut ws.rhs_x, sigma, &self.x, &self.q);
        vector::sub_prod_into(&mut ws.rhs_z, &self.z, &self.rho_inv_vec, &self.y);
        prof.add_vector((2 * self.x.len() + 2 * self.z.len()) as f64);
    }

    /// Stage 2 (after the KKT solve): `z̃ = z + ρ⁻¹(ν − y)` into
    /// `ws.ztilde`.
    fn stage_ztilde(&mut self, prof: &mut Profile) {
        let ws = &mut self.ws;
        vector::add_prod_diff_into(&mut ws.ztilde, &self.z, &self.rho_inv_vec, &ws.nu, &self.y);
        prof.add_vector(3.0 * self.z.len() as f64);
    }

    /// Stage 3: relaxed x-update `xᵏ⁺¹ = α x̃ + (1−α) xᵏ`, recording the
    /// step `δx` in `ws.delta_x`.
    fn stage_x_update(&mut self, prof: &mut Profile) {
        let ws = &mut self.ws;
        let alpha = self.settings.alpha;
        vector::relax_delta_into(&mut self.x, &mut ws.delta_x, alpha, &ws.xtilde);
        prof.add_vector(4.0 * self.x.len() as f64);
    }

    /// Stage 4: z-projection. Forms the relaxed iterate
    /// `α z̃ + (1−α) zᵏ` (kept in `ws.z_relaxed` for the y-update) and
    /// projects `z_relaxed + ρ⁻¹ yᵏ` onto `[l, u]`.
    fn stage_z_projection(&mut self, prof: &mut Profile) {
        let ws = &mut self.ws;
        let alpha = self.settings.alpha;
        vector::relax_project_into(
            &mut self.z,
            &mut ws.z_relaxed,
            alpha,
            &ws.ztilde,
            &self.rho_inv_vec,
            &self.y,
            &self.l,
            &self.u,
        );
        prof.add_vector(6.0 * self.z.len() as f64);
    }

    /// Stage 5: y-update `yᵏ⁺¹ = yᵏ + ρ (z_relaxed − zᵏ⁺¹)`, recording the
    /// step `δy` in `ws.delta_y`.
    fn stage_y_update(&mut self, prof: &mut Profile) {
        let ws = &mut self.ws;
        vector::scaled_diff_update_into(
            &mut self.y,
            &mut ws.delta_y,
            &self.rho_vec,
            &ws.z_relaxed,
            &self.z,
        );
        prof.add_vector(3.0 * self.y.len() as f64);
    }

    /// Convergence pre-test, one m-length pass after the y-update: the
    /// unscaled primal-residual step `‖E⁻¹(z_relaxed − zᵏ⁺¹)‖∞` (that is,
    /// `δy/ρ`) against `eps_abs + eps_rel·‖E⁻¹ zᵏ⁺¹‖∞`. Passing only earns
    /// a full [`stage_residuals`](Self::stage_residuals) check.
    fn stage_pretest(&self, prof: &mut Profile) -> bool {
        let (step, norm) =
            vector::norm_inf_weighted_step(&self.scaling.einv, &self.ws.z_relaxed, &self.z);
        prof.add_vector(3.0 * self.z.len() as f64);
        step < self.settings.eps_abs + self.settings.eps_rel * norm
    }

    /// Stage 6: unscaled residuals and their normalization terms, staged
    /// through the workspace (`x_us`, `y_us`, `z_us`, `ax`, `px`, `aty`).
    fn stage_residuals(&mut self, prof: &mut Profile) -> Residuals {
        let ws = &mut self.ws;
        self.scaling.unscale_x_into(&self.x, &mut ws.x_us);
        self.scaling.unscale_y_into(&self.y, &mut ws.y_us);
        self.scaling.unscale_z_into(&self.z, &mut ws.z_us);
        let a = self.orig.a();
        let p = self.orig.p();

        a.mul_vec_into(&ws.x_us, &mut ws.ax);
        prof.add_spmv_mac(a.nnz());
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

    /// Tests the primal infeasibility certificate on the unscaled `δy`.
    /// On success the certificate is left in `ws.cert_y`.
    fn check_primal_infeasible(&mut self, prof: &mut Profile) -> bool {
        let eps = self.settings.eps_prim_inf;
        let ws = &mut self.ws;
        // Unscale: δy = E δȳ / c.
        vector::prod_scale_into(
            &mut ws.cert_y,
            &ws.delta_y,
            &self.scaling.e,
            self.scaling.cinv,
        );
        let norm = vector::norm_inf(&ws.cert_y);
        if norm <= 0.0 {
            return false;
        }
        let a = self.orig.a();
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
                lhs += self.orig.u()[i] * d;
            } else if d < 0.0 {
                lhs += self.orig.l()[i] * d;
            }
        }
        prof.add_vector(2.0 * ws.cert_y.len() as f64);
        lhs <= -eps * norm
    }

    /// Tests the dual infeasibility certificate on the unscaled `δx`.
    /// On success the certificate is left in `ws.cert_x`.
    fn check_dual_infeasible(&mut self, prof: &mut Profile) -> bool {
        let eps = self.settings.eps_dual_inf;
        let ws = &mut self.ws;
        vector::ew_prod_into(&mut ws.cert_x, &ws.delta_x, &self.scaling.d);
        let norm = vector::norm_inf(&ws.cert_x);
        if norm <= 0.0 {
            return false;
        }
        let p = self.orig.p();
        p.sym_upper_mul_vec_into(&ws.cert_x, &mut ws.px);
        prof.add_spmv_mac(2 * p.nnz());
        if vector::norm_inf(&ws.px) > eps * norm {
            return false;
        }
        if vector::dot(self.orig.q(), &ws.cert_x) > -eps * norm {
            return false;
        }
        let a = self.orig.a();
        a.mul_vec_into(&ws.cert_x, &mut ws.ax);
        prof.add_spmv_mac(a.nnz());
        prof.add_vector(2.0 * ws.cert_x.len() as f64);
        for (i, &v) in ws.ax.iter().enumerate() {
            let u_inf = self.orig.u()[i] >= INFTY;
            let l_inf = self.orig.l()[i] <= -INFTY;
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

    /// Stage 7: the OSQP adaptive-ρ rule, rebuilding the `ρ` vectors in
    /// place if the residual balance warrants it. Returns the residuals
    /// (unchanged) for the caller to keep as the latest snapshot.
    fn stage_adaptive_rho(&mut self, res: Residuals, prof: &mut Profile) -> Residuals {
        let prim_rel = res.prim / res.prim_norm.max(1e-12);
        let dual_rel = res.dual / res.dual_norm.max(1e-12);
        if prim_rel <= 0.0 || dual_rel <= 0.0 {
            return res;
        }
        let rho_new = (self.rho * (prim_rel / dual_rel).sqrt())
            .clamp(self.settings.rho_min, self.settings.rho_max);
        let tol = self.settings.adaptive_rho_tolerance;
        if rho_new > self.rho * tol || rho_new < self.rho / tol {
            self.rho = rho_new;
            build_rho_vec_into(
                &self.settings,
                rho_new,
                &self.l,
                &self.u,
                &mut self.rho_vec,
                &mut self.rho_inv_vec,
            );
            if self.kkt.update_rho(&self.rho_vec, prof).is_ok() {
                prof.rho_updates += 1;
            }
        }
        res
    }
}

impl QpBackend for AdmmSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Admm
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
        self.rho
    }

    fn warm_start(&mut self, x: &[f64], y: &[f64]) {
        AdmmSolver::warm_start(self, x, y);
    }

    fn reset(&mut self) {
        AdmmSolver::reset(self);
    }

    fn update_q(&mut self, q: &[f64]) -> Result<()> {
        AdmmSolver::update_q(self, q)
    }

    fn update_bounds(&mut self, l: &[f64], u: &[f64]) -> Result<()> {
        AdmmSolver::update_bounds(self, l, u)
    }

    fn set_cancel_flag(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.cancel = cancel;
    }

    fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    fn solve_into(&mut self, result: &mut SolveResult) {
        AdmmSolver::solve_into(self, result);
    }

    fn clone_box(&self) -> Box<dyn QpBackend> {
        Box::new(self.clone())
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

/// Per-row step size from the bound classification of `(lo, hi)`.
fn rho_for(settings: &Settings, rho: f64, lo: f64, hi: f64) -> f64 {
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
    use mib_sparse::CscMatrix;

    fn staged_solver() -> AdmmSolver {
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
        AdmmSolver::new(problem, s).unwrap()
    }

    #[test]
    fn stage_rhs_builds_kkt_rhs() {
        let mut solver = staged_solver();
        solver.x.copy_from_slice(&[0.5, -0.25]);
        solver.z.copy_from_slice(&[0.1, 0.2, 0.3]);
        solver.y.copy_from_slice(&[1.0, -1.0, 0.5]);
        let mut prof = Profile::default();
        solver.stage_rhs(&mut prof);
        let sigma = solver.settings.sigma;
        for j in 0..2 {
            let want = sigma * solver.x[j] - solver.q[j];
            assert_eq!(solver.ws.rhs_x[j], want);
        }
        for i in 0..3 {
            let want = solver.z[i] - solver.rho_inv_vec[i] * solver.y[i];
            assert_eq!(solver.ws.rhs_z[i], want);
        }
        assert!(prof.ops.elementwise > 0.0);
    }

    #[test]
    fn stage_x_update_applies_relaxation() {
        let mut solver = staged_solver();
        solver.x.copy_from_slice(&[1.0, 2.0]);
        solver.ws.xtilde.copy_from_slice(&[3.0, -2.0]);
        let alpha = solver.settings.alpha;
        let mut prof = Profile::default();
        solver.stage_x_update(&mut prof);
        for j in 0..2 {
            let x_old = [1.0, 2.0][j];
            let want = alpha * solver.ws.xtilde[j] + (1.0 - alpha) * x_old;
            assert_eq!(solver.x[j], want);
            assert_eq!(solver.ws.delta_x[j], want - x_old);
        }
    }

    #[test]
    fn z_projection_then_y_update_matches_fused_reference() {
        let mut solver = staged_solver();
        let z0 = [0.9, -0.4, 0.85];
        let y0 = [0.3, -0.6, 0.0];
        let ztilde = [1.5, 0.1, -0.2];
        solver.z.copy_from_slice(&z0);
        solver.y.copy_from_slice(&y0);
        solver.ws.ztilde.copy_from_slice(&ztilde);
        let mut prof = Profile::default();
        solver.stage_z_projection(&mut prof);
        solver.stage_y_update(&mut prof);
        // Reference: the fused per-element update.
        let alpha = solver.settings.alpha;
        for i in 0..3 {
            let z_relaxed = alpha * ztilde[i] + (1.0 - alpha) * z0[i];
            let w = z_relaxed + solver.rho_inv_vec[i] * y0[i];
            let z_new = w.max(solver.l[i]).min(solver.u[i]);
            let y_new = y0[i] + solver.rho_vec[i] * (z_relaxed - z_new);
            assert_eq!(solver.z[i], z_new, "z[{i}]");
            assert_eq!(solver.y[i], y_new, "y[{i}]");
            assert_eq!(solver.ws.delta_y[i], y_new - y0[i], "delta_y[{i}]");
        }
    }

    #[test]
    fn stage_residuals_matches_direct_computation() {
        let mut solver = staged_solver();
        solver.x.copy_from_slice(&[0.4, 0.2]);
        solver.z.copy_from_slice(&[0.6, 0.4, 0.2]);
        solver.y.copy_from_slice(&[0.1, 0.0, -0.1]);
        let mut prof = Profile::default();
        let res = solver.stage_residuals(&mut prof);
        // With identity scaling the unscaled iterates are the iterates.
        let a = solver.orig.a();
        let ax = a.mul_vec(&[0.4, 0.2]);
        let prim = vector::norm_inf_diff(&ax, &[0.6, 0.4, 0.2]);
        assert_eq!(res.prim, prim);
        let px = solver.orig.p().sym_upper_mul_vec(&[0.4, 0.2]);
        let aty = a.tr_mul_vec(&[0.1, 0.0, -0.1]);
        let mut dual = 0.0f64;
        for j in 0..2 {
            dual = dual.max((px[j] + solver.orig.q()[j] + aty[j]).abs());
        }
        assert_eq!(res.dual, dual);
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
