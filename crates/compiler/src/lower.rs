//! Lowering of complete OSQP iterations onto the MIB machine.
//!
//! [`lower`] compiles a QP (its sparsity patterns, step sizes and solver
//! settings) into the set of scheduled programs the machine replays while
//! solving (Listing 1 of the paper):
//!
//! * a **load** program that streams the problem vectors into the register
//!   files (run once),
//! * for OSQP-direct, a **setup** program — the on-machine numeric LDLᵀ
//!   factorization of the permuted KKT matrix (replayed on every adaptive-ρ
//!   refactorization with a fresh value stream),
//! * an **iteration** program — one full ADMM step: right-hand side,
//!   `permutate → L_solve → D_solve → Lt_solve → inverse_permutate` (direct)
//!   or the PCG outer step (indirect), relaxation, projection and dual
//!   update,
//! * for OSQP-indirect, a **PCG iteration** program (Algorithm 2's loop
//!   body: one application of `S` plus the vector recurrences),
//! * a **check** program computing the primal/dual residual norms.
//!
//! The programs are *pattern-specific but value-generic*: matrix values
//! stream from HBM, so parameterized re-solves replay the same schedules.
//! The direct iteration program is functionally exact and is verified
//! against the reference solver in the integration tests; together with
//! iteration counts from the reference run it yields the cycle-accurate
//! runtime model behind the paper's Figure 10.

use mib_core::instruction::WriteMode;
use mib_core::MibConfig;
use mib_qp::kkt::KktMatrix;
use mib_qp::{KktBackend, Problem, QpError, Settings, INFTY};
use mib_sparse::ldl::LdlSymbolic;
use mib_sparse::order::{self, Ordering};
use mib_sparse::CsrMatrix;

use crate::elementwise as ew;
use crate::factor::{factor_kernel, plan_factor_exact};
use crate::kernel::{Kernel, KernelBuilder};
use crate::layout::{Allocator, Layout};
use crate::permute::permute_locs;
use crate::schedule::{Schedule, ScheduleOptions};
use crate::spmv::{col_spmv, mac_spmv, symmetrize_upper, SpmvOptions};
use crate::trisolve::{dsolve_streamed, lsolve_streamed, ltsolve_streamed};
use crate::verify::checked_schedule;

/// A QP lowered to MIB programs plus the cycle model.
#[derive(Debug, Clone)]
pub struct LoweredQp {
    /// Machine configuration the programs were compiled for.
    pub config: MibConfig,
    /// Which algorithm variant was lowered.
    pub backend: KktBackend,
    /// One-time data load program.
    pub load: Schedule,
    /// Factorization program (empty for the indirect variant).
    pub setup: Schedule,
    /// One ADMM iteration (excluding inner PCG iterations).
    pub iteration: Schedule,
    /// One PCG iteration (indirect variant only; empty otherwise).
    pub pcg_iteration: Schedule,
    /// Residual computation program.
    pub check: Schedule,
}

impl LoweredQp {
    fn cycles_of(&self, s: &Schedule) -> u64 {
        if s.program.is_empty() {
            0
        } else {
            s.program.len() as u64 + self.config.latency()
        }
    }

    /// Cycles of the one-time load.
    pub fn load_cycles(&self) -> u64 {
        self.cycles_of(&self.load)
    }

    /// Cycles of one numeric (re)factorization.
    pub fn setup_cycles(&self) -> u64 {
        self.cycles_of(&self.setup)
    }

    /// Cycles of one ADMM iteration (outer part).
    pub fn iteration_cycles(&self) -> u64 {
        self.cycles_of(&self.iteration)
    }

    /// Cycles of one PCG iteration.
    pub fn pcg_cycles(&self) -> u64 {
        self.cycles_of(&self.pcg_iteration)
    }

    /// Cycles of one residual check.
    pub fn check_cycles(&self) -> u64 {
        self.cycles_of(&self.check)
    }

    /// Total solve cycles for a run with the given statistics (taken from
    /// the reference solver, whose iterate trajectory is identical).
    ///
    /// `factor_count` counts numeric factorizations (the initial one plus
    /// one per adaptive-ρ update); it is ignored by the indirect variant.
    pub fn total_cycles(
        &self,
        admm_iters: usize,
        pcg_iters: usize,
        checks: usize,
        factor_count: usize,
    ) -> u64 {
        let mut c = self.load_cycles();
        c += self.setup_cycles() * factor_count as u64;
        c += self.iteration_cycles() * admm_iters as u64;
        c += self.pcg_cycles() * pcg_iters as u64;
        c += self.check_cycles() * checks as u64;
        c
    }

    /// Wall-clock seconds for [`LoweredQp::total_cycles`] at the configured
    /// clock — fully deterministic, which is the source of the paper's
    /// near-zero runtime jitter.
    pub fn total_seconds(
        &self,
        admm_iters: usize,
        pcg_iters: usize,
        checks: usize,
        factor_count: usize,
    ) -> f64 {
        self.config.cycles_to_seconds(self.total_cycles(
            admm_iters,
            pcg_iters,
            checks,
            factor_count,
        ))
    }
}

/// Per-constraint step sizes, mirroring the reference solver's rule.
pub(crate) fn rho_vec_for(problem: &Problem, settings: &Settings) -> Vec<f64> {
    problem
        .l()
        .iter()
        .zip(problem.u())
        .map(|(&lo, &hi)| {
            if lo <= -INFTY && hi >= INFTY {
                settings.rho_min
            } else if lo == hi {
                (settings.rho * settings.rho_eq_scale).clamp(settings.rho_min, settings.rho_max)
            } else {
                settings.rho
            }
        })
        .collect()
}

/// Compiles a problem for the MIB machine.
///
/// # Errors
///
/// Returns [`QpError`] variants for invalid settings or a failed symbolic
/// KKT analysis, and [`QpError::InvalidSetting`] when the register layout
/// needs more words per bank than `config.bank_depth`.
pub fn lower(
    problem: &Problem,
    settings: &Settings,
    config: MibConfig,
) -> Result<LoweredQp, QpError> {
    let _lower_span = mib_trace::span("lower", mib_trace::Category::Compiler);
    settings.validate()?;
    match settings.backend {
        KktBackend::Direct => lower_direct(problem, settings, config),
        KktBackend::Indirect => lower_indirect(problem, settings, config),
    }
}

/// Schedules one named kernel under a compiler-category `schedule` span and
/// emits the packing-quality event (issue slots vs logical instructions,
/// forced appends, statically predicted cycles) that trace reports
/// aggregate per program.
fn traced_schedule(name: &'static str, kernel: &Kernel, config: &MibConfig) -> Schedule {
    let tracing = mib_trace::enabled();
    let _span = mib_trace::span_if(tracing, "schedule", mib_trace::Category::Compiler);
    let s = checked_schedule(kernel, ScheduleOptions::default(), config);
    if tracing {
        let predicted = crate::cost::static_cost(&s, config).map_or(0, |c| c.cycles);
        mib_trace::record(mib_trace::Event::ScheduleQuality {
            name,
            slots: u32::try_from(s.slots()).unwrap_or(u32::MAX),
            logical: u32::try_from(s.logical_count).unwrap_or(u32::MAX),
            forced_appends: u32::try_from(s.forced_appends).unwrap_or(u32::MAX),
            predicted_cycles: u32::try_from(predicted).unwrap_or(u32::MAX),
        });
    }
    s
}

/// Fails unless every register address the allocator handed out fits in
/// a bank. Lowering calls it once, after the last allocation and before
/// the first schedule, so no program that addresses past `bank_depth` is
/// ever scheduled.
fn check_fits(alloc: &Allocator, config: &MibConfig) -> Result<(), QpError> {
    if alloc.used() > config.bank_depth {
        return Err(QpError::InvalidSetting(format!(
            "register layout needs {} words per bank, but bank_depth is {}",
            alloc.used(),
            config.bank_depth
        )));
    }
    Ok(())
}

struct CommonState {
    q: Layout,
    l: Layout,
    u: Layout,
    rho: Layout,
    rho_inv: Layout,
    x: Layout,
    y: Layout,
    z: Layout,
    xtilde: Layout,
    nu: Layout,
    ztilde: Layout,
    zr: Layout,
    t_n: Layout,
    t_m: Layout,
    t_m2: Layout,
    t_n2: Layout,
    norm_scratch: usize,
    prim_res: usize,
    dual_res: usize,
}

fn alloc_common(alloc: &mut Allocator, n: usize, m: usize) -> CommonState {
    CommonState {
        q: alloc.alloc(n),
        l: alloc.alloc(m),
        u: alloc.alloc(m),
        rho: alloc.alloc(m),
        rho_inv: alloc.alloc(m),
        x: alloc.alloc(n),
        y: alloc.alloc(m),
        z: alloc.alloc(m),
        xtilde: alloc.alloc(n),
        nu: alloc.alloc(m),
        ztilde: alloc.alloc(m),
        zr: alloc.alloc(m),
        t_n: alloc.alloc(n),
        t_m: alloc.alloc(m),
        t_m2: alloc.alloc(m),
        t_n2: alloc.alloc(n),
        norm_scratch: alloc.alloc_rows(8),
        prim_res: alloc.alloc_rows(1),
        dual_res: alloc.alloc_rows(1),
    }
}

/// Register-file layouts for the indirect variant's PCG state.
///
/// Allocated immediately after [`alloc_common`] so the addresses are a
/// deterministic function of `(n, m, width)` — the property that lets the
/// program cache regenerate a load schedule without re-running the full
/// lowering.
struct PcgLayouts {
    b_vec: Layout,
    r: Layout,
    pdir: Layout,
    dvec: Layout,
    sp: Layout,
    az: Layout,
    precond: Layout,
    scalars: usize,
}

fn alloc_pcg(alloc: &mut Allocator, n: usize, m: usize) -> PcgLayouts {
    PcgLayouts {
        b_vec: alloc.alloc(n), // reduced rhs
        r: alloc.alloc(n),
        pdir: alloc.alloc(n),
        dvec: alloc.alloc(n),
        sp: alloc.alloc(n),
        az: alloc.alloc(m),
        precond: alloc.alloc(n),
        scalars: alloc.alloc_rows(8), // rd, psp, lambda, mu, rd_new, recip...
    }
}

/// Jacobi preconditioner values `1 / (diag(P) + σ + Σᵢ ρᵢ Aᵢⱼ²)`.
fn jacobi_precond_values(problem: &Problem, sigma: f64, rho_vec: &[f64]) -> Vec<f64> {
    let n = problem.num_vars();
    let mut diag = vec![sigma; n];
    for (j, d) in diag.iter_mut().enumerate() {
        *d += problem.p().get(j, j);
    }
    for (i, j, v) in problem.a().iter() {
        diag[j] += rho_vec[i] * v * v;
    }
    diag.iter()
        .map(|&d| if d > 0.0 { 1.0 / d } else { 1.0 })
        .collect()
}

/// Builds the (value-dependent) one-time load program on a fresh allocator.
///
/// This is the only schedule whose *instruction stream data* depends on the
/// vector values `q`, `l`, `u` (and through `ρ` classification, the bounds).
/// The register addresses it targets are deterministic given the problem
/// dimensions and machine width, so [`crate::cache::ProgramCache`] calls
/// this to refresh a cached [`LoweredQp`] for new parameter values without
/// re-running symbolic analysis or rescheduling the iteration programs.
pub(crate) fn build_load_schedule(
    problem: &Problem,
    settings: &Settings,
    config: MibConfig,
) -> Schedule {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let rho_vec = rho_vec_for(problem, settings);
    let mut alloc = Allocator::new(config.width);
    let st = alloc_common(&mut alloc, n, m);
    let mut lb = KernelBuilder::new("load", config.width, config.latency());
    build_load(&mut lb, &st, problem, &rho_vec);
    if settings.backend == KktBackend::Indirect {
        let pcg = alloc_pcg(&mut alloc, n, m);
        let minv = jacobi_precond_values(problem, settings.sigma, &rho_vec);
        ew::load_vec(&mut lb, pcg.precond, &minv);
    }
    traced_schedule("load", &lb.finish(), &config)
}

/// Emits the one-time load of problem vectors (bounds are clamped to a
/// large-but-finite magnitude so the machine's arithmetic stays clean).
fn build_load(b: &mut KernelBuilder, st: &CommonState, problem: &Problem, rho_vec: &[f64]) {
    let clamp = |v: f64| v.clamp(-INFTY, INFTY);
    ew::load_vec(b, st.q, problem.q());
    ew::load_vec(
        b,
        st.l,
        &problem.l().iter().map(|&v| clamp(v)).collect::<Vec<_>>(),
    );
    ew::load_vec(
        b,
        st.u,
        &problem.u().iter().map(|&v| clamp(v)).collect::<Vec<_>>(),
    );
    ew::load_vec(b, st.rho, rho_vec);
    ew::load_vec(
        b,
        st.rho_inv,
        &rho_vec.iter().map(|&r| 1.0 / r).collect::<Vec<_>>(),
    );
    ew::zero(b, st.x);
    ew::zero(b, st.y);
    ew::zero(b, st.z);
}

/// Emits the ADMM right-hand side: `t_n = σx − q`, `t_m = z − ρ⁻¹∘y`.
fn build_rhs(b: &mut KernelBuilder, st: &CommonState, sigma: f64) {
    ew::scale(b, st.x, st.t_n, sigma, WriteMode::Store);
    ew::scale(b, st.q, st.t_n, -1.0, WriteMode::Add);
    ew::ew_prod(b, st.y, st.rho_inv, st.t_m, WriteMode::Store);
    ew::scale(b, st.t_m, st.t_m, -1.0, WriteMode::Store);
    ew::scale(b, st.z, st.t_m, 1.0, WriteMode::Add);
}

/// Emits the post-KKT updates: relaxation, projection, dual step
/// (steps 4–7 of Algorithm 1).
fn build_updates(b: &mut KernelBuilder, st: &CommonState, alpha: f64) {
    // ztilde = z + ρ⁻¹ ∘ (ν − y)
    ew::scale(b, st.nu, st.t_m, 1.0, WriteMode::Store);
    ew::scale(b, st.y, st.t_m, -1.0, WriteMode::Add);
    ew::ew_prod(b, st.t_m, st.rho_inv, st.t_m, WriteMode::Store);
    ew::scale(b, st.z, st.ztilde, 1.0, WriteMode::Store);
    ew::scale(b, st.t_m, st.ztilde, 1.0, WriteMode::Add);
    // zr = α·ztilde + (1−α)·z
    ew::scale(b, st.ztilde, st.zr, alpha, WriteMode::Store);
    ew::scale(b, st.z, st.zr, 1.0 - alpha, WriteMode::Add);
    // x = α·xtilde + (1−α)·x
    ew::scale(b, st.x, st.x, 1.0 - alpha, WriteMode::Store);
    ew::scale(b, st.xtilde, st.x, alpha, WriteMode::Add);
    // w (t_m) = zr + ρ⁻¹ ∘ y ; z = Π(w)
    ew::ew_prod(b, st.y, st.rho_inv, st.t_m, WriteMode::Store);
    ew::scale(b, st.zr, st.t_m, 1.0, WriteMode::Add);
    ew::clip(b, st.t_m, st.l, st.u, st.z);
    // y += ρ ∘ (zr − z)
    ew::scale(b, st.zr, st.t_m, 1.0, WriteMode::Store);
    ew::scale(b, st.z, st.t_m, -1.0, WriteMode::Add);
    ew::ew_prod(b, st.t_m, st.rho, st.t_m, WriteMode::Store);
    ew::scale(b, st.t_m, st.y, 1.0, WriteMode::Add);
}

/// Emits the residual computation: `prim = ‖Ax − z‖∞`,
/// `dual = ‖Px + q + Aᵀy‖∞`.
fn build_check(
    b: &mut KernelBuilder,
    alloc: &mut Allocator,
    st: &CommonState,
    a_csr: &CsrMatrix,
    p_full: &CsrMatrix,
) {
    mac_spmv(
        b,
        alloc,
        a_csr,
        st.x,
        st.t_m2,
        false,
        SpmvOptions::default(),
    );
    ew::scale(b, st.z, st.t_m2, -1.0, WriteMode::Add);
    ew::norm_inf(b, st.t_m2, st.norm_scratch, st.prim_res);
    mac_spmv(
        b,
        alloc,
        p_full,
        st.x,
        st.t_n2,
        false,
        SpmvOptions::default(),
    );
    ew::scale(b, st.q, st.t_n2, 1.0, WriteMode::Add);
    col_spmv(b, alloc, a_csr, st.y, st.t_n2, true);
    ew::norm_inf(b, st.t_n2, st.norm_scratch, st.dual_res);
}

fn lower_direct(
    problem: &Problem,
    settings: &Settings,
    config: MibConfig,
) -> Result<LoweredQp, QpError> {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let rho_vec = rho_vec_for(problem, settings);
    let mut alloc = Allocator::new(config.width);
    let st = alloc_common(&mut alloc, n, m);
    let a_csr = problem.a().to_csr();
    let p_full = symmetrize_upper(problem.p()).to_csr();

    // KKT analysis (same path as the reference direct backend).
    let (perm, permuted, sym) = {
        let _analyze = mib_trace::span("analyze", mib_trace::Category::Compiler);
        let kkt = KktMatrix::assemble(problem.p(), problem.a(), settings.sigma, &rho_vec)?;
        let perm = order::compute(kkt.matrix(), Ordering::MinDegree)?;
        let permuted = perm.sym_perm_upper(kkt.matrix())?;
        let sym = LdlSymbolic::new(&permuted)?;
        (perm, permuted, sym)
    };

    let (fl, y_scratch) = plan_factor_exact(&permuted, &sym, &mut alloc);
    let v = alloc.alloc(n + m);
    // The check kernel allocates the last scratch; built first, it makes
    // the layout final before anything is scheduled.
    let mut cb = KernelBuilder::new("check", config.width, config.latency());
    build_check(&mut cb, &mut alloc, &st, &a_csr, &p_full);
    check_fits(&alloc, &config)?;

    // Load program (shared with the cache's value-refresh path).
    let load = build_load_schedule(problem, settings, config);

    // Setup: on-machine numeric factorization.
    let mut fb = KernelBuilder::new("factor", config.width, config.latency());
    factor_kernel(&mut fb, &permuted, &sym, &fl, y_scratch);
    let setup = traced_schedule("setup", &fb.finish(), &config);

    // Iteration program.
    let mut ib = KernelBuilder::new("iteration", config.width, config.latency());
    build_rhs(&mut ib, &st, settings.sigma);
    // permutate: v[p] = rhs[perm[p]] where rhs = [t_n; t_m].
    let rhs_loc = |idx: usize| {
        if idx < n {
            st.t_n.loc(idx)
        } else {
            st.t_m.loc(idx - n)
        }
    };
    let gather: Vec<((usize, usize), (usize, usize))> = (0..n + m)
        .map(|p| (rhs_loc(perm.perm()[p]), v.loc(p)))
        .collect();
    permute_locs(&mut ib, &gather);
    // Reference factor object for structure-driven solve generation: the
    // triangular-solve generators need L's pattern; values live on-machine.
    let f_struct = sym
        .factor(&permuted)
        .map_err(|e| QpError::KktFactorization(e.to_string()))?;
    lsolve_streamed(&mut ib, &f_struct, v);
    dsolve_streamed(&mut ib, &f_struct, v);
    ltsolve_streamed(&mut ib, &f_struct, v);
    // inverse_permutate: xtilde[j] = v[inv[j]], nu[i] = v[inv[n + i]].
    let out_loc = |idx: usize| {
        if idx < n {
            st.xtilde.loc(idx)
        } else {
            st.nu.loc(idx - n)
        }
    };
    let scatter: Vec<((usize, usize), (usize, usize))> = (0..n + m)
        .map(|orig| (v.loc(perm.inv()[orig]), out_loc(orig)))
        .collect();
    permute_locs(&mut ib, &scatter);
    build_updates(&mut ib, &st, settings.alpha);
    let iteration = traced_schedule("iteration", &ib.finish(), &config);
    let check = traced_schedule("check", &cb.finish(), &config);

    Ok(LoweredQp {
        config,
        backend: KktBackend::Direct,
        load,
        setup,
        iteration,
        pcg_iteration: checked_schedule(
            &KernelBuilder::new("empty", config.width, config.latency()).finish(),
            ScheduleOptions::default(),
            &config,
        ),
        check,
    })
}

fn lower_indirect(
    problem: &Problem,
    settings: &Settings,
    config: MibConfig,
) -> Result<LoweredQp, QpError> {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let mut alloc = Allocator::new(config.width);
    let st = alloc_common(&mut alloc, n, m);
    let a_csr = problem.a().to_csr();
    let p_full = symmetrize_upper(problem.p()).to_csr();

    // PCG state vectors (allocation order shared with the load builder).
    let PcgLayouts {
        b_vec,
        r,
        pdir,
        dvec,
        sp,
        az,
        precond,
        scalars,
    } = alloc_pcg(&mut alloc, n, m);

    // Every kernel is built before any is scheduled: the builders allocate
    // scratch as they go, so only then is the layout final.

    // Iteration (outer) program: rhs, reduced rhs, nu recovery, updates.
    let mut ib = KernelBuilder::new("iteration", config.width, config.latency());
    build_rhs(&mut ib, &st, settings.sigma);
    // b = t_n + Aᵀ(ρ ∘ t_m)
    ew::scale(&mut ib, st.t_n, b_vec, 1.0, WriteMode::Store);
    ew::ew_prod(&mut ib, st.t_m, st.rho, st.t_m2, WriteMode::Store);
    col_spmv(&mut ib, &mut alloc, &a_csr, st.t_m2, b_vec, true);
    // PCG initialization: r = S·xtilde − b (one S application), d = M⁻¹r,
    // p = −d, rd = rᵀd.
    apply_s(
        &mut ib,
        &mut alloc,
        &st,
        &a_csr,
        &p_full,
        settings.sigma,
        st.xtilde,
        r,
        az,
    );
    ew::scale(&mut ib, b_vec, r, -1.0, WriteMode::Add);
    ew::ew_prod(&mut ib, r, precond, dvec, WriteMode::Store);
    ew::scale(&mut ib, dvec, pdir, -1.0, WriteMode::Store);
    ew::ew_prod(&mut ib, r, dvec, st.t_n2, WriteMode::Store);
    ew::sum_reduce(&mut ib, st.t_n2, st.norm_scratch, scalars);
    // After the PCG loop (modelled separately), xtilde holds the solution:
    // ν = ρ ∘ (A·xtilde − t_m).
    mac_spmv(
        &mut ib,
        &mut alloc,
        &a_csr,
        st.xtilde,
        st.t_m2,
        false,
        SpmvOptions::default(),
    );
    ew::scale(&mut ib, st.t_m, st.t_m2, -1.0, WriteMode::Add);
    ew::ew_prod(&mut ib, st.t_m2, st.rho, st.nu, WriteMode::Store);
    build_updates(&mut ib, &st, settings.alpha);

    // PCG iteration program (Algorithm 2, lines 3-9).
    let mut pb = KernelBuilder::new("pcg", config.width, config.latency());
    apply_s(
        &mut pb,
        &mut alloc,
        &st,
        &a_csr,
        &p_full,
        settings.sigma,
        pdir,
        sp,
        az,
    );
    // psp = pᵀ(Sp)
    ew::ew_prod(&mut pb, pdir, sp, st.t_n2, WriteMode::Store);
    ew::sum_reduce(&mut pb, st.t_n2, st.norm_scratch, scalars + 1);
    // lambda = rd / psp
    ew::scalar_recip(&mut pb, 0, scalars + 1, scalars + 2);
    ew::scalar_mul(&mut pb, 0, scalars, scalars + 2, scalars + 3);
    // x += λ p ; r += λ Sp
    ew::broadcast_scalar(&mut pb, 0, scalars + 3);
    ew::scale_by_latch(&mut pb, pdir, st.xtilde, false, WriteMode::Add);
    ew::scale_by_latch(&mut pb, sp, r, false, WriteMode::Add);
    // d = M⁻¹ r ; rd_new = rᵀd ; mu = rd_new / rd
    ew::ew_prod(&mut pb, r, precond, dvec, WriteMode::Store);
    ew::ew_prod(&mut pb, r, dvec, st.t_n2, WriteMode::Store);
    ew::sum_reduce(&mut pb, st.t_n2, st.norm_scratch, scalars + 4);
    ew::scalar_recip(&mut pb, 0, scalars, scalars + 5);
    ew::scalar_mul(&mut pb, 0, scalars + 4, scalars + 5, scalars + 6);
    // p = mu·p − d ; rd = rd_new
    ew::broadcast_scalar(&mut pb, 0, scalars + 6);
    ew::scale_by_latch(&mut pb, pdir, pdir, false, WriteMode::Store);
    ew::scale(&mut pb, dvec, pdir, -1.0, WriteMode::Add);
    ew::scale(
        &mut pb,
        Layout {
            base: scalars + 4,
            len: 1,
            width: config.width,
        },
        Layout {
            base: scalars,
            len: 1,
            width: config.width,
        },
        1.0,
        WriteMode::Store,
    );

    let mut cb = KernelBuilder::new("check", config.width, config.latency());
    build_check(&mut cb, &mut alloc, &st, &a_csr, &p_full);
    check_fits(&alloc, &config)?;

    // Load program, including the Jacobi preconditioner values
    // (diag(P) + sigma + sum rho_i A_ij^2).
    let load = build_load_schedule(problem, settings, config);
    let iteration = traced_schedule("iteration", &ib.finish(), &config);
    let pcg_iteration = traced_schedule("pcg", &pb.finish(), &config);
    let check = traced_schedule("check", &cb.finish(), &config);

    Ok(LoweredQp {
        config,
        backend: KktBackend::Indirect,
        load,
        setup: checked_schedule(
            &KernelBuilder::new("empty", config.width, config.latency()).finish(),
            ScheduleOptions::default(),
            &config,
        ),
        iteration,
        pcg_iteration,
        check,
    })
}

/// Emits `out = S·v = (P + σI + Aᵀ diag(ρ) A) v` without forming `S`
/// (Section II.D: "S should never be explicitly computed").
#[allow(clippy::too_many_arguments)]
fn apply_s(
    b: &mut KernelBuilder,
    alloc: &mut Allocator,
    st: &CommonState,
    a_csr: &CsrMatrix,
    p_full: &CsrMatrix,
    sigma: f64,
    v: Layout,
    out: Layout,
    az: Layout,
) {
    mac_spmv(b, alloc, p_full, v, out, false, SpmvOptions::default());
    ew::scale(b, v, out, sigma, WriteMode::Add);
    mac_spmv(b, alloc, a_csr, v, az, false, SpmvOptions::default());
    ew::ew_prod(b, az, st.rho, az, WriteMode::Store);
    col_spmv(b, alloc, a_csr, az, out, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_core::hbm::HbmStream;
    use mib_core::machine::{HazardPolicy, Machine};
    use mib_sparse::CscMatrix;

    fn small_problem() -> Problem {
        let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        Problem::new(
            p,
            vec![1.0, 1.0],
            a,
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.7, 0.7],
        )
        .unwrap()
    }

    fn tiny_config() -> MibConfig {
        MibConfig {
            width: 8,
            bank_depth: 1 << 14,
            clock_hz: 1e6,
        }
    }

    #[test]
    fn direct_lowering_produces_all_programs() {
        let problem = small_problem();
        let lowered = lower(&problem, &Settings::default(), tiny_config()).unwrap();
        assert!(lowered.load_cycles() > 0);
        assert!(lowered.setup_cycles() > 0);
        assert!(lowered.iteration_cycles() > 0);
        assert!(lowered.check_cycles() > 0);
        assert_eq!(lowered.pcg_cycles(), 0);
        let total = lowered.total_cycles(100, 0, 4, 1);
        assert!(total > lowered.iteration_cycles() * 100);
    }

    #[test]
    fn indirect_lowering_produces_pcg_program() {
        let problem = small_problem();
        let settings = Settings::with_backend(KktBackend::Indirect);
        let lowered = lower(&problem, &settings, tiny_config()).unwrap();
        assert_eq!(lowered.setup_cycles(), 0);
        assert!(lowered.pcg_cycles() > 0);
        assert!(lowered.iteration_cycles() > 0);
    }

    #[test]
    fn direct_programs_execute_hazard_free() {
        let problem = small_problem();
        let lowered = lower(&problem, &Settings::default(), tiny_config()).unwrap();
        let mut m = Machine::new(lowered.config);
        for s in [
            &lowered.load,
            &lowered.setup,
            &lowered.iteration,
            &lowered.check,
        ] {
            let mut hbm = HbmStream::new(s.hbm.clone());
            m.run(&s.program, &mut hbm, HazardPolicy::Strict)
                .expect("lowered programs must be hazard-free");
        }
    }

    #[test]
    fn indirect_programs_execute_hazard_free() {
        let problem = small_problem();
        let settings = Settings::with_backend(KktBackend::Indirect);
        let lowered = lower(&problem, &settings, tiny_config()).unwrap();
        let mut m = Machine::new(lowered.config);
        for s in [
            &lowered.load,
            &lowered.iteration,
            &lowered.pcg_iteration,
            &lowered.check,
        ] {
            let mut hbm = HbmStream::new(s.hbm.clone());
            m.run(&s.program, &mut hbm, HazardPolicy::Strict)
                .expect("lowered programs must be hazard-free");
        }
    }

    /// No compiled program runs faster than its lower bound, and some
    /// program meets it (the load is one HBM word stream).
    #[test]
    fn lowered_programs_run_at_or_above_their_lower_bound() {
        let problem = small_problem();
        let mut tight = false;
        for backend in [KktBackend::Direct, KktBackend::Indirect] {
            let settings = Settings::with_backend(backend);
            let lowered = lower(&problem, &settings, tiny_config()).unwrap();
            for s in [
                &lowered.load,
                &lowered.setup,
                &lowered.iteration,
                &lowered.pcg_iteration,
                &lowered.check,
            ] {
                let bound = crate::lower_bound(s, &lowered.config);
                let cycles = crate::static_cost(s, &lowered.config).unwrap().cycles;
                assert!(bound <= cycles, "bound {bound} above {cycles} cycles");
                tight |= !s.program.is_empty() && bound == cycles;
            }
        }
        assert!(tight);
    }

    /// The critical end-to-end functional test: replaying the direct
    /// iteration program must reproduce the reference ADMM iterates.
    #[test]
    fn direct_iteration_matches_reference_admm() {
        let problem = small_problem();
        // Match the lowered program's modelling assumptions: no scaling,
        // no adaptive rho.
        let settings = Settings {
            scaling_iters: 0,
            adaptive_rho: false,
            eps_abs: 1e-9,
            eps_rel: 1e-9,
            ..Settings::default()
        };
        let lowered = lower(&problem, &settings, tiny_config()).unwrap();

        let mut m = Machine::new(lowered.config);
        let run = |m: &mut Machine, s: &Schedule| {
            let mut hbm = HbmStream::new(s.hbm.clone());
            m.run(&s.program, &mut hbm, HazardPolicy::Strict).unwrap();
        };
        run(&mut m, &lowered.load);
        run(&mut m, &lowered.setup);
        for _ in 0..200 {
            run(&mut m, &lowered.iteration);
        }
        // Reference solution of this QP: x = (0.3, 0.7) from the OSQP
        // paper's example... compute via the reference solver instead.
        let reference = mib_qp::Solver::new(problem.clone(), settings)
            .unwrap()
            .solve();
        assert!(reference.status.is_solved());
        // Read x from the machine.
        let n = problem.num_vars();
        let mut alloc = Allocator::new(lowered.config.width);
        let st = alloc_common(&mut alloc, n, problem.num_constraints());
        let got: Vec<f64> = (0..n)
            .map(|e| m.regs().read(st.x.bank(e), st.x.addr(e)).unwrap())
            .collect();
        for (g, w) in got.iter().zip(&reference.x) {
            assert!(
                (g - w).abs() < 1e-3,
                "on-machine ADMM diverged from reference: {got:?} vs {:?}",
                reference.x
            );
        }
    }
}
