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
//! One body lowers both variants, as the paper's Listing 1 does: settings
//! validation, `ρ`, the register layout of the vectors both share, the CSR
//! forms of `A` and `P`, the check and load kernels and the scheduling. The
//! KKT solve is the only part that differs, so one step per backend builds
//! just its own kernels: the factorization and iteration (direct), or the
//! iteration, the PCG iteration and the Jacobi `M⁻¹` words the load streams
//! (indirect). A program a variant lacks is an empty [`Schedule`].
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
use mib_qp::linsys::jacobi_precond_into;
use mib_qp::{rho_for, KktBackend, Problem, QpError, Settings, ALPHA, INFTY};
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

/// Per-constraint step sizes at the initial `ρ`, by the solver's rule.
pub(crate) fn rho_vec_for(problem: &Problem, settings: &Settings) -> Vec<f64> {
    problem
        .l()
        .iter()
        .zip(problem.u())
        .map(|(&lo, &hi)| rho_for(settings, settings.rho, lo, hi))
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
    lower_with_load_map(problem, settings, config).map(|(lowered, _)| lowered)
}

/// [`lower`], also returning the word map of the load program's stream.
///
/// Both backends share this body; only [`direct_kernels`] or
/// [`indirect_kernels`] differs between them. Every kernel is built before
/// any is scheduled: the builders allocate scratch as they go, the check
/// kernel the last of it, so only then is the layout final.
pub(crate) fn lower_with_load_map(
    problem: &Problem,
    settings: &Settings,
    config: MibConfig,
) -> Result<(LoweredQp, LoadMap), QpError> {
    let _lower_span = mib_trace::span("lower", mib_trace::Category::Compiler);
    settings.validate()?;
    let mut alloc = Allocator::new(config.width);
    let st = alloc_common(&mut alloc, problem.num_vars(), problem.num_constraints());
    let mut cx = Lowering {
        problem,
        settings,
        config,
        rho_vec: rho_vec_for(problem, settings),
        alloc,
        st,
        a_csr: problem.a().to_csr(),
        p_full: symmetrize_upper(problem.p()).to_csr(),
    };
    let kernels = match settings.backend {
        KktBackend::Direct => direct_kernels(&mut cx)?,
        KktBackend::Indirect => indirect_kernels(&mut cx),
    };
    let check = cx.build("check", build_check);
    check_fits(&cx.alloc, &config)?;
    let (load, load_map) = schedule_load(&mut cx, kernels.precond.as_ref());
    let schedule = |kernel: Option<Kernel>| {
        kernel.map_or_else(empty_schedule, |k| traced_schedule(&k, &config))
    };
    let lowered = LoweredQp {
        config,
        backend: settings.backend,
        load,
        setup: schedule(kernels.setup),
        iteration: schedule(Some(kernels.iteration)),
        pcg_iteration: schedule(kernels.pcg),
        check: schedule(Some(check)),
    };
    Ok((lowered, load_map))
}

/// Schedules one kernel under a compiler-category `schedule` span.
fn traced_schedule(kernel: &Kernel, config: &MibConfig) -> Schedule {
    let _span = mib_trace::span("schedule", mib_trace::Category::Compiler);
    checked_schedule(kernel, ScheduleOptions::default(), config)
}

/// The program a backend does not have: no slot and no word.
fn empty_schedule() -> Schedule {
    Schedule {
        program: Vec::new().into(),
        hbm: Vec::new(),
        slot_of: Vec::new(),
        forced_appends: 0,
        depth: 0,
    }
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

#[derive(Clone, Copy)]
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

/// What every kernel of one lowering shares: the problem, the register
/// allocator and the vectors both backends use, and the CSR forms of `A`
/// and of the full `P`.
struct Lowering<'a> {
    problem: &'a Problem,
    settings: &'a Settings,
    config: MibConfig,
    rho_vec: Vec<f64>,
    alloc: Allocator,
    st: CommonState,
    a_csr: CsrMatrix,
    p_full: CsrMatrix,
}

impl Lowering<'_> {
    /// Builds one kernel under a compiler-category `build` span: a fresh
    /// builder named `name`, filled by `emit`.
    fn build(&mut self, name: &str, emit: impl FnOnce(&mut KernelBuilder, &mut Self)) -> Kernel {
        let _span = mib_trace::span("build", mib_trace::Category::Compiler);
        let mut b = KernelBuilder::new(name, self.config.width, self.config.latency());
        emit(&mut b, self);
        b.finish()
    }
}

/// The kernels only one backend has, and the Jacobi `M⁻¹` layout and
/// words the indirect load streams.
struct BackendKernels {
    setup: Option<Kernel>,
    iteration: Kernel,
    pcg: Option<Kernel>,
    precond: Option<(Layout, Vec<f64>)>,
}

/// Where each word of the load program's source vectors sits in its HBM
/// stream.
///
/// The load program streams `q ‖ clamp(l) ‖ clamp(u) ‖ ρ ‖ ρ⁻¹` (then
/// `M⁻¹` on the indirect variant) into their layouts, in the order the
/// scheduler packs them. That order depends only on `n`, `m`, the backend
/// and the machine configuration, so [`crate::cache::ProgramCache`] keeps
/// the map of a pattern's lowering and refills a hit's stream through it.
#[derive(Debug)]
pub(crate) struct LoadMap {
    /// `word[i]`: the stream position of word `i` of the concatenation.
    word: Vec<usize>,
}

impl LoadMap {
    /// Writes `values`, the leading words of the concatenation, into their
    /// positions of `hbm`.
    fn scatter(&self, hbm: &mut [f64], values: impl Iterator<Item = f64>) {
        for (&k, v) in self.word.iter().zip(values) {
            hbm[k] = v;
        }
    }

    /// Overwrites the `q`, `l` and `u` words of a load stream with
    /// `problem`'s. That is all a cache hit changes: `ρ`, `ρ⁻¹` and `M⁻¹`
    /// follow from the cache key.
    pub(crate) fn refill(&self, hbm: &mut [f64], problem: &Problem) {
        self.scatter(hbm, vector_words(problem));
    }
}

/// `q ‖ clamp(l) ‖ clamp(u)`: bounds are clamped to a large-but-finite
/// magnitude so the machine's arithmetic stays clean.
fn vector_words(problem: &Problem) -> impl Iterator<Item = f64> + '_ {
    let clamp = |v: &f64| v.clamp(-INFTY, INFTY);
    problem
        .q()
        .iter()
        .copied()
        .chain(problem.l().iter().map(clamp))
        .chain(problem.u().iter().map(clamp))
}

/// Builds and schedules the one-time load program, and fills its stream.
///
/// The program streams `q ‖ clamp(l) ‖ clamp(u) ‖ ρ ‖ ρ⁻¹` into their
/// layouts, zeroes `x`, `y` and `z`, and then, if `precond` gives the
/// layout and values of the Jacobi preconditioner `M⁻¹`, streams it and
/// zeroes `xtilde`, where the indirect iteration starts PCG. The
/// kernel carries each word's index in that concatenation in place of its
/// value, so the one scheduled stream yields the [`LoadMap`] the real
/// words are filled through; a cache hit refills its `q`, `l` and `u`
/// words through the same map.
fn schedule_load(cx: &mut Lowering, precond: Option<&(Layout, Vec<f64>)>) -> (Schedule, LoadMap) {
    let st = cx.st;
    let kernel = cx.build("load", |lb, _| {
        let mut words = 0;
        let mut load_indices = |b: &mut KernelBuilder, v: Layout| {
            let indices: Vec<f64> = (words..words + v.len).map(|i| i as f64).collect();
            words += v.len;
            ew::load_vec(b, v, &indices);
        };
        for v in [st.q, st.l, st.u, st.rho, st.rho_inv] {
            load_indices(lb, v);
        }
        ew::zero(lb, st.x);
        ew::zero(lb, st.y);
        ew::zero(lb, st.z);
        if let Some(&(layout, _)) = precond {
            load_indices(lb, layout);
            ew::zero(lb, st.xtilde);
        }
    });
    let mut load = traced_schedule(&kernel, &cx.config);
    let _span = mib_trace::span("load_map", mib_trace::Category::Compiler);
    let precond_words = precond.map_or(&[][..], |(_, minv)| minv);
    let mut word = vec![0; load.hbm.len()];
    for (k, &index) in load.hbm.iter().enumerate() {
        word[index as usize] = k;
    }
    let map = LoadMap { word };
    map.scatter(
        &mut load.hbm,
        vector_words(cx.problem)
            .chain(cx.rho_vec.iter().copied())
            .chain(cx.rho_vec.iter().map(|&r| 1.0 / r))
            .chain(precond_words.iter().copied()),
    );
    (load, map)
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
fn build_updates(b: &mut KernelBuilder, st: &CommonState) {
    // ztilde = z + ρ⁻¹ ∘ (ν − y)
    ew::scale(b, st.nu, st.t_m, 1.0, WriteMode::Store);
    ew::scale(b, st.y, st.t_m, -1.0, WriteMode::Add);
    ew::ew_prod(b, st.t_m, st.rho_inv, st.t_m, WriteMode::Store);
    ew::scale(b, st.z, st.ztilde, 1.0, WriteMode::Store);
    ew::scale(b, st.t_m, st.ztilde, 1.0, WriteMode::Add);
    // zr = α·ztilde + (1−α)·z
    ew::scale(b, st.ztilde, st.zr, ALPHA, WriteMode::Store);
    ew::scale(b, st.z, st.zr, 1.0 - ALPHA, WriteMode::Add);
    // x = α·xtilde + (1−α)·x
    ew::scale(b, st.x, st.x, 1.0 - ALPHA, WriteMode::Store);
    ew::scale(b, st.xtilde, st.x, ALPHA, WriteMode::Add);
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
fn build_check(b: &mut KernelBuilder, cx: &mut Lowering) {
    let st = cx.st;
    mac_spmv(
        b,
        &mut cx.alloc,
        &cx.a_csr,
        st.x,
        st.t_m2,
        false,
        SpmvOptions::default(),
    );
    ew::scale(b, st.z, st.t_m2, -1.0, WriteMode::Add);
    ew::norm_inf(b, st.t_m2, st.norm_scratch, st.prim_res);
    mac_spmv(
        b,
        &mut cx.alloc,
        &cx.p_full,
        st.x,
        st.t_n2,
        false,
        SpmvOptions::default(),
    );
    ew::scale(b, st.q, st.t_n2, 1.0, WriteMode::Add);
    col_spmv(b, &mut cx.alloc, &cx.a_csr, st.y, st.t_n2, true);
    ew::norm_inf(b, st.t_n2, st.norm_scratch, st.dual_res);
}

/// Emits `out = S·v = (P + σI + Aᵀ diag(ρ) A) v` without forming `S`
/// (Section II.D: "S should never be explicitly computed").
fn apply_s(b: &mut KernelBuilder, cx: &mut Lowering, v: Layout, out: Layout, az: Layout) {
    mac_spmv(
        b,
        &mut cx.alloc,
        &cx.p_full,
        v,
        out,
        false,
        SpmvOptions::default(),
    );
    ew::scale(b, v, out, cx.settings.sigma, WriteMode::Add);
    mac_spmv(
        b,
        &mut cx.alloc,
        &cx.a_csr,
        v,
        az,
        false,
        SpmvOptions::default(),
    );
    ew::ew_prod(b, az, cx.st.rho, az, WriteMode::Store);
    col_spmv(b, &mut cx.alloc, &cx.a_csr, az, out, true);
}

/// The direct backend's kernels: the on-machine numeric factorization
/// (`setup`) and the iteration, whose KKT solve is `permutate → L_solve →
/// D_solve → Lt_solve → inverse_permutate`. Neither builder allocates, so
/// building both before `check` moves no address.
fn direct_kernels(cx: &mut Lowering) -> Result<BackendKernels, QpError> {
    let (n, m) = (cx.problem.num_vars(), cx.problem.num_constraints());
    // KKT analysis (same path as the reference direct backend), and a
    // reference factor object for structure-driven solve generation: the
    // triangular-solve generators need L's pattern; values live
    // on-machine.
    let (perm, permuted, sym, f_struct) = {
        let _analyze = mib_trace::span("analyze", mib_trace::Category::Compiler);
        let (p, a) = (cx.problem.p(), cx.problem.a());
        let kkt = KktMatrix::assemble(p, a, cx.settings.sigma, &cx.rho_vec)?;
        let perm = order::compute(kkt.matrix(), Ordering::MinDegree)?;
        let permuted = perm.sym_perm_upper(kkt.matrix())?;
        let sym = LdlSymbolic::new(&permuted)?;
        let f_struct = sym
            .factor(&permuted)
            .map_err(|e| QpError::KktFactorization(e.to_string()))?;
        (perm, permuted, sym, f_struct)
    };
    let (fl, y_scratch) = plan_factor_exact(&permuted, &sym, &mut cx.alloc);
    let v = cx.alloc.alloc(n + m);

    let setup = cx.build("factor", |fb, _| {
        factor_kernel(fb, &permuted, &sym, &fl, y_scratch);
    });
    let st = cx.st;
    let iteration = cx.build("iteration", |ib, cx| {
        build_rhs(ib, &st, cx.settings.sigma);
        // permutate: v[p] = rhs[perm[p]] where rhs = [t_n; t_m].
        let gather: Vec<_> = (0..n + m)
            .map(|p| (stacked_loc(st.t_n, st.t_m, perm.perm()[p]), v.loc(p)))
            .collect();
        permute_locs(ib, &gather);
        lsolve_streamed(ib, &f_struct, v);
        dsolve_streamed(ib, &f_struct, v);
        ltsolve_streamed(ib, &f_struct, v);
        // inverse_permutate: xtilde[j] = v[inv[j]], nu[i] = v[inv[n + i]].
        let scatter: Vec<_> = (0..n + m)
            .map(|orig| (v.loc(perm.inv()[orig]), stacked_loc(st.xtilde, st.nu, orig)))
            .collect();
        permute_locs(ib, &scatter);
        build_updates(ib, &st);
    });
    Ok(BackendKernels {
        setup: Some(setup),
        iteration,
        pcg: None,
        precond: None,
    })
}

/// `(bank, addr)` of element `idx` of the stacked vector `[top; bottom]`.
fn stacked_loc(top: Layout, bottom: Layout, idx: usize) -> (usize, usize) {
    if idx < top.len {
        top.loc(idx)
    } else {
        bottom.loc(idx - top.len)
    }
}

/// The indirect backend's kernels: the iteration (right-hand side,
/// reduced right-hand side, PCG start, `ν` recovery and the updates) and
/// one PCG iteration; and the Jacobi preconditioner the load streams.
fn indirect_kernels(cx: &mut Lowering) -> BackendKernels {
    let (n, m) = (cx.problem.num_vars(), cx.problem.num_constraints());
    let st = cx.st;
    // PCG state vectors.
    let b_vec = cx.alloc.alloc(n); // reduced rhs
    let r = cx.alloc.alloc(n);
    let pdir = cx.alloc.alloc(n);
    let dvec = cx.alloc.alloc(n);
    let sp = cx.alloc.alloc(n);
    let az = cx.alloc.alloc(m);
    let precond = cx.alloc.alloc(n);
    let scalars = cx.alloc.alloc_rows(8); // rd, psp, lambda, mu, rd_new, recip...

    // Iteration (outer) program: rhs, reduced rhs, nu recovery, updates.
    let iteration = cx.build("iteration", |ib, cx| {
        build_rhs(ib, &st, cx.settings.sigma);
        // b = t_n + Aᵀ(ρ ∘ t_m)
        ew::scale(ib, st.t_n, b_vec, 1.0, WriteMode::Store);
        ew::ew_prod(ib, st.t_m, st.rho, st.t_m2, WriteMode::Store);
        col_spmv(ib, &mut cx.alloc, &cx.a_csr, st.t_m2, b_vec, true);
        // PCG initialization: r = S·xtilde − b (one S application), d = M⁻¹r,
        // p = −d, rd = rᵀd.
        apply_s(ib, cx, st.xtilde, r, az);
        ew::scale(ib, b_vec, r, -1.0, WriteMode::Add);
        ew::ew_prod(ib, r, precond, dvec, WriteMode::Store);
        ew::scale(ib, dvec, pdir, -1.0, WriteMode::Store);
        ew::ew_prod(ib, r, dvec, st.t_n2, WriteMode::Store);
        ew::sum_reduce(ib, st.t_n2, st.norm_scratch, scalars);
        // After the PCG loop (modelled separately), xtilde holds the solution:
        // ν = ρ ∘ (A·xtilde − t_m).
        mac_spmv(
            ib,
            &mut cx.alloc,
            &cx.a_csr,
            st.xtilde,
            st.t_m2,
            false,
            SpmvOptions::default(),
        );
        ew::scale(ib, st.t_m, st.t_m2, -1.0, WriteMode::Add);
        ew::ew_prod(ib, st.t_m2, st.rho, st.nu, WriteMode::Store);
        build_updates(ib, &st);
    });

    // PCG iteration program (Algorithm 2, lines 3-9).
    let pcg = cx.build("pcg", |pb, cx| {
        apply_s(pb, cx, pdir, sp, az);
        // psp = pᵀ(Sp)
        ew::ew_prod(pb, pdir, sp, st.t_n2, WriteMode::Store);
        ew::sum_reduce(pb, st.t_n2, st.norm_scratch, scalars + 1);
        // lambda = rd / psp
        ew::scalar_recip(pb, 0, scalars + 1, scalars + 2);
        ew::scalar_mul(pb, 0, scalars, scalars + 2, scalars + 3);
        // x += λ p ; r += λ Sp
        ew::broadcast_scalar(pb, 0, scalars + 3);
        ew::scale_by_latch(pb, pdir, st.xtilde, false, WriteMode::Add);
        ew::scale_by_latch(pb, sp, r, false, WriteMode::Add);
        // d = M⁻¹ r ; rd_new = rᵀd ; mu = rd_new / rd
        ew::ew_prod(pb, r, precond, dvec, WriteMode::Store);
        ew::ew_prod(pb, r, dvec, st.t_n2, WriteMode::Store);
        ew::sum_reduce(pb, st.t_n2, st.norm_scratch, scalars + 4);
        ew::scalar_recip(pb, 0, scalars, scalars + 5);
        ew::scalar_mul(pb, 0, scalars + 4, scalars + 5, scalars + 6);
        // p = mu·p − d ; rd = rd_new
        ew::broadcast_scalar(pb, 0, scalars + 6);
        ew::scale_by_latch(pb, pdir, pdir, false, WriteMode::Store);
        ew::scale(pb, dvec, pdir, -1.0, WriteMode::Add);
        let scalar = |base| Layout {
            base,
            len: 1,
            width: pb.width(),
        };
        ew::scale(
            pb,
            scalar(scalars + 4),
            scalar(scalars),
            1.0,
            WriteMode::Store,
        );
    });

    // The Jacobi preconditioner's values: diag(P) + σ + Σᵢ ρᵢ Aᵢⱼ².
    let mut minv = vec![0.0; n];
    let (p, a) = (cx.problem.p(), cx.problem.a());
    jacobi_precond_into(p, a, cx.settings.sigma, &cx.rho_vec, &mut minv);
    BackendKernels {
        setup: None,
        iteration,
        pcg: Some(pcg),
        precond: Some((precond, minv)),
    }
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

    /// A compiled direct iteration holds empty slots beside busy ones, and
    /// every hop of its critical path lands on a busy slot: a dependence
    /// binds only a slot that reads something.
    #[test]
    fn critical_hops_land_on_busy_slots() {
        let problem = mib_problems::instance(mib_problems::Domain::Portfolio, 0).problem;
        let settings = Settings {
            scaling_iters: 0,
            adaptive_rho: false,
            ..Settings::default()
        };
        let lowered = lower(&problem, &settings, MibConfig::c32()).unwrap();
        let it = &lowered.iteration;
        assert!(it.slots() > it.busy_slots() && it.busy_slots() > 0);
        let path = mib_core::critical_path::critical_path(&it.program, &lowered.config);
        assert!(!path.hops.is_empty());
        for hop in &path.hops {
            assert!(!it.program[hop.slot].is_nop(), "slot {}", hop.slot);
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
