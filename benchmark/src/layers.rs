//! Direct calls into single layers, made by the traced run on the
//! workload's own inputs after the replay: each probe times one public
//! function and writes the per-layer metric named after it.

use std::hint::black_box;
use std::time::Instant;

use mib_problems::Domain;
use mib_qp::kkt::KktMatrix;
use mib_qp::scaling::ruiz_equilibrate;
use mib_qp::{Problem, Settings, Solver, INFTY};
use mib_sparse::ldl::{LdlSolver, LdlSymbolic};
use mib_sparse::order::{self, Ordering};

use crate::harness::{probe_p50, quiet_time};
use crate::metrics::Report;
use crate::spans::{quiet_us, quiet_us_by_op, Recorder};
use crate::stats;

/// Repetitions of each direct probe; each item's time is its quiet time.
pub const PROBE_REPS: usize = 5;

/// `problems.generate_us_p50`: the generator call of each instance.
pub fn probe_generate(specs: &[(Domain, usize)], report: &mut Report) {
    let p50 = probe_p50(specs, PROBE_REPS, 1e6, |&(domain, index)| {
        black_box(mib_problems::instance(domain, index));
    });
    report.set("problems.generate_us_p50", p50);
}

/// The per-row step sizes `Solver::new` starts from (the rule of
/// `mib_compiler::lower`): loose rows get `rho_min`, equality rows the
/// boosted `ρ`.
fn rho_vec(problem: &Problem, settings: &Settings) -> Vec<f64> {
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

/// Runs `f`, returning its result and its time in µs.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// The stages of a direct-ADMM `Solver::new` timed by [`setup_stages`],
/// then the whole.
const STAGES: [&str; 7] = [
    "qp.scaling_us_p50",
    "qp.kkt_assemble_us_p50",
    "sparse.order_us_p50",
    "sparse.symbolic_us_p50",
    "sparse.factor_us_p50",
    "sparse.refactor_us_p50",
    "qp.setup_us_p50",
];
/// Stages of [`STAGES`] that are parts of the whole (a refactorization is
/// not part of set-up).
const PARTS: [usize; 5] = [0, 1, 2, 3, 4];
const WHOLE: usize = 6;

/// One pass over what `Solver::new` does for direct ADMM, each stage
/// working on the previous one's output: times of [`STAGES`] in µs, and
/// `(kkt nnz, L nnz)`. Everything is timed back to back so that parts and
/// whole see the same state of the machine.
fn setup_stages(problem: &Problem, settings: &Settings) -> ([f64; 7], (usize, usize)) {
    let rho = rho_vec(problem, settings);
    let (mut p, mut q, mut a, mut l, mut u) = problem.clone().into_parts();
    let (_, scaling) = timed(|| {
        ruiz_equilibrate(
            &mut p,
            &mut q,
            &mut a,
            &mut l,
            &mut u,
            settings.scaling_iters,
        )
    });
    let (kkt, assemble) = timed(|| KktMatrix::assemble(&p, &a, settings.sigma, &rho));
    let kkt = kkt.expect("KKT assembles");
    let (perm, order) = timed(|| order::compute(kkt.matrix(), Ordering::MinDegree));
    // Not timed on its own: it shows in `qp.setup_unattributed_share`.
    let permuted = perm
        .expect("square")
        .sym_perm_upper(kkt.matrix())
        .expect("square");
    let (symbolic, symbolic_us) = timed(|| LdlSymbolic::new(&permuted));
    let symbolic = symbolic.expect("symbolic analysis");
    let (factor, factor_us) = timed(|| symbolic.factor(&permuted));
    let mut factor = factor.expect("quasi-definite");
    let ((), refactor) = timed(|| {
        symbolic
            .refactor(&permuted, &mut factor)
            .expect("quasi-definite");
    });
    let owned = problem.clone();
    let (solver, whole) = timed(|| Solver::new(owned, settings.clone()));
    black_box(solver.expect("valid instance"));
    (
        [
            scaling,
            assemble,
            order,
            symbolic_us,
            factor_us,
            refactor,
            whole,
        ],
        (kkt.matrix().nnz(), factor.l_nnz()),
    )
}

/// `sparse.*` and the set-up half of `qp.*` on each problem: the stages
/// of a direct-ADMM `Solver::new` against the whole, and the two kernels
/// the iterate loop spends its time in.
pub fn probe_sparse_and_setup(problems: &[&Problem], report: &mut Report) {
    let settings = Settings::default();

    // Per stage: each problem's quiet time over the repetitions.
    let mut quiet: [Vec<f64>; 7] = Default::default();
    let (mut kkt_nnz, mut l_nnz) = (0, 0);
    for problem in problems {
        let mut reps: [Vec<f64>; 7] = Default::default();
        for _ in 0..PROBE_REPS {
            let (times, nnz) = setup_stages(problem, &settings);
            for (stage, us) in reps.iter_mut().zip(times) {
                stage.push(us);
            }
            (kkt_nnz, l_nnz) = (kkt_nnz + nnz.0, l_nnz + nnz.1);
        }
        for (stage, times) in quiet.iter_mut().zip(&mut reps) {
            stage.push(stats::quiet_low(times));
        }
    }
    let parts: f64 = PARTS.iter().map(|&s| quiet[s].iter().sum::<f64>()).sum();
    let whole: f64 = quiet[WHOLE].iter().sum();
    report.set("qp.setup_unattributed_share", 1.0 - parts / whole);
    report.set("sparse.l_nnz_per_kkt_nnz", l_nnz as f64 / kkt_nnz as f64);
    for (name, times) in STAGES.into_iter().zip(&mut quiet) {
        report.set(name, stats::median(times));
    }

    let (mut spmv_ns, mut spmv_nnz) = (0.0, 0usize);
    let (mut solve_ns, mut solve_lnnz) = (0.0, 0usize);
    for problem in problems {
        let a = problem.a();
        let x = vec![1.0; a.ncols()];
        let yt = vec![1.0; a.nrows()];
        let (mut y, mut xt) = (vec![0.0; a.nrows()], vec![0.0; a.ncols()]);
        // A pair of products is a few hundred ns at the small sizes: time
        // 64 pairs per sample.
        let ns = quiet_time(2 * PROBE_REPS, 1e9, || {
            for _ in 0..64 {
                a.spmv_into(black_box(&x), &mut y);
                a.spmv_t_into(black_box(&yt), &mut xt);
            }
            black_box((&y, &xt));
        });
        spmv_ns += ns / 64.0;
        spmv_nnz += 2 * a.nnz();

        // The unscaled KKT has the factor's pattern, which is what a
        // triangular solve's time depends on.
        let kkt = KktMatrix::assemble(problem.p(), a, settings.sigma, &rho_vec(problem, &settings))
            .expect("KKT assembles");
        let ldl = LdlSolver::new(kkt.matrix(), Ordering::MinDegree).expect("quasi-definite");
        let b = vec![1.0; kkt.dim()];
        let (mut work, mut out) = (vec![0.0; kkt.dim()], vec![0.0; kkt.dim()]);
        let ns = quiet_time(2 * PROBE_REPS, 1e9, || {
            for _ in 0..16 {
                ldl.solve_into(black_box(&b), &mut work, &mut out);
            }
            black_box(&out);
        });
        solve_ns += ns / 16.0;
        solve_lnnz += ldl.factor().l_nnz();
    }
    report.set("sparse.spmv_ns_per_nnz", spmv_ns / spmv_nnz as f64);
    report.set("sparse.ldl_solve_ns_per_lnnz", solve_ns / solve_lnnz as f64);

    let solvers: Vec<Solver> = problems
        .iter()
        .map(|p| Solver::new((*p).clone(), settings.clone()).expect("valid instance"))
        .collect();
    report.set(
        "qp.clone_us_p50",
        probe_p50(&solvers, PROBE_REPS, 1e6, |s| {
            black_box(s.clone());
        }),
    );
}

/// What the workload knows about one solve it made, for the `qp.*`
/// solve-side metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveMeta {
    /// 0 ADMM-direct, 1 ADMM-indirect, 2 PDQP.
    pub backend: usize,
    /// `SolveResult.iterations`.
    pub iterations: usize,
    /// Total of `SolveResult.profile.ops`, of a solver that has served
    /// nothing else: a `Solver` carries the work of every earlier `reset`
    /// along in its profile, so a pooled solver's is a running total.
    pub flops: f64,
    /// Whether the status was `Solved`.
    pub solved: bool,
}

/// Index of a solver's backend in the per-backend metrics.
pub fn backend_index(settings: &Settings) -> usize {
    match (settings.algorithm, settings.backend) {
        (mib_qp::Algorithm::Pdqp, _) => 2,
        (mib_qp::Algorithm::Admm, mib_qp::KktBackend::Direct) => 0,
        (mib_qp::Algorithm::Admm, mib_qp::KktBackend::Indirect) => 1,
    }
}

/// The solve-side `qp.*` metrics from the replay's `qp.update` /
/// `qp.solve` / `qp.setup` spans and what the workload recorded per op.
pub fn qp_span_metrics(recorders: &[&Recorder], meta: &[SolveMeta], report: &mut Report) {
    let solve = quiet_us_by_op(recorders, "qp.solve");
    let mut solve_us = quiet_us(recorders, "qp.solve");
    stats::sort(&mut solve_us);
    report.set("qp.solve_us_p50", stats::percentile_sorted(&solve_us, 0.5));
    report.set("qp.solve_us_p99", stats::percentile_sorted(&solve_us, 0.99));
    let mut update_us = quiet_us(recorders, "qp.update");
    if !update_us.is_empty() {
        report.set("qp.update_us_p50", stats::median(&mut update_us));
    }

    let (mut time, mut iters) = ([0.0f64; 3], [0usize; 3]);
    for &(op, us) in &solve {
        let m = meta[op];
        time[m.backend] += us;
        iters[m.backend] += m.iterations;
    }
    let total: f64 = time.iter().sum();
    let names = [
        ("qp.admm_direct.us_per_iter", "qp.admm_direct.time_share"),
        (
            "qp.admm_indirect.us_per_iter",
            "qp.admm_indirect.time_share",
        ),
        ("qp.pdqp.us_per_iter", "qp.pdqp.time_share"),
    ];
    for (b, (per_iter, share)) in names.into_iter().enumerate() {
        if iters[b] > 0 {
            report.set(per_iter, time[b] / iters[b] as f64);
            report.set(share, time[b] / total);
        }
    }
    let n = meta.len() as f64;
    report.set(
        "qp.iters_per_solve",
        meta.iter().map(|m| m.iterations).sum::<usize>() as f64 / n,
    );
    report.set(
        "qp.flops_per_solve",
        meta.iter().map(|m| m.flops).sum::<f64>() / n,
    );
    report.set(
        "qp.unsolved_count",
        meta.iter().filter(|m| !m.solved).count() as f64,
    );

    let setup: f64 = quiet_us(recorders, "qp.setup").iter().sum();
    let ops: f64 = quiet_us(recorders, "op").iter().sum();
    if setup > 0.0 {
        report.set("qp.setup_share", setup / ops);
    }
}
