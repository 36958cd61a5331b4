//! `accel`: the paper's own pipeline — scheduling compiler, cycle-accurate
//! simulator, static timing — which no other workload touches.
//!
//! Each round clears a `ProgramCache`; every program is then lowered once
//! as a miss and again as re-valued hits (new `q`, new same-class bounds),
//! and each lowering is run on the machine under the strict hazard policy
//! and predicted statically. Every count is exact and must repeat.

use std::time::Instant;

use mib_compiler::lower::LoweredQp;
use mib_compiler::{Allocator, ProgramCache, Schedule};
use mib_core::hbm::HbmStream;
use mib_core::machine::{HazardPolicy, Machine};
use mib_core::stats::ExecStats;
use mib_core::MibConfig;
use mib_platforms::{CpuModel, CpuVariant, PlatformModel, WorkSummary};
use mib_problems::{instance, Domain};
use mib_qp::{KktBackend, Problem, Settings, SolveResult, Solver, INFTY};
use mib_verify::timing;
use rand::rngs::StdRng;
use rand::Rng;

use crate::harness::{probe_p50, run_end_to_end, OpOutcome, RunOpts, SerialWorkload};
use crate::instances::{fingerprint, perturbed_q, rng_for};
use crate::layers::{self, PROBE_REPS};
use crate::metrics::Report;
use crate::spans::{quiet_us, quiet_us_by_op, Recorder};
use crate::stats;
use crate::traced;

/// Fixed latency limit of the workload, µs.
pub const LIMIT_US: f64 = 1_000_000.0;
/// Suite indices compiled at C = 32 in both variants; the first also at
/// C = 16, direct. `lower` is super-linear in the instance size, and a
/// round has to fit the run at least 24 times.
const INDICES: [usize; 2] = [0, 3];
/// Lowerings per program and round: one miss, then the re-valued hits.
const LOWERINGS: usize = 3;
/// ADMM iterations simulated per op (each with one PCG iteration in the
/// indirect variant): sized so that neither the compiler's misses nor the
/// simulator is less than a quarter of the round.
const SIM_ITERATIONS: usize = 5;
/// How closely the machine's `x` must track the reference iterate.
const TRACK_TOLERANCE: f64 = 1e-4;

/// The settings the lowered program models (`examples/mib_accelerator.rs`):
/// the unscaled, fixed-ρ algorithm.
fn machine_settings(backend: KktBackend) -> Settings {
    Settings {
        scaling_iters: 0,
        adaptive_rho: false,
        max_iter: 20_000,
        ..Settings::with_backend(backend)
    }
}

/// One lowering request: a problem and what the checks compare against.
struct Variant {
    problem: Problem,
    /// The reference solver's `x` after [`SIM_ITERATIONS`] iterations.
    reference_x: Vec<f64>,
    /// The converged reference solve the cycle model takes its counts from.
    reference: SolveResult,
}

/// One compiled program: a problem structure, a variant and a machine.
struct Program {
    spec: (Domain, usize),
    settings: Settings,
    config: MibConfig,
    /// Index into [`Accel::machines`].
    machine: usize,
    variants: Vec<Variant>,
}

/// Exact figures of one op, for the per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
struct OpCounts {
    exec: ExecStats,
    sim_cycles: u64,
    slots: usize,
    busy_slots: usize,
    forced_appends: usize,
    predict_mismatches: u64,
    miss: bool,
}

/// The workload's state.
pub struct Accel {
    seed: u64,
    programs: Vec<Program>,
    cache: ProgramCache,
    /// One machine per configuration, reused across ops the way hardware
    /// is: the load program initialises everything a run reads.
    machines: Vec<Machine>,
    counts: Vec<OpCounts>,
}

/// New `q`, and every finite upper bound of an inequality row loosened:
/// no row changes class, so the compiled program stays valid.
fn revalued(problem: &Problem, rng: &mut StdRng) -> Problem {
    let q = perturbed_q(problem, rng);
    let (p, _, a, l, mut u) = problem.clone().into_parts();
    for (lo, hi) in l.iter().zip(&mut u) {
        if *lo < *hi && *hi < INFTY {
            *hi += 0.1 * rng.gen::<f64>();
        }
    }
    Problem::new(p, q, a, l, u).expect("re-valued problem is valid")
}

fn variant_of(problem: Problem, settings: &Settings) -> Variant {
    let reference = Solver::new(problem.clone(), settings.clone())
        .expect("suite instance is valid")
        .solve();
    let short = Settings {
        max_iter: SIM_ITERATIONS,
        ..settings.clone()
    };
    let reference_x = Solver::new(problem.clone(), short)
        .expect("suite instance is valid")
        .solve()
        .x;
    Variant {
        problem,
        reference_x,
        reference,
    }
}

fn schedules(l: &LoweredQp) -> [&Schedule; 5] {
    [&l.load, &l.setup, &l.iteration, &l.pcg_iteration, &l.check]
}

/// The schedules one op runs, as indices into [`schedules`]: load, the
/// factorization if the variant has one, the iterations (each followed by
/// one PCG iteration if the variant has those), then the residual check.
fn run_plan(l: &LoweredQp) -> Vec<usize> {
    let has = |s: &Schedule| !s.program.is_empty();
    let iteration: &[usize] = if has(&l.pcg_iteration) { &[2, 3] } else { &[2] };
    let mut plan = vec![0];
    plan.extend(has(&l.setup).then_some(1));
    for _ in 0..SIM_ITERATIONS {
        plan.extend(iteration);
    }
    plan.push(4);
    plan
}

impl Accel {
    /// Builds the programs, draws their re-valued variants from `seed`,
    /// makes every reference solve and completes one miss per program.
    pub fn setup(seed: u64) -> Self {
        let configs = [MibConfig::c32(), MibConfig::c16()];
        let mut rng = rng_for(seed, 0x4143_4345);
        let mut programs = Vec::new();
        let mut add = |domain, index, backend, machine: usize| {
            let settings = machine_settings(backend);
            let base = instance(domain, index).problem;
            let mut variants = vec![variant_of(base.clone(), &settings)];
            for _ in 1..LOWERINGS {
                variants.push(variant_of(revalued(&base, &mut rng), &settings));
            }
            programs.push(Program {
                spec: (domain, index),
                settings,
                config: configs[machine],
                machine,
                variants,
            });
        };
        for domain in Domain::all() {
            for index in INDICES {
                add(domain, index, KktBackend::Direct, 0);
                add(domain, index, KktBackend::Indirect, 0);
            }
            add(domain, INDICES[0], KktBackend::Direct, 1);
        }
        let ops = programs.len() * LOWERINGS;
        let mut w = Accel {
            seed,
            programs,
            cache: ProgramCache::new(),
            machines: configs.into_iter().map(Machine::new).collect(),
            counts: vec![OpCounts::default(); ops],
        };
        let mut rec = Recorder::disabled();
        for op in (0..ops).step_by(LOWERINGS) {
            assert!(w.run_op(op, &mut rec).ok, "set-up op {op} failed");
        }
        w
    }

    fn check_failed(&self, op: usize, what: &str) {
        let p = &self.programs[op / LOWERINGS];
        eprintln!(
            "CHECK FAILED: accel op {op} (seed {}, {} idx {} {} C={}): {what}",
            self.seed,
            p.spec.0,
            p.spec.1,
            p.settings.backend.name(),
            p.config.width
        );
    }
}

impl SerialWorkload for Accel {
    fn ops(&self) -> usize {
        self.programs.len() * LOWERINGS
    }

    fn begin_round(&mut self) {
        self.cache.clear();
    }

    fn run_op(&mut self, op: usize, rec: &mut Recorder) -> OpOutcome {
        let program = &self.programs[op / LOWERINGS];
        let variant = &program.variants[op % LOWERINGS];
        let config = program.config;
        let machine = &mut self.machines[program.machine];
        let misses_before = self.cache.misses();

        let started = Instant::now();
        let span = rec.begin("op", None, op);
        let lower = rec.begin("compiler.lower_cached", Some(span), op);
        let lowered = self
            .cache
            .lower_cached(&variant.problem, &program.settings, config)
            .expect("lowering succeeds");
        rec.end(lower);

        // Executed cycles per schedule, to hold against the prediction.
        let scheds = schedules(&lowered);
        let plan = run_plan(&lowered);
        let mut executed = [0u64; 5];
        let mut exec = ExecStats::default();
        let mut hazard = None;
        let run = rec.begin("core.run", Some(span), op);
        for &k in &plan {
            let s = scheds[k];
            match machine.run(
                &s.program,
                &mut HbmStream::new(s.hbm.clone()),
                HazardPolicy::Strict,
            ) {
                Ok(stats) => {
                    executed[k] = stats.cycles;
                    exec.merge(&stats);
                }
                Err(e) => hazard = Some(e),
            }
        }
        rec.end(run);

        let predict = rec.begin("verify.predict", Some(span), op);
        let mut predicted = [0u64; 5];
        for (k, s) in scheds.iter().enumerate() {
            if plan.contains(&k) {
                predicted[k] =
                    timing::predict(&s.program, s.hbm.len(), &config, HazardPolicy::Strict)
                        .map_or(u64::MAX, |t| t.cycles());
            }
        }
        rec.end(predict);
        rec.end(span);
        let ns = started.elapsed().as_nanos() as u64;

        // Checks, outside the timed section.
        let n = variant.problem.num_vars();
        let m = variant.problem.num_constraints();
        // `x` is the sixth vector the lowering allocates (q, l, u, ρ, ρ⁻¹, x).
        let mut alloc = Allocator::new(config.width);
        for len in [n, m, m, m, m] {
            alloc.alloc(len);
        }
        let layout = alloc.alloc(n);
        let x: Vec<f64> = (0..n)
            .map(|e| {
                machine
                    .regs()
                    .read(layout.bank(e), layout.addr(e))
                    .expect("x lies inside the register file")
            })
            .collect();
        let mut ok = true;
        if let Some(e) = &hazard {
            self.check_failed(op, &format!("the machine refused the program: {e}"));
            ok = false;
        }
        if exec.stall_cycles != 0 {
            self.check_failed(op, &format!("{} stall cycles, want 0", exec.stall_cycles));
            ok = false;
        }
        let mut predict_mismatches = 0;
        for (k, s) in scheds.iter().enumerate() {
            let length = s.program.len() as u64 + config.latency();
            if plan.contains(&k) && !(executed[k] == predicted[k] && predicted[k] == length) {
                self.check_failed(
                    op,
                    &format!(
                        "schedule {k}: executed {} cycles, predicted {}, length + latency {length}",
                        executed[k], predicted[k]
                    ),
                );
                predict_mismatches += 1;
                ok = false;
            }
        }
        if program.settings.backend == KktBackend::Direct {
            let err = x
                .iter()
                .zip(&variant.reference_x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            if err.is_nan() || err > TRACK_TOLERANCE {
                self.check_failed(
                    op,
                    &format!(
                        "machine x is {err:e} from the reference iterate after {SIM_ITERATIONS} \
                         iterations (x[0] {:e} vs {:e})",
                        x[0], variant.reference_x[0]
                    ),
                );
                ok = false;
            }
        }
        let miss = self.cache.misses() > misses_before;
        if miss != op.is_multiple_of(LOWERINGS) {
            self.check_failed(
                op,
                &format!("cache miss {miss} on lowering {}", op % LOWERINGS),
            );
            ok = false;
        }

        let r = &variant.reference;
        let iteration = &lowered.iteration;
        self.counts[op] = OpCounts {
            exec,
            sim_cycles: lowered.total_cycles(
                r.iterations,
                r.profile.pcg_iters,
                r.iterations.div_ceil(program.settings.check_termination),
                r.profile.factor_count,
            ),
            slots: iteration.slots(),
            busy_slots: iteration.busy_slots(),
            forced_appends: scheds.iter().map(|s| s.forced_appends).sum(),
            predict_mismatches,
            miss,
        };
        OpOutcome {
            ns,
            timer_ns: 0,
            ok,
            // Every exact count and the machine's answer must repeat.
            fingerprint: fingerprint(
                miss,
                exec.cycles ^ (exec.slots << 32),
                self.counts[op].sim_cycles as f64,
                &x,
                &[],
            ),
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(opts: &RunOpts) -> Report {
    let (w, quiet, report) = run_end_to_end(opts, LIMIT_US, || Accel::setup(opts.seed));
    eprintln!(
        "  op_us_p99 is over {} distinct ops: the heaviest program's miss; sim_cycles_per_op {}",
        quiet.distinct_ops,
        w.sim_cycles_per_op()
    );
    report
}

impl Accel {
    /// The paper's end-to-end MIB runtime in cycles, mean over the ops:
    /// `LoweredQp::total_cycles` with the reference solve's counts.
    fn sim_cycles_per_op(&self) -> f64 {
        self.counts.iter().map(|c| c.sim_cycles as f64).sum::<f64>() / self.counts.len() as f64
    }
}

/// The traced run: per-layer metrics.
pub fn run_traced(opts: &RunOpts) -> Report {
    let mut w = Accel::setup(opts.seed);
    let mut report = Report::new();
    let recorder = traced::replay(&mut w, LIMIT_US, opts, "accel", &mut report);
    let recs = [&recorder];

    // Compiler: lowering time by cache outcome.
    let lower = quiet_us_by_op(&recs, "compiler.lower_cached");
    let (mut miss_us, mut hit_us) = (Vec::new(), Vec::new());
    for &(op, us) in &lower {
        if w.counts[op].miss {
            miss_us.push(us);
        } else {
            hit_us.push(us);
        }
    }
    let miss_total: f64 = miss_us.iter().sum();
    let op_total: f64 = quiet_us(&recs, "op").iter().sum();
    report.set(
        "compiler.lower_miss_ms_p50",
        stats::median(&mut miss_us) / 1e3,
    );
    report.set("compiler.lower_hit_us_p50", stats::median(&mut hit_us));
    report.set("compiler.miss_time_share", miss_total / op_total);

    // Exact counts, per op.
    let ops = w.counts.len() as f64;
    let sum = |f: fn(&OpCounts) -> f64| w.counts.iter().map(f).sum::<f64>();
    report.set("compiler.slots_per_program", sum(|c| c.slots as f64) / ops);
    report.set(
        "compiler.busy_slot_share",
        sum(|c| c.busy_slots as f64) / sum(|c| c.slots as f64),
    );
    report.set("compiler.forced_appends", sum(|c| c.forced_appends as f64));
    let exec_cycles = sum(|c| c.exec.cycles as f64);
    report.set("core.exec_cycles_per_op", exec_cycles / ops);
    report.set("core.stall_cycles", sum(|c| c.exec.stall_cycles as f64));
    report.set("core.sim_cycles_per_op", w.sim_cycles_per_op());
    report.set(
        "verify.predict_mismatch_count",
        sum(|c| c.predict_mismatches as f64),
    );
    let (mut busy, mut capacity) = (0.0, 0.0);
    for (op, c) in w.counts.iter().enumerate() {
        let nodes = w.programs[op / LOWERINGS].config.total_nodes() as f64;
        busy += c.exec.busy_nodes as f64;
        capacity += c.exec.cycles as f64 * nodes;
    }
    report.set("core.utilization", busy / capacity);

    // Simulator and predictor speed.
    let run_ns = 1e3 * quiet_us(&recs, "core.run").iter().sum::<f64>();
    report.set("core.run_ns_per_cycle", run_ns / exec_cycles);
    let mut predict_us = quiet_us(&recs, "verify.predict");
    report.set("verify.predict_us_p50", stats::median(&mut predict_us));

    // Direct probes on each program's iteration schedule, and the model
    // ratios of each program's converged reference solve.
    let lowered: Vec<(LoweredQp, &Program)> = w
        .programs
        .iter()
        .map(|p| {
            let l = w
                .cache
                .lower_cached(&p.variants[0].problem, &p.settings, p.config)
                .expect("cached");
            (l, p)
        })
        .collect();
    report.set(
        "compiler.static_cost_us_p50",
        probe_p50(&lowered, PROBE_REPS, 1e6, |(l, p)| {
            std::hint::black_box(mib_compiler::static_cost(&l.iteration, &p.config));
        }),
    );
    let (mut bound_cycles, mut program_cycles) = (0.0, 0.0);
    let mut speedups = Vec::new();
    for (l, p) in &lowered {
        let path = mib_verify::critical_path(&l.iteration.program, &p.config);
        // Each hop is a tight dependence: its consumer issued exactly one
        // pipeline latency after its producer.
        bound_cycles += (path.hops.len() as u64 * p.config.latency()) as f64;
        program_cycles += path.cycles as f64;
        let r = &p.variants[0].reference;
        let mib_seconds = l.total_seconds(
            r.iterations,
            r.profile.pcg_iters,
            r.iterations.div_ceil(p.settings.check_termination),
            r.profile.factor_count,
        );
        let cpu = CpuModel::new(match p.settings.backend {
            KktBackend::Direct => CpuVariant::Builtin,
            KktBackend::Indirect => CpuVariant::Mkl,
        });
        let work = WorkSummary::from_result(&p.variants[0].problem, &p.settings, r);
        speedups.push(cpu.solve_time(&work) / mib_seconds);
    }
    report.set(
        "verify.critical_path_share",
        (bound_cycles / program_cycles).min(1.0),
    );
    report.set(
        "platforms.speedup_vs_cpu_geomean",
        mib_sparse::vector::geomean(&speedups),
    );

    // The reference solves are the only calls into mib-qp.
    let specs: Vec<_> = w.programs.iter().map(|p| p.spec).collect();
    layers::probe_generate(&specs, &mut report);
    let problems: Vec<&Problem> = w.programs.iter().map(|p| &p.variants[0].problem).collect();
    layers::probe_sparse_and_setup(&problems, &mut report);
    report
}
