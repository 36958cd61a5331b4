//! `solve-warm`: parametric re-solves on a pool of warm solvers.
//!
//! The iterate loop and the sparse kernels do almost all the work and
//! set-up none, so this is where a faster solve at the served sizes
//! (n ≤ 110) shows, and where work moved into set-up shows nothing.

use std::time::Instant;

use mib_problems::{instance, Domain};
use mib_qp::{Algorithm, KktBackend, Problem, Settings, SolveResult, Solver};

use crate::harness::{run_end_to_end, OpOutcome, RunOpts, SerialWorkload};
use crate::instances::{result_fingerprint, rng_for, Params};
use crate::layers::{self, backend_index, SolveMeta};
use crate::metrics::Report;
use crate::spans::Recorder;
use crate::traced;

/// Fixed latency limit of the workload, µs.
pub const LIMIT_US: f64 = 5_000.0;
/// Distinct ops per round.
const OPS: usize = 1000;
/// One op in this many is re-solved on a fresh clone of the template and
/// compared bitwise.
const CHECK_EVERY: usize = 50;

/// One pooled solver with what is needed to check it.
struct Entry {
    spec: (Domain, usize),
    template: Solver,
    pooled: Solver,
    warm_point: (Vec<f64>, Vec<f64>),
}

struct Op {
    entry: usize,
    q: Vec<f64>,
    l: Vec<f64>,
    u: Vec<f64>,
    warm: bool,
}

/// The workload's state.
pub struct SolveWarm {
    seed: u64,
    entries: Vec<Entry>,
    ops: Vec<Op>,
    result: SolveResult,
}

/// Iteration cap of every pooled solver: far above what any op needs
/// (PDQP on an unlucky perturbation takes a few thousand), so that no seed
/// turns a slow op into a failed one.
const MAX_ITER: usize = 100_000;

fn pool_settings() -> Vec<(Settings, &'static [usize], bool)> {
    let with_cap = |mut s: Settings| {
        s.max_iter = MAX_ITER;
        s
    };
    vec![
        // The served sizes, direct.
        (with_cap(Settings::default()), &[0, 1, 2], true),
        (
            with_cap(Settings::with_backend(KktBackend::Indirect)),
            &[1],
            true,
        ),
        // PDQP needs thousands of iterations on the MPC structure, which
        // would make that one pool entry most of a round: left out.
        (
            with_cap(Settings::with_algorithm(Algorithm::Pdqp)),
            &[1],
            false,
        ),
    ]
}

fn apply(solver: &mut Solver, op: &Op, warm_point: &(Vec<f64>, Vec<f64>)) {
    solver.update_q(&op.q).expect("perturbed q is valid");
    solver
        .update_bounds(&op.l, &op.u)
        .expect("perturbed bounds are valid");
    solver.reset();
    if op.warm {
        solver.warm_start(&warm_point.0, &warm_point.1);
    }
}

impl SolveWarm {
    /// Builds the pool, draws the op list from `seed` and completes one
    /// solve per pool entry.
    pub fn setup(seed: u64) -> Self {
        let mut entries = Vec::new();
        for (settings, indices, with_mpc) in pool_settings() {
            for domain in Domain::all() {
                if domain == Domain::Mpc && !with_mpc {
                    continue;
                }
                for &index in indices {
                    let template = Solver::new(instance(domain, index).problem, settings.clone())
                        .expect("suite instance is valid");
                    let reference = template.clone().solve();
                    entries.push(Entry {
                        spec: (domain, index),
                        pooled: template.clone(),
                        template,
                        warm_point: (reference.x, reference.y),
                    });
                }
            }
        }
        let mut rng = rng_for(seed, 0x5741_524d);
        let ops = (0..OPS)
            .map(|i| {
                // Round-robin, so every seed gives each pool entry the
                // same share of the round.
                let entry = i % entries.len();
                let problem = entries[entry].template.problem();
                let params = Params::draw(problem, &mut rng);
                let (l, u) = params
                    .bounds
                    .unwrap_or_else(|| (problem.l().to_vec(), problem.u().to_vec()));
                Op {
                    entry,
                    q: params.q.unwrap_or_else(|| problem.q().to_vec()),
                    l,
                    u,
                    warm: params.warm,
                }
            })
            .collect();
        let mut w = SolveWarm {
            seed,
            entries,
            ops,
            result: SolveResult::default(),
        };
        for entry in &mut w.entries {
            entry.pooled.solve_into(&mut w.result);
            assert!(w.result.status.is_solved(), "set-up solve failed");
        }
        w
    }

    fn problems(&self) -> Vec<&Problem> {
        self.entries.iter().map(|e| e.template.problem()).collect()
    }

    /// The exact counts of every op, from a fresh clone of its template
    /// (a pooled solver's profile also holds the work of earlier resets).
    fn exact_meta(&self) -> Vec<SolveMeta> {
        self.ops
            .iter()
            .map(|op| {
                let entry = &self.entries[op.entry];
                let mut fresh = entry.template.clone();
                apply(&mut fresh, op, &entry.warm_point);
                let r = fresh.solve();
                SolveMeta {
                    backend: backend_index(entry.template.settings()),
                    iterations: r.iterations,
                    flops: r.profile.ops.total(),
                    solved: r.status.is_solved(),
                }
            })
            .collect()
    }
}

impl SerialWorkload for SolveWarm {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&mut self, i: usize, rec: &mut Recorder) -> OpOutcome {
        let op = &self.ops[i];
        let entry = &mut self.entries[op.entry];
        let started = Instant::now();
        let span = rec.begin("op", None, i);
        let update = rec.begin("qp.update", Some(span), i);
        apply(&mut entry.pooled, op, &entry.warm_point);
        rec.end(update);
        let solve = rec.begin("qp.solve", Some(span), i);
        entry.pooled.solve_into(&mut self.result);
        rec.end(solve);
        rec.end(span);
        let ns = started.elapsed().as_nanos() as u64;

        let r = &self.result;
        let fingerprint = result_fingerprint(r);
        let mut ok = r.status.is_solved();
        if !ok {
            eprintln!(
                "CHECK FAILED: solve-warm op {i} (seed {}, {} idx {}): status {}",
                self.seed, entry.spec.0, entry.spec.1, r.status
            );
        }
        if i.is_multiple_of(CHECK_EVERY) {
            let mut fresh = entry.template.clone();
            apply(&mut fresh, op, &entry.warm_point);
            let want = fresh.solve();
            if result_fingerprint(&want) != fingerprint || want.z != r.z {
                eprintln!(
                    "CHECK FAILED: solve-warm op {i} (seed {}, {} idx {}): pooled answer (obj \
                     {:e}, {} iterations) differs from a fresh clone's (obj {:e}, {} iterations)",
                    self.seed,
                    entry.spec.0,
                    entry.spec.1,
                    r.obj_val,
                    r.iterations,
                    want.obj_val,
                    want.iterations
                );
                ok = false;
            }
        }
        OpOutcome {
            ns,
            timer_ns: 0,
            ok,
            fingerprint,
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(opts: &RunOpts) -> Report {
    run_end_to_end(opts, LIMIT_US, || SolveWarm::setup(opts.seed)).2
}

/// The traced run: per-layer metrics.
pub fn run_traced(opts: &RunOpts) -> Report {
    let mut w = SolveWarm::setup(opts.seed);
    let mut report = Report::new();
    let recorder = traced::replay(&mut w, LIMIT_US, opts, "solve-warm", &mut report);
    layers::qp_span_metrics(&[&recorder], &w.exact_meta(), &mut report);
    let specs: Vec<_> = w.entries.iter().map(|e| e.spec).collect();
    layers::probe_generate(&specs, &mut report);
    layers::probe_sparse_and_setup(&w.problems(), &mut report);
    report
}
