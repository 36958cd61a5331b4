//! `solve-cold`: set-up plus first solve of mid-size and large instances.
//!
//! The same `mib-qp`/`mib-sparse` layers as `solve-warm` used the other
//! way round — scaling, KKT assembly, ordering, symbolic and numeric LDLᵀ
//! are most of the op — so a change that buys iterate speed by moving work
//! into set-up, or the reverse, is caught.

use std::time::Instant;

use mib_problems::{instance, Domain};
use mib_qp::{Problem, Settings, Solver};

use crate::harness::{run_end_to_end, OpOutcome, RunOpts, SerialWorkload};
use crate::instances::{perturbed_q, result_fingerprint, rng_for};
use crate::layers::{self, SolveMeta};
use crate::metrics::Report;
use crate::spans::Recorder;
use crate::traced;

/// Fixed latency limit of the workload, µs.
pub const LIMIT_US: f64 = 250_000.0;
/// Suite indices: the upper half of the suite, up to its largest.
const INDICES: [usize; 4] = [10, 13, 16, 19];
/// Perturbed linear costs per instance.
const VARIANTS: usize = 2;

/// The workload's state.
pub struct SolveCold {
    seed: u64,
    specs: Vec<(Domain, usize)>,
    /// One problem per op: instance-major, [`VARIANTS`] costs each.
    problems: Vec<Problem>,
    meta: Vec<SolveMeta>,
}

impl SolveCold {
    /// Generates the instances, draws their perturbed costs from `seed`
    /// and completes one op per instance.
    pub fn setup(seed: u64) -> Self {
        let specs: Vec<(Domain, usize)> = Domain::all()
            .into_iter()
            .flat_map(|d| INDICES.map(|i| (d, i)))
            .collect();
        let mut rng = rng_for(seed, 0x434f_4c44);
        let mut problems = Vec::new();
        for &(domain, index) in &specs {
            let base = instance(domain, index).problem;
            for _ in 0..VARIANTS {
                let q = perturbed_q(&base, &mut rng);
                let (p, _, a, l, u) = base.clone().into_parts();
                problems.push(Problem::new(p, q, a, l, u).expect("perturbed cost is valid"));
            }
        }
        let mut w = SolveCold {
            seed,
            specs,
            meta: vec![SolveMeta::default(); problems.len()],
            problems,
        };
        let mut rec = Recorder::disabled();
        for op in (0..w.problems.len()).step_by(VARIANTS) {
            assert!(w.run_op(op, &mut rec).ok, "set-up op {op} failed");
        }
        w
    }
}

impl SerialWorkload for SolveCold {
    fn ops(&self) -> usize {
        self.problems.len()
    }

    fn run_op(&mut self, i: usize, rec: &mut Recorder) -> OpOutcome {
        // `Solver::new` consumes its problem; the caller's copy is not
        // part of the op.
        let owned = self.problems[i].clone();
        let started = Instant::now();
        let span = rec.begin("op", None, i);
        let setup = rec.begin("qp.setup", Some(span), i);
        let mut solver = Solver::new(owned, Settings::default()).expect("valid instance");
        rec.end(setup);
        let solve = rec.begin("qp.solve", Some(span), i);
        let r = solver.solve();
        rec.end(solve);
        rec.end(span);
        let ns = started.elapsed().as_nanos() as u64;

        let ok = r.status.is_solved();
        if !ok {
            let (domain, index) = self.specs[i / VARIANTS];
            eprintln!(
                "CHECK FAILED: solve-cold op {i} (seed {}, {domain} idx {index}): status {}",
                self.seed, r.status
            );
        }
        self.meta[i] = SolveMeta {
            backend: 0,
            iterations: r.iterations,
            flops: r.profile.ops.total(),
            solved: ok,
        };
        OpOutcome {
            ns,
            timer_ns: 0,
            ok,
            // Cold answers must repeat bitwise from round to round.
            fingerprint: result_fingerprint(&r),
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(opts: &RunOpts) -> Report {
    let (_, quiet, report) = run_end_to_end(opts, LIMIT_US, || SolveCold::setup(opts.seed));
    eprintln!(
        "  op_us_p99 is over {} distinct ops: the heaviest instance's time",
        quiet.distinct_ops
    );
    report
}

/// The traced run: per-layer metrics.
pub fn run_traced(opts: &RunOpts) -> Report {
    let mut w = SolveCold::setup(opts.seed);
    let mut report = Report::new();
    let recorder = traced::replay(&mut w, LIMIT_US, opts, "solve-cold", &mut report);
    layers::qp_span_metrics(&[&recorder], &w.meta, &mut report);
    layers::probe_generate(&w.specs, &mut report);
    let bases: Vec<&Problem> = w.problems.iter().step_by(VARIANTS).collect();
    layers::probe_sparse_and_setup(&bases, &mut report);
    report
}
