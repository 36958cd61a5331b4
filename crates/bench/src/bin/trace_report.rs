//! Trace report: one problem per benchmark domain, solved on both KKT
//! backends with tracing enabled, plus a cached compile and one serve
//! request each, exporting a Chrome trace-event JSON per domain.
//!
//! Written artifacts:
//!
//! * `results/trace_report.txt` — deterministic summary: fixed seeds,
//!   iteration counts, residuals and event counts only. No wall-clock
//!   quantities appear, so the committed file is stable across runs.
//! * `results/<domain>.trace.json` — the merged per-domain trace in
//!   Chrome trace-event format (load into Perfetto / `chrome://tracing`).
//!   These carry timestamps and are not committed (gitignored).
//!
//! The binary doubles as an end-to-end check: per-iteration residual
//! events must match the returned [`SolveResult`](mib_qp::SolveResult)
//! bitwise, serve spans must nest the solver's spans on the worker
//! thread, and every exported JSON must validate. `scripts/check.sh` runs
//! it in a scratch directory and compares the report with the committed
//! copy byte for byte.

use std::fmt::Write as _;

use mib_bench::eval_settings;
use mib_compiler::ProgramCache;
use mib_core::MibConfig;
use mib_problems::{instance, Domain};
use mib_qp::{KktBackend, SolveTrace, Solver};
use mib_serve::{QpServer, Request, ServeConfig};
use mib_trace::{Category, Event, Trace};

/// Merges `seg` into `acc` (first segment becomes the accumulator).
fn merge_into(acc: &mut Option<Trace>, seg: Trace) {
    match acc {
        Some(t) => t.merge(seg),
        None => *acc = Some(seg),
    }
}

/// Runs one traced segment: enables tracing around `f`, then drains.
fn traced_segment<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    mib_trace::clear();
    mib_trace::enable();
    let out = f();
    mib_trace::disable();
    (out, mib_trace::take())
}

fn solve_segment(body: &mut String, domain: Domain, backend: KktBackend) -> Trace {
    let inst = instance(domain, 0);
    let (result, seg) = traced_segment(|| {
        let mut solver =
            Solver::new(inst.problem.clone(), eval_settings(backend)).expect("solver setup");
        solver.solve()
    });
    assert_eq!(seg.dropped(), 0, "{domain}/{backend:?}: trace overflow");

    let telemetry = SolveTrace::collect(&seg);
    let last = telemetry
        .last_iteration()
        .unwrap_or_else(|| panic!("{domain}/{backend:?}: no iteration events"));
    // The committed guarantee: the trace's terminating residual event is
    // the same f64s the solver returned, bit for bit.
    assert_eq!(
        (last.prim_res.to_bits(), last.dual_res.to_bits()),
        (result.prim_res.to_bits(), result.dual_res.to_bits()),
        "{domain}/{backend:?}: residual events must match the result bitwise"
    );
    assert_eq!(last.iter as usize, result.iterations);

    let _ = writeln!(
        body,
        "  {:<9} status={:<12} iters={:<5} prim_res={:.6e} dual_res={:.6e}",
        format!("{backend:?}"),
        format!("{:?}", result.status),
        result.iterations,
        result.prim_res,
        result.dual_res,
    );
    let _ = writeln!(
        body,
        "            events: iteration={} rho_update={} phase={} pcg_iters={}",
        telemetry.iterations.len(),
        telemetry.rho_updates.len(),
        telemetry.phases.len(),
        telemetry.total_pcg_iters(),
    );
    seg
}

fn compile_segment(body: &mut String, domain: Domain, config: MibConfig) -> Trace {
    let inst = instance(domain, 0);
    let settings = eval_settings(KktBackend::Direct);
    let mut cache = ProgramCache::new();
    let (lowered, seg) = traced_segment(|| {
        let lowered = cache
            .lower_cached(&inst.problem, &settings, config)
            .expect("lowering");
        // The second request hits the cache.
        cache
            .lower_cached(&inst.problem, &settings, config)
            .expect("cached lowering");
        lowered
    });
    assert_eq!(seg.dropped(), 0, "{domain}/compile: trace overflow");

    assert_eq!(
        (cache.misses(), cache.hits()),
        (1, 1),
        "{domain}: miss then hit"
    );
    let schedules = seg
        .records()
        .filter(|r| {
            matches!(
                r.event,
                Event::Begin {
                    name: "schedule",
                    cat: Category::Compiler
                }
            )
        })
        .count();
    let _ = writeln!(
        body,
        "  compile   iteration_slots={} logical={} forced_appends={} \
         schedule_spans={schedules} cache_misses={} cache_hits={}",
        lowered.iteration.slots(),
        lowered.iteration.logical_count(),
        lowered.iteration.forced_appends,
        cache.misses(),
        cache.hits(),
    );
    seg
}

fn serve_segment(body: &mut String, domain: Domain) -> Trace {
    let inst = instance(domain, 0);
    let num_vars = inst.problem.num_vars();
    let (response, seg) = traced_segment(|| {
        let server = QpServer::new(ServeConfig {
            workers_per_shard: 1,
            ..ServeConfig::default()
        });
        let tenant = server
            .register(inst.problem.clone(), eval_settings(KktBackend::Direct))
            .expect("register");
        let response = server
            .submit(tenant, Request::with_q(vec![0.01; num_vars]))
            .expect("submit")
            .wait();
        server.shutdown();
        response
    });
    assert!(
        response.outcome.is_solved(),
        "{domain}: serve request failed: {:?}",
        response.outcome
    );
    assert_eq!(seg.dropped(), 0, "{domain}/serve: trace overflow");

    // Serve spans must nest the solver's spans on the worker thread.
    let worker = seg
        .threads
        .iter()
        .find(|t| t.name.starts_with("mib-serve-"))
        .unwrap_or_else(|| panic!("{domain}: no worker thread trace"));
    let pos = |want_begin: bool, name: &str, cat: Category| -> usize {
        worker
            .records
            .iter()
            .position(|r| match r.event {
                Event::Begin { name: n, cat: c } => want_begin && n == name && c == cat,
                Event::End { name: n, cat: c } => !want_begin && n == name && c == cat,
                _ => false,
            })
            .unwrap_or_else(|| panic!("{domain}: missing {name} span on worker"))
    };
    let order = [
        pos(true, "request", Category::Serve),
        pos(true, "solve_request", Category::Serve),
        pos(true, "solve", Category::Solver),
        pos(false, "solve", Category::Solver),
        pos(false, "solve_request", Category::Serve),
        pos(false, "request", Category::Serve),
    ];
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "{domain}: serve spans must nest solver spans, got {order:?}"
    );

    let batch_marks = seg
        .records()
        .filter(|r| {
            matches!(
                r.event,
                Event::Mark {
                    name: "batch_size",
                    cat: Category::Serve,
                    ..
                }
            )
        })
        .count();
    let _ = writeln!(
        body,
        "  serve     requests=1 batch_marks={batch_marks} span_nesting=ok"
    );
    seg
}

fn main() {
    let config = MibConfig::c32();

    let mut body = String::new();
    body.push_str("== Trace report: per-domain solver/compiler/serve telemetry ==\n");
    body.push_str("(instance 0 of each domain; fixed seeds; deterministic fields only.\n");
    body.push_str(" Chrome trace-event JSON per domain in results/<domain>.trace.json)\n");

    for domain in Domain::all() {
        let _ = writeln!(body, "\n--- domain: {domain} ---");
        let mut trace: Option<Trace> = None;
        for backend in [KktBackend::Direct, KktBackend::Indirect] {
            merge_into(&mut trace, solve_segment(&mut body, domain, backend));
        }
        merge_into(&mut trace, compile_segment(&mut body, domain, config));
        merge_into(&mut trace, serve_segment(&mut body, domain));

        let trace = trace.expect("at least one segment");
        mib_bench::publish(&format!("{domain}.trace.json"), &trace.to_chrome_json());
        let _ = writeln!(body, "  trace     records={} json=valid", trace.len());
    }

    body.push_str("\nAll per-iteration residual events matched the returned\n");
    body.push_str("SolveResult bitwise; all serve spans nested the solver spans.\n");
    mib_bench::emit_report("trace_report", &body);
}
