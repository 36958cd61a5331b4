//! Enabled-mode end-to-end tracing tests: solver telemetry matches the
//! returned result bitwise, kernel spans are sampled on iteration 1 and
//! every 16th, serve request spans nest the solver's spans, and the
//! Chrome trace-event export is valid JSON.
//!
//! The mib-trace enable flag is process-global; cargo runs test binaries
//! sequentially, so this binary owns the flag for its lifetime, and the
//! tests inside serialize on a local lock (mirroring mib-trace's own
//! enabled-mode unit tests).

use std::sync::{Mutex, MutexGuard, PoisonError};

use mib::problems::{instance, portfolio, Domain};
use mib::qp::{Algorithm, KktBackend, Settings, SolveTrace, Solver, Status};
use mib::serve::{QpServer, Request, ServeConfig};
use mib::trace::{Category, Event};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn hold() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn solver_iteration_telemetry_matches_result_bitwise() {
    let _guard = hold();
    for backend in [KktBackend::Direct, KktBackend::Indirect] {
        mib::trace::clear();
        mib::trace::enable();
        let problem = portfolio(30, 5, 7);
        let settings = Settings::with_backend(backend);
        let check_every = settings.check_termination;
        let mut solver = Solver::new(problem, settings).expect("setup");
        let result = solver.solve();
        mib::trace::disable();
        let trace = mib::trace::take();
        assert_eq!(result.status, Status::Solved, "{backend:?}");
        assert_eq!(trace.dropped(), 0);
        // Both backends stop off the regular `check_termination` grid, on
        // a fifth iteration, where they check and adapt ρ every time.
        assert_ne!(
            result.iterations % check_every,
            0,
            "{backend:?}: expected a stop off the check grid"
        );

        let telemetry = SolveTrace::collect(&trace);
        let last = telemetry
            .last_iteration()
            .unwrap_or_else(|| panic!("{backend:?}: no iteration events recorded"));
        // The per-iteration residual events are emitted from the very
        // values the terminating check stores into the result — bitwise.
        assert_eq!(last.prim_res.to_bits(), result.prim_res.to_bits());
        assert_eq!(last.dual_res.to_bits(), result.dual_res.to_bits());
        assert_eq!(last.iter as usize, result.iterations);
        // Every full check, regular or triggered, records one event, and
        // so does every accepted ρ update.
        assert_eq!(telemetry.iterations.len(), result.profile.checks);
        assert_eq!(telemetry.rho_updates.len(), result.profile.rho_updates);
        for u in &telemetry.rho_updates {
            assert_eq!(u.iter % 5, 0, "{backend:?}: ρ update off the 5-grid");
        }
        assert!(
            telemetry.iterations.len() > 1,
            "{backend:?}: expected multiple termination checks"
        );
        // Solver phases all closed: setup spans from Solver::new plus the
        // solve-time spans.
        for phase in ["solve", "admm_loop", "kkt_setup"] {
            assert_eq!(
                telemetry.phases_named(phase).count(),
                1,
                "{backend:?}: phase {phase}"
            );
        }
        if backend == KktBackend::Direct {
            assert!(telemetry.phases_named("factor").count() >= 1);
            // Each ρ update is one refactorization.
            assert!(
                result.profile.rho_updates >= 1,
                "the direct solve must update ρ"
            );
            assert_eq!(
                telemetry.phases_named("refactor").count(),
                result.profile.rho_updates
            );
        } else {
            assert!(
                telemetry.total_pcg_iters() > 0,
                "indirect backend must report PCG iterations"
            );
        }

        // The Chrome export of the same trace is valid JSON with one
        // counter track per iteration event.
        let json = trace.to_chrome_json();
        mib::trace::validate_json(&json)
            .unwrap_or_else(|e| panic!("{backend:?}: invalid trace JSON: {e}"));
        assert!(json.contains("\"residuals\""));
    }
}

/// On the indirect backend adaptive ρ runs at every full check, every
/// fifth iteration: each accepted update records one `RhoUpdate` event,
/// and the events chain from the initial ρ.
#[test]
fn indirect_rho_update_events_match_the_profile() {
    let _guard = hold();
    mib::trace::clear();
    mib::trace::enable();
    let settings = Settings::with_backend(KktBackend::Indirect);
    let rho0 = settings.rho;
    let problem = instance(Domain::Lasso, 16).problem;
    let result = Solver::new(problem, settings).expect("setup").solve();
    mib::trace::disable();
    let trace = mib::trace::take();
    assert_eq!(result.status, Status::Solved);
    assert_eq!(trace.dropped(), 0);
    let updates = SolveTrace::collect(&trace).rho_updates;
    assert_eq!(updates.len(), result.profile.rho_updates);
    assert!(updates.len() >= 2, "{} ρ updates", updates.len());
    let mut rho = rho0;
    for u in &updates {
        assert_eq!(u.iter % 5, 0, "ρ update off the fifth-iteration grid");
        assert_eq!(u.rho_old.to_bits(), rho.to_bits());
        rho = u.rho_new;
    }
}

/// An offline trace samples the kernel spans by the serving rule: each
/// algorithm's first stage span opens on iteration 1 and on every 16th
/// iteration, and on no other.
#[test]
fn offline_traces_sample_kernel_stage_spans_every_16th_iteration() {
    let _guard = hold();
    let pdqp = Settings {
        eps_abs: 1e-5,
        eps_rel: 1e-5,
        ..Settings::with_algorithm(Algorithm::Pdqp)
    };
    for (settings, first_stage) in [
        (Settings::with_backend(KktBackend::Direct), "stage_rhs"),
        (Settings::with_backend(KktBackend::Indirect), "stage_rhs"),
        (pdqp, "stage_gradient"),
    ] {
        let label = format!("{:?}/{:?}", settings.algorithm, settings.backend);
        mib::trace::clear();
        mib::trace::enable();
        let result = Solver::new(portfolio(30, 5, 7), settings)
            .expect("setup")
            .solve();
        mib::trace::disable();
        let trace = mib::trace::take();
        assert_eq!(result.status, Status::Solved, "{label}");
        assert_eq!(trace.dropped(), 0);
        assert!(
            result.iterations > 32,
            "{label}: {} iterations sample too few strides",
            result.iterations
        );

        // Position every sampled iteration among the checks' Iteration
        // events: the checks recorded before it are for earlier
        // iterations, the ones after it for this one or later.
        let mut checked_before: Vec<u32> = Vec::new();
        let mut samples: Vec<(u32, usize)> = Vec::new();
        let mut kernel_begins = 0;
        for r in trace.records() {
            match r.event {
                Event::Begin {
                    name,
                    cat: Category::Kernel,
                } => {
                    kernel_begins += 1;
                    if name == first_stage {
                        let k = if samples.is_empty() {
                            1
                        } else {
                            16 * samples.len() as u32
                        };
                        samples.push((k, checked_before.len()));
                    }
                }
                Event::Iteration { iter, .. } => checked_before.push(iter),
                _ => {}
            }
        }
        assert_eq!(
            samples.len(),
            1 + result.iterations / 16,
            "{label}: kernel spans of {} iterations, sampled every 16th",
            result.iterations
        );
        for &(k, before) in &samples {
            assert!(
                checked_before[..before].iter().all(|&i| i < k)
                    && checked_before[before..].iter().all(|&i| i >= k),
                "{label}: the sample for iteration {k} sits among the wrong checks"
            );
        }
        assert!(kernel_begins > samples.len(), "{label}: one stage only");
    }
}

#[test]
fn serve_request_spans_nest_solver_spans() {
    let _guard = hold();
    mib::trace::clear();
    mib::trace::enable();
    let server = QpServer::new(ServeConfig {
        workers_per_shard: 1,
        ..ServeConfig::default()
    });
    let problem = portfolio(24, 4, 3);
    let num_vars = problem.num_vars();
    let tenant = server
        .register(problem, Settings::default())
        .expect("register");
    let response = server
        .submit(tenant, Request::with_q(vec![0.01; num_vars]))
        .expect("submit")
        .wait();
    assert!(response.outcome.is_solved(), "{:?}", response.outcome);
    server.shutdown();
    mib::trace::disable();
    let trace = mib::trace::take();
    assert_eq!(trace.dropped(), 0);

    // On the worker thread, the request span must enclose the serve-side
    // solve_request span, which must enclose the solver's own solve span:
    // Begin(request) < Begin(solve_request) < Begin(solve) < End(solve)
    // <= End(solve_request) <= End(request), all on one thread.
    let worker = trace
        .threads
        .iter()
        .find(|t| t.name.starts_with("mib-serve-"))
        .expect("worker thread trace present");
    let pos = |pred: &dyn Fn(&Event) -> bool| -> usize {
        worker
            .records
            .iter()
            .position(|r| pred(&r.event))
            .unwrap_or_else(|| panic!("missing record on worker thread"))
    };
    let begin = |name: &'static str, cat: Category| {
        pos(
            &move |e: &Event| matches!(*e, Event::Begin { name: n, cat: c } if n == name && c == cat),
        )
    };
    let end = |name: &'static str, cat: Category| {
        pos(&move |e: &Event| matches!(*e, Event::End { name: n, cat: c } if n == name && c == cat))
    };
    let b_request = begin("request", Category::Serve);
    let b_solve_req = begin("solve_request", Category::Serve);
    let b_solve = begin("solve", Category::Solver);
    let e_solve = end("solve", Category::Solver);
    let e_solve_req = end("solve_request", Category::Serve);
    let e_request = end("request", Category::Serve);
    assert!(
        b_request < b_solve_req
            && b_solve_req < b_solve
            && b_solve < e_solve
            && e_solve < e_solve_req
            && e_solve_req < e_request,
        "serve spans must nest solver spans: \
         {b_request} < {b_solve_req} < {b_solve} < {e_solve} < {e_solve_req} < {e_request}"
    );

    // Iteration events recorded on the worker thread sit under the batch
    // hierarchy, and the whole trace still exports as valid JSON.
    assert!(worker
        .records
        .iter()
        .any(|r| matches!(r.event, Event::Iteration { .. })));
    let json = trace.to_chrome_json();
    mib::trace::validate_json(&json).expect("serve trace JSON");
}
