//! End-to-end tail-sampling tests: the flight recorder retains a full
//! span tree — synthetic queue wait, serve-side solve phases, sampled
//! solver kernels — for requests that miss their deadline, keyed by the
//! *client-supplied* trace id; submitting threads keep no records; and
//! thread-buffer overflow surfaces as a monotonic counter in the metrics
//! snapshot.
//!
//! Constructing a [`QpServer`] with the obs plane enabled flips the
//! process-global mib-trace flag, so this binary owns that flag for its
//! lifetime (cargo runs test binaries in separate processes) and the
//! tests inside serialize on a local lock — the same discipline as
//! `tests/trace_pipeline.rs`.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use mib::problems::portfolio;
use mib::qp::{Settings, Status};
use mib::serve::{ObsConfig, Outcome, QpServer, Request, ServeConfig};
use mib::trace::{Category, Event, KeepReason};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn hold() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn deadline_missed_request_retains_queue_solve_and_kernel_stage_spans() {
    let _guard = hold();
    let server = QpServer::new(ServeConfig {
        obs: ObsConfig { enabled: true },
        ..ServeConfig::default()
    });
    // Unattainable tolerances never converge, so the solve provably
    // outlives the 20ms deadline and exits at an in-loop deadline check.
    let tenant = server
        .register(
            portfolio(120, 20, 7),
            Settings {
                eps_abs: 1e-300,
                eps_rel: 0.0,
                max_iter: usize::MAX,
                ..Settings::default()
            },
        )
        .unwrap();

    let trace_id: u128 = (0x0b5e_u128 << 64) | 0xf11e_7001;
    let ticket = server
        .submit(
            tenant,
            Request {
                deadline: Some(Duration::from_millis(20)),
                ..Request::default()
            }
            .traced(trace_id),
        )
        .unwrap();
    let response = ticket.wait();
    let iterations = match &response.outcome {
        Outcome::Finished(r) => {
            assert_eq!(r.status, Status::TimedOut);
            r.iterations
        }
        other => panic!("expected an in-solve deadline miss, got {other:?}"),
    };

    let obs = server.obs();
    let record = obs
        .flight()
        .lookup(trace_id)
        .expect("deadline-missed request must be retained under the client id");
    assert_eq!(record.reason, KeepReason::DeadlineMissed);

    let begins: Vec<&str> = record
        .records
        .iter()
        .filter_map(|r| match &r.event {
            Event::Begin { name, .. } => Some(*name),
            _ => None,
        })
        .collect();
    for phase in ["queue_wait", "request", "solve_request", "solve"] {
        assert!(
            begins.contains(&phase),
            "flight trace missing the {phase} span; got {begins:?}"
        );
    }
    // Kernel spans are sampled: iteration 1 and every 16th after it.
    let rhs_spans = begins.iter().filter(|&&name| name == "stage_rhs").count();
    assert_eq!(
        rhs_spans,
        1 + iterations / 16,
        "kernel spans of {iterations} iterations, sampled every 16th"
    );
    assert!(record
        .records
        .iter()
        .any(|r| r.event.category() == Category::Kernel));

    // The Chrome export carries the whole tree under the formatted id.
    let json = record.to_chrome_json();
    for needle in ["queue_wait", "solve_request", "traceEvents"] {
        assert!(json.contains(needle), "chrome export missing {needle}");
    }

    server.shutdown();
}

#[test]
fn submitting_threads_keep_no_trace_records() {
    let _guard = hold();
    let server = QpServer::new(ServeConfig {
        obs: ObsConfig { enabled: true },
        ..ServeConfig::default()
    });
    let tenant = server
        .register(portfolio(24, 4, 3), Settings::default())
        .unwrap();
    std::thread::scope(|scope| {
        for i in 0..3 {
            let server = &server;
            std::thread::Builder::new()
                .name(format!("obs-submitter-{i}"))
                .spawn_scoped(scope, move || {
                    for _ in 0..200 {
                        let response = server.submit(tenant, Request::default()).unwrap().wait();
                        assert!(response.outcome.is_solved());
                    }
                })
                .unwrap();
        }
    });
    server.shutdown();
    let kept: Vec<(String, usize)> = mib::trace::take()
        .threads
        .into_iter()
        .filter(|t| t.name.starts_with("obs-submitter-"))
        .map(|t| (t.name, t.records.len()))
        .collect();
    assert!(kept.is_empty(), "submitting threads kept records: {kept:?}");
}

#[test]
fn trace_buffer_overflow_is_counted_and_rendered() {
    let _guard = hold();
    mib::trace::clear();
    mib::trace::enable();
    let before = mib::trace::total_dropped();
    for _ in 0..(mib::trace::BUFFER_CAPACITY + 64) {
        mib::trace::record(Event::Mark {
            name: "overflow_probe",
            cat: Category::Serve,
            value: 1.0,
        });
    }
    let after = mib::trace::total_dropped();
    assert!(
        after >= before + 64,
        "overflowing the thread buffer must count drops ({before} -> {after})"
    );
    mib::trace::clear();

    // The serve metrics snapshot exposes the same monotonic counter.
    let server = QpServer::new(ServeConfig::default());
    let text = server.metrics().render();
    let line = text
        .lines()
        .find(|l| l.starts_with("mib_trace_dropped_records_total "))
        .expect("render must expose the trace drop counter");
    let rendered: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("counter value parses");
    assert!(
        rendered >= after,
        "rendered drop counter ({rendered}) must cover the observed drops ({after})"
    );
    server.shutdown();
}
