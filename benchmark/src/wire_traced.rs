//! The traced run of `wire-closed`: both levels untraced, the latency
//! level again with spans, then direct calls into `mib-serve`, `mib-net`,
//! `mib-obs` and `mib-trace` on the workload's own requests.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mib_net::frame::{self, Frame, FrameReader};
use mib_net::{NetClient, DEFAULT_MAX_FRAME_BYTES};
use mib_qp::{Algorithm, KktBackend, Problem, Settings};
use mib_serve::{
    AdmissionConfig, AdmissionController, Metrics, PatternKey, QpServer, Request, ServeConfig,
    TenantPolicy, Verdict,
};

use crate::awake::Awake;
use crate::harness::{probe_p50, quiet_summary, quiet_time, Budget, Noise, RunOpts};
use crate::layers::{self, PROBE_REPS};
use crate::metrics::Report;
use crate::procfs;
use crate::spans::{quiet_us, totals, Recorder};
use crate::stats;
use crate::traced::{self, PLAIN_SHARE, TRACED_SHARE};
use crate::wire_closed::{boot, tenant_specs, Measured, WireClosed, LATENCY_SHARE, REQUESTS};

/// Seconds each warm-up and each measured saturation run of the
/// observability probe gets.
const OBS_PROBE_SECONDS: f64 = 1.5;

fn sorted_us(recs: &[&Recorder], name: &str) -> Vec<f64> {
    let mut v = quiet_us(recs, name);
    stats::sort(&mut v);
    v
}

/// The traced run: per-layer metrics.
pub fn run_traced(opts: &RunOpts) -> Report {
    let steal = procfs::steal_ticks();
    let mut w = WireClosed::setup(opts.seed);
    let mut report = Report::new();

    // Both levels untraced, as the end-to-end run makes them.
    let mut plain = Measured::new(opts.seed);
    w.latency_level(
        opts.budget(PLAIN_SHARE * LATENCY_SHARE),
        &mut plain,
        &mut Recorder::disabled(),
    );
    w.saturation_level(opts.budget(PLAIN_SHARE * (1.0 - LATENCY_SHARE)), &mut plain);
    Noise::of(&plain.latency, steal).write(&mut report);

    // The latency level again, recording spans.
    let mut on = Recorder::enabled(Instant::now(), 1 << 20, 0);
    let mut spanned = Measured::new(opts.seed);
    w.latency_level(opts.budget(TRACED_SHARE), &mut spanned, &mut on);
    let recs = [&on];
    // The latency level has no throughput of its own: what tracing cost
    // is read off the median op time.
    traced::finish(
        &mut report,
        "wire-closed",
        &recs,
        1e6 / quiet_summary(plain.latency.quiet_op_us()).p50_us,
        1e6 / quiet_summary(spanned.latency.quiet_op_us()).p50_us,
        plain.attempted() + spanned.attempted(),
        plain.failed() + spanned.failed(),
    );

    // Where a request's time goes: the server's own account of queue wait
    // and service, and what is left for the wire and the hand-offs.
    let (queue, service, overhead) = (
        sorted_us(&recs, "serve.queue_wait"),
        sorted_us(&recs, "serve.service"),
        sorted_us(&recs, "net.overhead"),
    );
    report.set(
        "serve.queue_wait_us_p50",
        stats::percentile_sorted(&queue, 0.5),
    );
    report.set(
        "serve.queue_wait_us_p99",
        stats::percentile_sorted(&queue, 0.99),
    );
    report.set(
        "serve.service_us_p50",
        stats::percentile_sorted(&service, 0.5),
    );
    report.set(
        "serve.service_us_p99",
        stats::percentile_sorted(&service, 0.99),
    );
    report.set(
        "net.overhead_us_p50",
        stats::percentile_sorted(&overhead, 0.5),
    );
    report.set(
        "net.overhead_us_p99",
        stats::percentile_sorted(&overhead, 0.99),
    );
    let t = totals(&recs);
    let total = |name: &str| t.get(name).map_or(0.0, |n| n.total_ns as f64);
    let client = total("op");
    report.set("net.overhead_share", total("net.overhead") / client);
    report.set(
        "net.unattributed_share",
        1.0 - (total("serve.queue_wait") + total("serve.service") + total("net.overhead")) / client,
    );

    let mut sat_queue = plain.sat.queue_wait_us.clone();
    report.set("serve.sat_queue_wait_us_p50", stats::median(&mut sat_queue));
    report.set(
        "serve.sat_batch_size_mean",
        plain.sat.batch_sum as f64 / sat_queue.len().max(1) as f64,
    );
    report.set("serve.shed_count", (plain.shed + spanned.shed) as f64);
    report.set(
        "serve.expired_count",
        (plain.expired + spanned.expired) as f64,
    );
    report.set("net.lat_cpu_us_per_op", plain.lat_cpu_us_per_op);
    report.set("net.sat_cpu_us_per_op", plain.sat_cpu_us_per_op);

    probe_codec(&w, &mut report);
    probe_serve(&w, &mut report);
    let specs = tenant_specs();
    layers::probe_generate(&specs, &mut report);
    let problems: Vec<&Problem> = w.traffic.problems.iter().collect();
    layers::probe_sparse_and_setup(&problems, &mut report);

    // Last: an obs-enabled server and the span probe flip the libraries'
    // process-global trace flag for good.
    probe_obs(&mut w, opts, &mut report);
    probe_trace_span(&mut report);
    report
}

/// `net.*` codec metrics: `frame::encode` and `FrameReader` on the
/// workload's own submit frames and on the replies to its set-up ops.
fn probe_codec(w: &WireClosed, report: &mut Report) {
    let submits: Vec<Frame> = w
        .traffic
        .requests
        .iter()
        .enumerate()
        .map(|(i, r)| Frame::Submit {
            request_id: i as u64,
            endpoint: r.endpoint,
            deadline_us: r.deadline.map_or(0, |d| d.as_micros() as u64),
            q: r.params.q.clone(),
            bounds: r.params.bounds.clone(),
            warm_start: r
                .params
                .warm
                .then(|| w.traffic.warm_points[r.endpoint as usize].clone()),
            trace_id: 0,
        })
        .collect();
    let replies: Vec<Frame> = w
        .sample_replies
        .iter()
        .enumerate()
        .map(|(i, reply)| Frame::Response {
            request_id: i as u64,
            reply: reply.clone(),
        })
        .collect();
    for (frames, encode_name, decode_name, bytes_name) in [
        (
            &submits,
            "net.encode_submit_ns_p50",
            "net.decode_submit_ns_p50",
            "net.submit_bytes_mean",
        ),
        (
            &replies,
            "net.encode_reply_ns_p50",
            "net.decode_reply_ns_p50",
            "net.reply_bytes_mean",
        ),
    ] {
        let mut buf = Vec::with_capacity(1 << 16);
        report.set(
            encode_name,
            probe_p50(frames, PROBE_REPS, 1e9, |f| {
                buf.clear();
                frame::encode(black_box(f), &mut buf);
                black_box(&buf);
            }),
        );
        let encoded: Vec<Vec<u8>> = frames.iter().map(frame::encode_to_vec).collect();
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        report.set(
            decode_name,
            probe_p50(&encoded, PROBE_REPS, 1e9, |bytes| {
                reader.extend(black_box(bytes));
                black_box(reader.next_frame().expect("own frame decodes"));
            }),
        );
        report.set(
            bytes_name,
            encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64,
        );
    }
}

/// `serve.*` probes that need no socket, and `net.connect`.
fn probe_serve(w: &WireClosed, report: &mut Report) {
    report.set(
        "serve.pattern_key_us_p50",
        probe_p50(&w.traffic.problems, PROBE_REPS, 1e6, |p| {
            black_box(PatternKey::of(p, KktBackend::Direct, Algorithm::Admm));
        }),
    );
    // Each registration on its own server, so none finds its shard warm.
    let mut register_us: Vec<f64> = w
        .traffic
        .problems
        .iter()
        .map(|p| {
            let mut times: Vec<f64> = (0..PROBE_REPS)
                .map(|_| {
                    let qp = QpServer::new(ServeConfig::default());
                    let owned = p.clone();
                    let us = quiet_time(1, 1e6, || {
                        qp.register(owned.clone(), Settings::default())
                            .expect("tenant registration");
                    });
                    qp.shutdown();
                    us
                })
                .collect();
            stats::quiet_low(&mut times)
        })
        .collect();
    report.set("serve.register_us_p50", stats::median(&mut register_us));

    let admission = AdmissionController::new(AdmissionConfig::default(), Arc::new(Metrics::new()));
    let slot = admission.register("probe", TenantPolicy::default(), Instant::now());
    let mut admit_ns: Vec<f64> = (0..PROBE_REPS * 200)
        .map(|_| {
            quiet_time(1, 1e9, || {
                assert_eq!(admission.admit(slot, Instant::now()), Verdict::Admit);
            })
        })
        .collect();
    report.set("serve.admit_ns_p50", stats::median(&mut admit_ns));

    // The same requests, in process: submit then wait, one in flight, the
    // CPUs kept awake as at the latency level.
    let inproc: Vec<usize> = (0..REQUESTS).collect();
    let awake = Awake::new();
    report.set(
        "serve.inproc_us_p50",
        probe_p50(&inproc, PROBE_REPS, 1e6, |&op| {
            let r = &w.traffic.requests[op];
            let request = Request {
                q: r.params.q.clone(),
                bounds: r.params.bounds.clone(),
                deadline: r.deadline,
                warm_start: r
                    .params
                    .warm
                    .then(|| w.traffic.warm_points[r.endpoint as usize].clone()),
                trace_id: 0,
            };
            let ticket = w
                .stack
                .qp
                .submit(w.stack.tenants[r.endpoint as usize], request)
                .expect("in-process submit");
            assert!(ticket.wait().outcome.is_solved(), "in-process op {op}");
        }),
    );
    awake.stop();

    let addr = w.stack.server.local_addr();
    let mut connect_us: Vec<f64> = (0..PROBE_REPS * 4)
        .map(|_| {
            quiet_time(1, 1e6, || {
                black_box(NetClient::connect(addr, b"benchmark").expect("connect"));
            })
        })
        .collect();
    report.set("net.connect_us_p50", stats::median(&mut connect_us));
}

/// `obs.*`: the saturation level on a fresh server with the observability
/// plane on and a scraper pulling `/metrics` every 100 ms, against the
/// same level on a fresh plain server right before it. Each server is
/// driven for a while before it is measured: after the single-threaded
/// probes the first seconds of a saturation level run at half its rate.
fn probe_obs(w: &mut WireClosed, opts: &RunOpts, report: &mut Report) {
    let (warm_up, budget) = if opts.smoke {
        (Budget::Rounds(1), Budget::Rounds(2))
    } else {
        let seconds = Budget::Seconds(OBS_PROBE_SECONDS);
        (seconds, seconds)
    };
    w.stack = boot(&w.traffic.problems, false);
    w.saturation_level(warm_up, &mut Measured::new(opts.seed));
    let mut off = Measured::new(opts.seed);
    w.saturation_level(budget, &mut off);

    w.stack = boot(&w.traffic.problems, true);
    let admin = w
        .stack
        .server
        .admin_addr()
        .expect("an obs-enabled server has an admin listener");
    let stop = AtomicBool::new(false);
    let mut on = Measured::new(opts.seed);
    let mut scrape_us = std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut times = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let t = Instant::now();
                let (status, _) = mib_obs::http_get(admin, "/metrics").expect("admin /metrics");
                times.push(t.elapsed().as_secs_f64() * 1e6);
                assert_eq!(status, 200, "admin /metrics");
                std::thread::sleep(Duration::from_millis(100));
            }
            times
        });
        w.saturation_level(warm_up, &mut Measured::new(opts.seed));
        w.saturation_level(budget, &mut on);
        stop.store(true, Ordering::Relaxed);
        scraper.join().expect("scraper thread")
    });
    report.set("obs.scrape_us_p50", stats::median(&mut scrape_us));
    report.set(
        "obs.sat_overhead_pct",
        100.0 * (off.sat_ops_per_s() - on.sat_ops_per_s()) / off.sat_ops_per_s(),
    );
    report.attempted += off.attempted() + on.attempted();
    report.failed += off.failed() + on.failed();
    eprintln!(
        "  obs probe: {:.0} req/s obs off, {:.0} req/s obs on",
        off.sat_ops_per_s(),
        on.sat_ops_per_s()
    );
}

/// `trace.span_ns_p50`: the cost of one enabled library span, the
/// calibration every library-side phase share needs.
fn probe_trace_span(report: &mut Report) {
    mib_trace::enable();
    let mut ns: Vec<f64> = (0..10)
        .map(|_| {
            quiet_time(1, 1e9, || {
                for _ in 0..1000 {
                    drop(black_box(mib_trace::span(
                        "bench.probe",
                        mib_trace::Category::Solver,
                    )));
                }
            }) / 1000.0
        })
        .collect();
    mib_trace::disable();
    mib_trace::clear();
    report.set("trace.span_ns_p50", stats::median(&mut ns));
}
