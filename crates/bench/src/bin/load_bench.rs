//! load_bench: a trace-driven, socket-level load generator for the
//! `mib-net` front-end.
//!
//! Scales the `serve_bench` request mix — five benchmark domains, two
//! tenant instances each, parametric `q`/bounds perturbations, warm
//! starts, tight deadlines, explicit cancels, plus portfolio-routed
//! traffic — to **a million requests over real TCP sockets**. Every
//! request is generated from a per-request seed, so any answer can be
//! re-derived after the fact: a deterministic sample of the Solved
//! replies is re-solved directly (same parameters, same template) and
//! compared **bitwise** — transported answers must be exactly the
//! in-process answers.
//!
//! Two drive modes, selectable with `--mode`:
//!
//! * **closed** (default) — each client keeps a fixed window of
//!   requests in flight and submits as answers return; measures peak
//!   sustainable throughput.
//! * **open** — each client submits on a fixed schedule regardless of
//!   completions (bounded only by a large in-flight cap); measures
//!   behavior under offered load. The default open rate is derived from
//!   the measured closed-loop throughput.
//!
//! Load shedding is explicit end to end: a shed request is answered
//! with a `Shed` frame carrying the reason and a retry hint, and the
//! client retries it after the hint. The run fails if any shed arrives
//! with an unexplained reason, if any protocol error occurs, or if any
//! request goes unanswered (a hung connection).
//!
//! A final phase prices the observability plane: the same closed-loop
//! workload runs on a fresh obs-disabled server and again on a fresh
//! obs-enabled one (admin listener up, a scraper thread pulling
//! `/metrics`, `/slo` and `/healthz` throughout). Full runs assert the
//! plane costs < 5% of closed-loop throughput and record the figure as
//! `obs_overhead_pct` on the `net-closed` run object; every run asserts
//! the quiesced admin `/metrics` scrape is byte-identical to the
//! in-process `Metrics::render()` snapshot.
//!
//! `--smoke` shrinks the run for `scripts/check.sh`: a few thousand
//! requests through both loop modes plus a rate-limited tenant phase
//! that must observe explicit `RateLimited` sheds. Smoke runs print
//! their report without touching `results/`; full runs merge their run
//! objects (modes `net-closed` / `net-open`) into
//! `results/BENCH_serve.json` next to `serve_bench`'s in-process run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mib_bench::serve_json::{merge_bench_serve, LatencySummary, ServeRun};
use mib_net::{
    ClientEvent, EndpointSpec, EndpointTarget, NetClient, NetConfig, NetServer, ReplyCode,
    ShedReason, TenantAuth, WireReply,
};
use mib_problems::{instance, Domain};
use mib_qp::{Algorithm, Settings, Solver};
use mib_serve::{
    Histogram, Metrics, ObsConfig, QpServer, ServeConfig, TenantPolicy, LATENCY_BUCKETS_US,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DOMAINS: [Domain; 5] = [
    Domain::Portfolio,
    Domain::Lasso,
    Domain::Huber,
    Domain::Mpc,
    Domain::Svm,
];
const TENANTS_PER_DOMAIN: usize = 2;
/// Direct endpoints 0..10, routed endpoints 10..15.
const DIRECT_ENDPOINTS: usize = DOMAINS.len() * TENANTS_PER_DOMAIN;
const ROUTED_ENDPOINTS: usize = DOMAINS.len();
/// Every `ROUTED_EVERY`-th request goes to a routed portfolio endpoint.
const ROUTED_EVERY: u64 = 8;
/// Seed base; request `i` is generated from `SEED_BASE + i`.
const SEED_BASE: u64 = 0x10ad_bec4;

const TOKEN_UNLIMITED: &[u8] = b"load-bench-unlimited";
const TOKEN_LIMITED: &[u8] = b"load-bench-limited";

/// Client-side view of one generated request.
struct GenRequest {
    endpoint: u32,
    deadline: Option<Duration>,
    cancel: bool,
    q: Option<Vec<f64>>,
    bounds: Option<(Vec<f64>, Vec<f64>)>,
    warm_start: Option<(Vec<f64>, Vec<f64>)>,
}

/// The problem/template context shared by generators and verifiers.
struct Mix {
    problems: Vec<mib_qp::Problem>,
    templates: Vec<Solver>,
    warm_points: Vec<(Vec<f64>, Vec<f64>)>,
    routed_problems: Vec<mib_qp::Problem>,
    /// Indexed `[portfolio][Algorithm::index()]`.
    routed_templates: Vec<[Solver; 2]>,
}

fn portfolio_settings(algorithm: Algorithm) -> Settings {
    let mut s = Settings::with_algorithm(algorithm);
    s.eps_abs = 1e-5;
    s.eps_rel = 1e-5;
    s.max_iter = match algorithm {
        Algorithm::Admm => 50_000,
        Algorithm::Pdqp => 2_000_000,
    };
    s
}

/// Regenerates request `i` of the trace — identical on every call, so a
/// sampled reply can be verified long after the request was sent.
fn generate(i: u64, mix: &Mix) -> GenRequest {
    let mut rng = StdRng::seed_from_u64(SEED_BASE.wrapping_add(i));
    if i % ROUTED_EVERY == ROUTED_EVERY - 1 {
        // Routed portfolio traffic: parametric only (mirrors
        // serve_bench's make_routed_request).
        let p = rng.gen_range(0..ROUTED_ENDPOINTS);
        let problem = &mix.routed_problems[p];
        let mut q = problem.q().to_vec();
        for qi in q.iter_mut() {
            *qi += 0.05 * (rng.gen::<f64>() - 0.5);
        }
        let bounds = (rng.gen::<f64>() < 0.3).then(|| {
            let l = problem.l().to_vec();
            let mut u = problem.u().to_vec();
            for ui in u.iter_mut() {
                if ui.is_finite() {
                    *ui += 0.1 * rng.gen::<f64>();
                }
            }
            (l, u)
        });
        return GenRequest {
            endpoint: (DIRECT_ENDPOINTS + p) as u32,
            deadline: None,
            cancel: false,
            q: Some(q),
            bounds,
            warm_start: None,
        };
    }
    // Direct tenant traffic (mirrors serve_bench's make_request).
    let t = rng.gen_range(0..DIRECT_ENDPOINTS);
    let problem = &mix.problems[t];
    let q = (rng.gen::<f64>() < 0.8).then(|| {
        let mut q = problem.q().to_vec();
        for qi in q.iter_mut() {
            *qi += 0.05 * (rng.gen::<f64>() - 0.5);
        }
        q
    });
    let bounds = (rng.gen::<f64>() < 0.3).then(|| {
        let l = problem.l().to_vec();
        let mut u = problem.u().to_vec();
        for ui in u.iter_mut() {
            if ui.is_finite() {
                *ui += 0.1 * rng.gen::<f64>();
            }
        }
        (l, u)
    });
    let deadline = match rng.gen_range(0..20usize) {
        0 => Some(Duration::from_micros(rng.gen_range(1..50u64))),
        1 | 2 => Some(Duration::from_secs(30)),
        _ => None,
    };
    let cancel = rng.gen::<f64>() < 0.01;
    let warm_start = (rng.gen::<f64>() < 0.1).then(|| mix.warm_points[t].clone());
    GenRequest {
        endpoint: t as u32,
        deadline,
        cancel,
        q,
        bounds,
        warm_start,
    }
}

/// Per-client tallies of one phase.
#[derive(Default)]
struct ClientStats {
    replies_by_code: [u64; 9],
    sheds_rate_limited: u64,
    sheds_over_share: u64,
    sheds_queue_full: u64,
    retries: u64,
    /// Sampled Solved replies kept for post-run verification.
    sampled: Vec<(u64, WireReply)>,
    /// Fatal events that must never happen.
    errors: Vec<String>,
    unanswered: u64,
}

struct PhaseResult {
    wall: Duration,
    completed: u64,
    e2e: Histogram<10>,
    stats: Vec<ClientStats>,
}

/// The server-side `queue_wait` and `service` samples of one phase: what
/// the server's cumulative registry gained while the phase ran.
struct PhaseSeries {
    queue_wait: Histogram<10>,
    service: Histogram<10>,
}

/// Runs one phase against the server whose registry is `metrics` and
/// takes that phase's own server-side series from it.
fn run_measured(
    metrics: &Metrics,
    phase: impl FnOnce() -> PhaseResult,
) -> (PhaseResult, PhaseSeries) {
    let queue_wait = metrics.queue_wait.snapshot();
    let service = metrics.service.snapshot();
    let result = phase();
    let series = PhaseSeries {
        queue_wait: metrics.queue_wait.since(&queue_wait),
        service: metrics.service.since(&service),
    };
    (result, series)
}

/// Drives `total` requests through `clients` connections.
///
/// `pace`: `None` = closed loop with a fixed in-flight window; `Some(d)`
/// = open loop with one submission per `d` per client.
#[allow(clippy::too_many_lines)]
fn run_phase(
    addr: std::net::SocketAddr,
    mix: &Mix,
    total: u64,
    clients: u64,
    pace: Option<Duration>,
    sample_every: u64,
    id_offset: u64,
) -> PhaseResult {
    let window: usize = if pace.is_some() { 4096 } else { 64 };
    let e2e = Histogram::<10>::new(LATENCY_BUCKETS_US);
    let started = Instant::now();
    let stats: Vec<ClientStats> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let e2e = &e2e;
            handles.push(s.spawn(move || {
                let mut st = ClientStats::default();
                let mut client =
                    NetClient::connect(addr, TOKEN_UNLIMITED).expect("connect load client");
                // In-flight bookkeeping: id -> (trace index, submit time).
                let mut inflight: HashMap<u64, (u64, Instant)> = HashMap::new();
                // This client's strided slice of the trace.
                let mut next_slot = c;
                let mut submitted = 0u64;
                let my_total = total / clients + u64::from(c < total % clients);
                let mut completed = 0u64;
                let phase_started = Instant::now();

                while completed < my_total {
                    // Submit while there is room (closed loop) or while
                    // the schedule says we are due (open loop).
                    let due = |submitted: u64| match pace {
                        None => true,
                        Some(d) => {
                            phase_started.elapsed()
                                >= d * u32::try_from(submitted).unwrap_or(u32::MAX)
                        }
                    };
                    while submitted < my_total && inflight.len() < window && due(submitted) {
                        let i = id_offset + next_slot;
                        next_slot += clients;
                        submitted += 1;
                        let g = generate(i, mix);
                        inflight.insert(i, (i, Instant::now()));
                        client
                            .submit(i, g.endpoint, g.deadline, g.q, g.bounds, g.warm_start)
                            .expect("submit over socket");
                        if g.cancel {
                            client.cancel(i).expect("cancel over socket");
                        }
                    }
                    // Drain one event (short timeout keeps the open-loop
                    // schedule honest).
                    let timeout = if pace.is_some() {
                        Duration::from_millis(1)
                    } else {
                        Duration::from_mins(1)
                    };
                    match client.recv_timeout(timeout) {
                        Some(ClientEvent::Reply { request_id, reply }) => {
                            let Some((i, at)) = inflight.remove(&request_id) else {
                                st.errors.push(format!("reply for unknown id {request_id}"));
                                continue;
                            };
                            e2e.observe_duration(at.elapsed());
                            st.replies_by_code[reply_code_index(reply.code)] += 1;
                            if reply.code == ReplyCode::Solved && i % sample_every == 0 {
                                st.sampled.push((i, reply));
                            }
                            completed += 1;
                        }
                        Some(ClientEvent::Shed {
                            request_id,
                            reason,
                            retry_after_us,
                            ..
                        }) => {
                            match reason {
                                ShedReason::RateLimited => st.sheds_rate_limited += 1,
                                ShedReason::OverShare => st.sheds_over_share += 1,
                                ShedReason::QueueFull => st.sheds_queue_full += 1,
                            }
                            // Retry after the hint: a shed is explicit
                            // backpressure, not an answer.
                            let Some((i, _)) = inflight.remove(&request_id) else {
                                st.errors.push(format!("shed for unknown id {request_id}"));
                                continue;
                            };
                            std::thread::sleep(
                                Duration::from_micros(retry_after_us.min(5_000))
                                    .max(Duration::from_micros(100)),
                            );
                            let g = generate(i, mix);
                            inflight.insert(i, (i, Instant::now()));
                            st.retries += 1;
                            client
                                .submit(i, g.endpoint, g.deadline, g.q, g.bounds, g.warm_start)
                                .expect("re-submit over socket");
                        }
                        Some(ClientEvent::Error { code, message }) => {
                            st.errors.push(format!("server error {code}: {message}"));
                            break;
                        }
                        Some(ClientEvent::Goodbye | ClientEvent::Disconnected) => {
                            st.errors.push("connection ended mid-phase".into());
                            break;
                        }
                        None if pace.is_some() => {}
                        None => {
                            st.errors.push(format!(
                                "timed out with {} requests in flight",
                                inflight.len()
                            ));
                            break;
                        }
                    }
                }
                st.unanswered = inflight.len() as u64;
                // Clean half-close: no more requests, server confirms.
                if st.errors.is_empty() && st.unanswered == 0 {
                    client.goodbye().expect("goodbye over socket");
                    loop {
                        match client.recv_timeout(Duration::from_secs(30)) {
                            Some(ClientEvent::Goodbye) => break,
                            Some(ClientEvent::Disconnected) | None => {
                                st.errors.push("no Goodbye confirmation".into());
                                break;
                            }
                            Some(_) => {}
                        }
                    }
                }
                st
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();
    let completed = stats
        .iter()
        .map(|s| s.replies_by_code.iter().sum::<u64>())
        .sum();
    PhaseResult {
        wall,
        completed,
        e2e,
        stats,
    }
}

fn reply_code_index(code: ReplyCode) -> usize {
    match code {
        ReplyCode::Solved => 0,
        ReplyCode::MaxIterations => 1,
        ReplyCode::PrimalInfeasible => 2,
        ReplyCode::DualInfeasible => 3,
        ReplyCode::TimedOut => 4,
        ReplyCode::Cancelled => 5,
        ReplyCode::Expired => 6,
        ReplyCode::CancelledQueued => 7,
        ReplyCode::Failed => 8,
    }
}

const REPLY_CODE_NAMES: [&str; 9] = [
    "solved",
    "max_iterations",
    "primal_infeasible",
    "dual_infeasible",
    "timed_out",
    "cancelled",
    "expired_queued",
    "cancelled_queued",
    "failed",
];

/// Bitwise-verifies one sampled Solved reply against a direct solve of
/// the regenerated request. Routed samples are checked against both
/// backend templates (the wire reply does not say which one served it);
/// matching either is exact agreement.
fn verify_sample(i: u64, reply: &WireReply, mix: &Mix) -> Result<(), String> {
    let g = generate(i, mix);
    let endpoint = g.endpoint as usize;
    let solve_direct = |template: &Solver, problem: &mib_qp::Problem| {
        let mut solver = template.clone();
        let q = g.q.clone().unwrap_or_else(|| problem.q().to_vec());
        let (l, u) = g
            .bounds
            .clone()
            .unwrap_or_else(|| (problem.l().to_vec(), problem.u().to_vec()));
        solver.update_q(&q).expect("reference update_q");
        solver
            .update_bounds(&l, &u)
            .expect("reference update_bounds");
        solver.reset();
        if let Some((x, y)) = &g.warm_start {
            solver.warm_start(x, y);
        }
        solver.solve()
    };
    let matches = |result: &mib_qp::SolveResult| {
        result.status == mib_qp::Status::Solved
            && result.iterations == reply.iterations as usize
            && result.obj_val.to_bits() == reply.obj_val.to_bits()
            && result.x.len() == reply.x.len()
            && result
                .x
                .iter()
                .zip(&reply.x)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && result
                .y
                .iter()
                .zip(&reply.y)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    };
    if endpoint < DIRECT_ENDPOINTS {
        let result = solve_direct(&mix.templates[endpoint], &mix.problems[endpoint]);
        if matches(&result) {
            Ok(())
        } else {
            Err(format!(
                "request {i} (endpoint {endpoint}): wire answer differs from the direct solve \
                 (obj {:e} vs {:e}, iters {} vs {})",
                reply.obj_val, result.obj_val, reply.iterations, result.iterations
            ))
        }
    } else {
        let p = endpoint - DIRECT_ENDPOINTS;
        let problem = &mix.routed_problems[p];
        let ok = mix.routed_templates[p]
            .iter()
            .any(|template| matches(&solve_direct(template, problem)));
        if ok {
            Ok(())
        } else {
            Err(format!(
                "routed request {i} (portfolio {p}): wire answer matches neither backend's \
                 direct solve"
            ))
        }
    }
}

/// Builds the client-side problem/template context. Pure derivation
/// from the instance generators — no server state, so a fresh server
/// carrying the same registrations can be verified against it.
fn build_mix() -> Mix {
    let mut problems = Vec::new();
    let mut templates = Vec::new();
    for domain in DOMAINS {
        for index in 0..TENANTS_PER_DOMAIN {
            let spec = instance(domain, index);
            templates.push(
                Solver::new(spec.problem.clone(), Settings::default()).expect("reference template"),
            );
            problems.push(spec.problem);
        }
    }
    let mut routed_problems = Vec::new();
    let mut routed_templates = Vec::new();
    for domain in DOMAINS {
        let spec = instance(domain, TENANTS_PER_DOMAIN);
        routed_templates.push([
            Solver::new(spec.problem.clone(), portfolio_settings(Algorithm::Admm))
                .expect("admm template"),
            Solver::new(spec.problem.clone(), portfolio_settings(Algorithm::Pdqp))
                .expect("pdqp template"),
        ]);
        routed_problems.push(spec.problem);
    }
    let warm_points: Vec<(Vec<f64>, Vec<f64>)> = templates
        .iter()
        .map(|t| {
            let r = t.clone().solve();
            (r.x, r.y)
        })
        .collect();
    Mix {
        problems,
        templates,
        warm_points,
        routed_problems,
        routed_templates,
    }
}

/// Boots a fresh serving stack carrying the full tenant mix behind a
/// socket. With `obs` the observability plane is enabled and the admin
/// listener rides along on its own ephemeral port.
///
/// Note the process-global consequence: the first obs-enabled server
/// turns tracing on for the rest of the process, so any obs-disabled
/// measurement must happen before this is ever called with `obs: true`.
fn boot_server(obs: bool) -> (NetServer, Arc<QpServer>) {
    let config = ServeConfig {
        queue_capacity: 32,
        max_shards: 24,
        obs: ObsConfig {
            enabled: obs,
            ..ObsConfig::default()
        },
        ..ServeConfig::default()
    };
    let qp = Arc::new(QpServer::new(config));
    let mut endpoints = Vec::new();
    for domain in DOMAINS {
        for index in 0..TENANTS_PER_DOMAIN {
            let spec = instance(domain, index);
            let (num_vars, num_constraints) =
                (spec.problem.num_vars(), spec.problem.num_constraints());
            let id = qp
                .register(spec.problem, Settings::default())
                .expect("tenant registration");
            endpoints.push(EndpointSpec {
                target: EndpointTarget::Tenant(id),
                name: format!("{domain:?}[{index}]"),
                num_vars,
                num_constraints,
            });
        }
    }
    for domain in DOMAINS {
        let spec = instance(domain, TENANTS_PER_DOMAIN);
        let id = qp
            .register_portfolio(
                &spec.problem,
                vec![
                    portfolio_settings(Algorithm::Admm),
                    portfolio_settings(Algorithm::Pdqp),
                ],
            )
            .expect("portfolio registration");
        endpoints.push(EndpointSpec {
            target: EndpointTarget::Portfolio(id),
            name: format!("{domain:?}[{TENANTS_PER_DOMAIN}:routed]"),
            num_vars: spec.problem.num_vars(),
            num_constraints: spec.problem.num_constraints(),
        });
    }
    let auth = vec![
        TenantAuth {
            token: TOKEN_UNLIMITED.to_vec(),
            label: "load-unlimited".into(),
            policy: TenantPolicy::default(),
        },
        TenantAuth {
            token: TOKEN_LIMITED.to_vec(),
            label: "load-limited".into(),
            policy: TenantPolicy {
                rate_per_sec: 50.0,
                burst: 10.0,
                weight: 1.0,
            },
        },
    ];
    let cfg = NetConfig {
        admin_addr: obs.then(|| "127.0.0.1:0".to_string()),
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&qp), endpoints, auth, cfg)
        .expect("bind load server");
    (server, qp)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|p| args.get(p + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let total: u64 = flag("--requests").unwrap_or(if smoke { 1_500 } else { 1_000_000 });
    let clients: u64 = flag("--clients").unwrap_or(if smoke { 2 } else { 4 });
    let open_total: u64 = flag("--open-requests").unwrap_or(total / 10);
    let sample_every: u64 = flag("--sample-every").unwrap_or(if smoke { 50 } else { 1_000 });

    eprintln!(
        "load_bench: {total} closed-loop + {open_total} open-loop requests, {clients} clients{}",
        if smoke { " [smoke]" } else { "" }
    );

    // ---- Server side: the serve_bench tenant mix behind a socket. ----
    let mix = build_mix();
    let (mut server, qp) = boot_server(false);
    let addr = server.local_addr();

    let mut body = String::new();
    body.push_str("== load_bench: socket-level load against the mib-net front-end ==\n\n");
    let registry = qp.metrics();
    let mut runs: Vec<(String, PhaseResult, PhaseSeries)> = Vec::new();

    // ---- Phase 1: closed loop (peak sustainable throughput). ----
    let (closed, series) = run_measured(&registry, || {
        run_phase(addr, &mix, total, clients, None, sample_every, 0)
    });
    let closed_rps = closed.completed as f64 / closed.wall.as_secs_f64();
    runs.push(("net-closed".into(), closed, series));

    // ---- Phase 2: open loop at ~70% of the measured closed rate. ----
    let pace = Duration::from_secs_f64(1.0 / (0.7 * closed_rps / clients as f64));
    let (open, series) = run_measured(&registry, || {
        run_phase(
            addr,
            &mix,
            open_total,
            clients,
            Some(pace),
            sample_every,
            total,
        )
    });
    runs.push(("net-open".into(), open, series));

    // ---- Phase 3 (smoke): a rate-limited tenant MUST see sheds. ----
    if smoke {
        let mut client = NetClient::connect(addr, TOKEN_LIMITED).expect("limited client");
        let burst = 200u64;
        let mut sheds = 0u64;
        let mut answered = 0u64;
        for k in 0..burst {
            client
                .submit(k, 0, None, None, None, None)
                .expect("limited submit");
        }
        for _ in 0..burst {
            match client.recv_timeout(Duration::from_mins(1)) {
                Some(ClientEvent::Reply { .. }) => answered += 1,
                Some(ClientEvent::Shed {
                    reason,
                    retry_after_us,
                    ..
                }) => {
                    assert_eq!(
                        reason,
                        ShedReason::RateLimited,
                        "the limited tenant's sheds must be rate-limit sheds"
                    );
                    assert!(retry_after_us > 0, "sheds carry retry hints");
                    sheds += 1;
                }
                other => panic!("limited tenant: unexpected event {other:?}"),
            }
        }
        assert!(
            sheds > 0,
            "a 50 req/s tenant blasting {burst} requests must be shed"
        );
        assert_eq!(answered + sheds, burst, "every request gets an answer");
        let _ = writeln!(
            body,
            "rate-limit gate: {answered} admitted, {sheds} explicit RateLimited sheds \
             (burst {burst}, policy 50 req/s)\n"
        );
    }

    server.shutdown();

    // ---- Verification: hard gates, then sampled bitwise parity. ----
    let mut verified = 0u64;
    for (mode, phase, series) in &runs {
        for st in &phase.stats {
            assert!(
                st.errors.is_empty(),
                "[{mode}] protocol/connection errors: {:?}",
                st.errors
            );
            assert_eq!(st.unanswered, 0, "[{mode}] requests left unanswered");
            assert_eq!(
                st.sheds_rate_limited, 0,
                "[{mode}] the unlimited tenant must never be rate-limited"
            );
            // Queue-full and over-share sheds are legitimate explicit
            // backpressure under load; they were all retried to
            // completion (completed == offered), so nothing is lost.
            let failed = st.replies_by_code[reply_code_index(ReplyCode::Failed)];
            assert_eq!(failed, 0, "[{mode}] no request may fail validation");
        }
        let offered: u64 = phase.completed;
        let expected = if mode == "net-closed" {
            total
        } else {
            open_total
        };
        assert_eq!(offered, expected, "[{mode}] every request must complete");
        // Every answer passed through a shard worker, which records one
        // queue-wait and one service sample before it answers.
        for (name, h) in [
            ("queue_wait", &series.queue_wait),
            ("service", &series.service),
        ] {
            assert_eq!(
                h.count(),
                phase.completed,
                "[{mode}] the {name} series must hold exactly this run's answers"
            );
        }
        for st in &phase.stats {
            for (i, reply) in &st.sampled {
                verify_sample(*i, reply, &mix).expect("bitwise verification");
                verified += 1;
            }
        }
    }

    // ---- Report. ----
    let c = &registry.counters;
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    assert_eq!(
        load(&c.net_frame_decode_errors),
        0,
        "zero protocol errors across the whole run"
    );
    let mut serve_runs = Vec::new();
    for (mode, phase, series) in &runs {
        let rps = phase.completed as f64 / phase.wall.as_secs_f64();
        let _ = writeln!(
            body,
            "{mode}: {} requests in {:.2} s  ({rps:.0} req/s, {clients} clients)",
            phase.completed,
            phase.wall.as_secs_f64()
        );
        let mut outcomes = Vec::new();
        let mut tally = [0u64; 9];
        let (mut rate_limited, mut over_share, mut queue_full, mut retries) = (0, 0, 0, 0u64);
        for st in &phase.stats {
            for (k, n) in st.replies_by_code.iter().enumerate() {
                tally[k] += n;
            }
            rate_limited += st.sheds_rate_limited;
            over_share += st.sheds_over_share;
            queue_full += st.sheds_queue_full;
            retries += st.retries;
        }
        for (k, name) in REPLY_CODE_NAMES.iter().enumerate() {
            if tally[k] > 0 {
                let _ = writeln!(body, "  {name:<17} {:>8}", tally[k]);
                outcomes.push(((*name).to_string(), tally[k]));
            }
        }
        let _ = writeln!(
            body,
            "  sheds: {queue_full} queue_full, {over_share} over_share, {rate_limited} \
             rate_limited ({retries} retried to completion)"
        );
        let _ = writeln!(
            body,
            "  e2e (client):  mean {:>8.1} us  p50 <= {:>6}  p99 <= {:>8}",
            phase.e2e.mean(),
            phase.e2e.quantile_bound(0.5),
            phase.e2e.quantile_bound(0.99)
        );
        let _ = writeln!(body);
        serve_runs.push(ServeRun {
            mode: mode.clone(),
            requests: phase.completed,
            clients,
            tenants: (DIRECT_ENDPOINTS + ROUTED_ENDPOINTS) as u64,
            wall_seconds: phase.wall.as_secs_f64(),
            throughput_rps: rps,
            verified_bitwise: phase.stats.iter().map(|s| s.sampled.len() as u64).sum(),
            outcomes,
            sheds: vec![
                ("queue_full".to_string(), queue_full),
                ("over_share".to_string(), over_share),
                ("rate_limited".to_string(), rate_limited),
            ],
            latency: vec![
                LatencySummary {
                    name: "e2e_client".into(),
                    mean_us: phase.e2e.mean(),
                    p50_us: phase.e2e.quantile_bound(0.5),
                    p99_us: phase.e2e.quantile_bound(0.99),
                },
                LatencySummary {
                    name: "queue_wait".into(),
                    mean_us: series.queue_wait.mean(),
                    p50_us: series.queue_wait.quantile_bound(0.5),
                    p99_us: series.queue_wait.quantile_bound(0.99),
                },
                LatencySummary {
                    name: "service".into(),
                    mean_us: series.service.mean(),
                    p50_us: series.service.quantile_bound(0.5),
                    p99_us: series.service.quantile_bound(0.99),
                },
            ],
            obs_overhead_pct: None,
        });
    }
    let _ = writeln!(
        body,
        "bitwise parity: {verified}/{verified} sampled answers identical to direct solves \
         (1 in {sample_every})"
    );
    let _ = writeln!(
        body,
        "wire traffic: {} frames received, {} sent, {} decode errors, {} connections",
        load(&c.net_frames_received),
        load(&c.net_frames_sent),
        load(&c.net_frame_decode_errors),
        load(&c.net_connections_opened),
    );
    let _ = writeln!(
        body,
        "admission:    {} admitted, {} shed (rate {} / share {} / queue {})",
        load(&c.admitted),
        load(&c.shed_rate_limited) + load(&c.shed_over_share) + load(&c.shed_queue_full),
        load(&c.shed_rate_limited),
        load(&c.shed_over_share),
        load(&c.shed_queue_full),
    );
    body.push_str("\n-- server metrics snapshot --\n");
    body.push_str(&registry.render());

    // ---- Phase 4: observability overhead + admin-plane scrape. ----
    //
    // The same closed-loop workload runs twice on *fresh* servers: first
    // with the obs plane off (reference), then with the full plane on —
    // tracing, tail sampling, rolling SLO windows — while a scraper
    // thread hammers the admin listener's `/metrics` and `/slo` the
    // whole time. The obs-off reference must come first: constructing an
    // obs-enabled server flips the process-global trace flag for good.
    let obs_total = if smoke { 600 } else { (total / 40).max(10_000) };
    let warmup = (obs_total / 10).max(200);
    // Best-of-N on both sides: single-core machines timeshare the
    // shards, the clients and the scraper, so individual reps are noisy
    // (±10 pp run to run) and slow drift penalizes whichever side runs
    // later; many short reps give each side more draws at its true peak
    // rate, which is the comparable quantity.
    let reps = if smoke { 1 } else { 8 };
    let check_phase = |label: &str, phase: &PhaseResult| {
        for st in &phase.stats {
            assert!(
                st.errors.is_empty(),
                "[{label}] protocol/connection errors: {:?}",
                st.errors
            );
            assert_eq!(st.unanswered, 0, "[{label}] requests left unanswered");
        }
        assert_eq!(
            phase.completed, obs_total,
            "[{label}] every request must complete"
        );
    };
    let (mut ref_server, _ref_qp) = boot_server(false);
    let ref_addr = ref_server.local_addr();
    run_phase(ref_addr, &mix, warmup, clients, None, u64::MAX, 0);
    let mut ref_rps = 0.0f64;
    for _ in 0..reps {
        let phase = run_phase(ref_addr, &mix, obs_total, clients, None, u64::MAX, 0);
        check_phase("obs-off", &phase);
        ref_rps = ref_rps.max(phase.completed as f64 / phase.wall.as_secs_f64());
    }
    ref_server.shutdown();

    let (mut obs_server, obs_qp) = boot_server(true);
    let obs_addr = obs_server.local_addr();
    let admin = obs_server
        .admin_addr()
        .expect("obs server exposes an admin listener");
    eprintln!("admin plane listening on http://{admin} (/metrics /slo /healthz /trace/<id>)");
    let stop = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicU64::new(0));
    let scraper = {
        let (stop, scrapes) = (Arc::clone(&stop), Arc::clone(&scrapes));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for path in ["/metrics", "/slo", "/healthz"] {
                    if let Ok((status, body)) = mib_obs::http_get(admin, path) {
                        assert!(
                            status == 200 || (path == "/healthz" && status == 503),
                            "admin {path} returned {status}: {body}"
                        );
                        scrapes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };
    run_phase(obs_addr, &mix, warmup, clients, None, u64::MAX, 0);
    let mut obs_rps = 0.0f64;
    for _ in 0..reps {
        let phase = run_phase(obs_addr, &mix, obs_total, clients, None, u64::MAX, 0);
        check_phase("obs-on", &phase);
        obs_rps = obs_rps.max(phase.completed as f64 / phase.wall.as_secs_f64());
    }
    stop.store(true, Ordering::Relaxed);
    scraper.join().expect("scraper thread");
    let overhead_pct = (ref_rps - obs_rps) / ref_rps * 100.0;

    // Quiesced cross-checks: the admin scrape must be byte-identical to
    // the in-process snapshot (retry while writer-thread counters
    // settle), and `/healthz` must report a coherent verdict.
    let mut scrape_matches = false;
    for _ in 0..100 {
        let (status, scraped) = mib_obs::http_get(admin, "/metrics").expect("admin /metrics");
        assert_eq!(status, 200, "admin /metrics must answer 200");
        if scraped == obs_qp.metrics().render() {
            scrape_matches = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        scrape_matches,
        "admin /metrics must converge to the exact in-process Metrics::render() bytes"
    );
    let (hz_status, hz_body) = mib_obs::http_get(admin, "/healthz").expect("admin /healthz");
    assert!(
        (hz_status == 200 && hz_body.starts_with("ok"))
            || (hz_status == 503 && hz_body.starts_with("shedding")),
        "admin /healthz verdict must be coherent, got {hz_status}: {hz_body}"
    );
    let (slo_status, slo_body) = mib_obs::http_get(admin, "/slo").expect("admin /slo");
    assert!(
        slo_status == 200 && slo_body.contains("mib_slo_burn_rate"),
        "admin /slo must expose burn rates, got {slo_status}"
    );
    obs_server.shutdown();

    let _ = writeln!(
        body,
        "\nobs overhead: {obs_total} closed-loop requests, obs off {ref_rps:.0} req/s vs obs on \
         {obs_rps:.0} req/s => {overhead_pct:+.2}% ({} admin scrapes mid-run, /healthz {})",
        scrapes.load(Ordering::Relaxed),
        hz_body.lines().next().unwrap_or(""),
    );
    if !smoke {
        assert!(
            overhead_pct < 5.0,
            "full observability must cost < 5% closed-loop throughput, measured {overhead_pct:.2}%"
        );
        if let Some(run) = serve_runs.iter_mut().find(|r| r.mode == "net-closed") {
            run.obs_overhead_pct = Some(overhead_pct);
        }
    }

    if smoke {
        println!("{body}");
        eprintln!("(smoke mode: results/BENCH_serve.json not rewritten)");
    } else {
        mib_bench::emit_report("load_trace", &body);
        for run in &serve_runs {
            match merge_bench_serve(run) {
                Ok(path) => eprintln!("({} run merged into {})", run.mode, path.display()),
                Err(e) => eprintln!("warning: could not write BENCH_serve.json: {e}"),
            }
        }
    }
}
