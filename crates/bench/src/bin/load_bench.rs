//! load_bench: the serving stack's load harness, in process and over
//! TCP.
//!
//! One request mix — five benchmark domains, two tenant instances each,
//! parametric `q`/bounds perturbations, warm starts, tight deadlines,
//! explicit cancels — driven at up to a million requests. Every request
//! is generated from a per-request seed, so any answer can be re-derived
//! after the fact: a deterministic sample of the Solved replies is
//! re-solved directly (same parameters, same template) and compared
//! **bitwise** — served answers must be exactly the direct solves,
//! whatever the transport.
//!
//! Three measured runs on one server, in this order:
//!
//! * **inprocess** — closed loop straight into `QpServer::submit`. Each
//!   ticket's `on_ready` callback turns the answer into the reply a
//!   socket client would receive (`mib_net::wire_reply`) and feeds it
//!   into the same client loop, so tallies, sheds and
//!   verification are shared with the TCP runs. What the two closed-loop
//!   runs differ by is the wire and the front-end's admission control.
//! * **net-closed** — the same requests over real sockets: each client
//!   keeps a fixed window of requests in flight and submits as answers
//!   return; measures peak sustainable throughput.
//! * **net-open** — each client submits on a fixed schedule regardless of
//!   completions (bounded only by a large in-flight cap), at ~70 % of the
//!   measured net-closed rate; measures behavior under offered load.
//!
//! Load shedding is explicit end to end: a shed request is answered
//! with a `Shed` event carrying the reason and a retry hint, and the
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
//! in-process `Metrics::render()` snapshot, and that once the obs-enabled
//! stack is shut down no connection or shard-worker thread holds trace
//! records.
//!
//! `--smoke` shrinks the run for `scripts/check.sh`: a few thousand
//! requests through all three runs plus a rate-limited tenant phase that
//! must observe explicit `RateLimited` sheds. Smoke runs print their
//! report without touching `results/`; full runs write
//! `results/load_trace.txt` and the whole of `results/BENCH_serve.json`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mib_bench::answer::OsqpCriterion;
use mib_bench::serve_json::{write_bench_serve, LatencySummary, ServeRun};
use mib_net::{
    wire_reply, ClientEvent, EndpointSpec, EndpointTarget, NetClient, NetConfig, NetServer,
    ReplyCode, ShedReason, TenantAuth, WireReply,
};
use mib_problems::{instance, Domain};
use mib_qp::{Settings, Solver};
use mib_serve::{
    queue_full_retry_after, CancelHandle, Histogram, Metrics, ObsConfig, QpServer, Request,
    ServeConfig, SubmitError, TenantCounters, TenantId, TenantPolicy,
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
/// Catalog endpoints, one per tenant.
const ENDPOINTS: usize = DOMAINS.len() * TENANTS_PER_DOMAIN;
/// Seed base; request `i` is generated from `SEED_BASE + i`.
const SEED_BASE: u64 = 0x10ad_bec4;

const TOKEN_UNLIMITED: &[u8] = b"load-bench-unlimited";
const TOKEN_LIMITED: &[u8] = b"load-bench-limited";
/// Admission labels of the two tokens, unlimited first.
const LABELS: [&str; 2] = ["load-unlimited", "load-limited"];

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
}

/// Regenerates request `i` of the trace — identical on every call, so a
/// sampled reply can be verified long after the request was sent.
fn generate(i: u64, mix: &Mix) -> GenRequest {
    let mut rng = StdRng::seed_from_u64(SEED_BASE.wrapping_add(i));
    let t = rng.gen_range(0..ENDPOINTS);
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
    /// Indexed by wire reply code.
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
    e2e: Histogram,
    stats: Vec<ClientStats>,
}

/// The server-side `queue_wait` and `service` samples of one phase: what
/// the server's cumulative registry gained while the phase ran.
struct PhaseSeries {
    queue_wait: Histogram,
    service: Histogram,
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

/// How a phase's clients reach the serving stack.
#[derive(Clone, Copy)]
enum Transport<'a> {
    /// Straight into the runtime, with the catalog's tenants.
    InProcess(&'a Stack),
    /// Over a socket to the stack's front-end.
    Tcp(SocketAddr),
}

/// One client's connection: a socket, or the runtime itself behind the
/// same event stream.
enum Conn {
    Wire(NetClient),
    Local(LocalClient),
}

/// The in-process transport: submits straight to the `QpServer` and turns
/// each outcome into the [`ClientEvent`] a socket client would receive —
/// answers through `wire_reply`, a full queue as a `QueueFull` shed.
struct LocalClient {
    qp: Arc<QpServer>,
    tenants: Vec<TenantId>,
    tx: Sender<ClientEvent>,
    events: Receiver<ClientEvent>,
    /// Cancel handles of the requests not yet answered.
    tickets: HashMap<u64, CancelHandle>,
}

impl LocalClient {
    fn submit(&mut self, request_id: u64, g: GenRequest) {
        let request = Request {
            q: g.q,
            bounds: g.bounds,
            deadline: g.deadline,
            warm_start: g.warm_start,
            trace_id: 0,
        };
        match self.qp.submit(self.tenants[g.endpoint as usize], request) {
            Ok(ticket) => {
                self.tickets.insert(request_id, ticket.cancel_handle());
                let tx = self.tx.clone();
                ticket.on_ready(move |response| {
                    let reply = wire_reply(&response);
                    let _ = tx.send(ClientEvent::Reply { request_id, reply });
                });
            }
            Err(SubmitError::QueueFull { depth, capacity }) => {
                let mean_us = self.qp.metrics().service.mean();
                let retry = queue_full_retry_after(
                    depth,
                    self.qp.config().workers_per_shard,
                    Duration::from_micros(mean_us as u64),
                );
                let _ = self.tx.send(ClientEvent::Shed {
                    request_id,
                    reason: ShedReason::QueueFull,
                    depth: u32::try_from(depth).unwrap_or(u32::MAX),
                    capacity: u32::try_from(capacity).unwrap_or(u32::MAX),
                    retry_after_us: u64::try_from(retry.as_micros()).unwrap_or(u64::MAX),
                });
            }
            Err(e) => panic!("in-process submit of request {request_id}: {e}"),
        }
    }
}

impl Transport<'_> {
    fn connect(self) -> Conn {
        match self {
            Transport::Tcp(addr) => {
                Conn::Wire(NetClient::connect(addr, TOKEN_UNLIMITED).expect("connect load client"))
            }
            Transport::InProcess(stack) => {
                let (tx, events) = mpsc::channel();
                Conn::Local(LocalClient {
                    qp: Arc::clone(&stack.qp),
                    tenants: stack.tenants.clone(),
                    tx,
                    events,
                    tickets: HashMap::new(),
                })
            }
        }
    }
}

impl Conn {
    fn submit(&mut self, request_id: u64, g: GenRequest) {
        match self {
            Conn::Wire(c) => c
                .submit(
                    request_id,
                    g.endpoint,
                    g.deadline,
                    g.q,
                    g.bounds,
                    g.warm_start,
                )
                .expect("submit over socket"),
            Conn::Local(c) => c.submit(request_id, g),
        }
    }

    fn cancel(&mut self, request_id: u64) {
        match self {
            Conn::Wire(c) => c.cancel(request_id).expect("cancel over socket"),
            Conn::Local(c) => {
                if let Some(handle) = c.tickets.get(&request_id) {
                    handle.cancel();
                }
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<ClientEvent> {
        match self {
            Conn::Wire(c) => c.recv_timeout(timeout),
            Conn::Local(c) => {
                let event = c.events.recv_timeout(timeout).ok();
                if let Some(ClientEvent::Reply { request_id, .. }) = &event {
                    c.tickets.remove(request_id);
                }
                event
            }
        }
    }

    /// Announces the end of the phase; the confirming `Goodbye` arrives
    /// once every answer has. Only called with nothing in flight.
    fn goodbye(&mut self) {
        match self {
            Conn::Wire(c) => c.goodbye().expect("goodbye over socket"),
            Conn::Local(c) => {
                let _ = c.tx.send(ClientEvent::Goodbye);
            }
        }
    }
}

/// Drives `total` requests through `clients` connections.
///
/// `pace`: `None` = closed loop with a fixed in-flight window; `Some(d)`
/// = open loop with one submission per `d` per client.
#[allow(clippy::too_many_lines)]
fn run_phase(
    transport: Transport<'_>,
    mix: &Mix,
    total: u64,
    clients: u64,
    pace: Option<Duration>,
    sample_every: u64,
    id_offset: u64,
) -> PhaseResult {
    let window: usize = if pace.is_some() { 4096 } else { 64 };
    let e2e = Histogram::new();
    let started = Instant::now();
    let stats: Vec<ClientStats> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let e2e = &e2e;
            handles.push(s.spawn(move || {
                let mut st = ClientStats::default();
                let mut client = transport.connect();
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
                        let cancel = g.cancel;
                        client.submit(i, g);
                        if cancel {
                            client.cancel(i);
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
                            st.replies_by_code[reply.code as usize] += 1;
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
                            inflight.insert(i, (i, Instant::now()));
                            st.retries += 1;
                            client.submit(i, generate(i, mix));
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
                    client.goodbye();
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

/// Report names of the reply codes, indexed by wire value.
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

/// The direct solve of request `i`: a fresh clone of its tenant's
/// template, re-parameterized the way the serving runtime does it. The
/// solver comes back with the result: its `problem()` is the request's.
fn direct_solve(i: u64, mix: &Mix) -> (Solver, mib_qp::SolveResult) {
    let g = generate(i, mix);
    let endpoint = g.endpoint as usize;
    let problem = &mix.problems[endpoint];
    let mut solver = mix.templates[endpoint].clone();
    let q = g.q.unwrap_or_else(|| problem.q().to_vec());
    let (l, u) = g
        .bounds
        .unwrap_or_else(|| (problem.l().to_vec(), problem.u().to_vec()));
    solver.update_q(&q).expect("reference update_q");
    solver
        .update_bounds(&l, &u)
        .expect("reference update_bounds");
    solver.reset();
    if let Some((x, y)) = &g.warm_start {
        solver.warm_start(x, y);
    }
    let result = solver.solve();
    (solver, result)
}

/// Bitwise-verifies one sampled Solved reply against a direct solve of
/// the regenerated request: status, iterations, objective, and every
/// entry of `x` and `y`, lengths included. A matching answer must also
/// meet OSQP's stopping criterion, recomputed by [`OsqpCriterion`]; the
/// reply carries no `z`, so the direct solve's, which belongs to the same
/// `x` and `y`, stands in.
fn verify_sample(i: u64, reply: &WireReply, mix: &Mix) -> Result<(), String> {
    let (solver, result) = direct_solve(i, mix);
    let bitwise = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
    };
    if result.status == mib_qp::Status::Solved
        && result.iterations == reply.iterations as usize
        && result.obj_val.to_bits() == reply.obj_val.to_bits()
        && bitwise(&result.x, &reply.x)
        && bitwise(&result.y, &reply.y)
    {
        let s = solver.settings();
        let c = OsqpCriterion::of(
            solver.problem(),
            s.eps_abs,
            s.eps_rel,
            &reply.x,
            &reply.y,
            &result.z,
        );
        if c.holds() {
            Ok(())
        } else {
            Err(format!(
                "request {i}: the answer misses its tolerance: {c:?}"
            ))
        }
    } else {
        Err(format!(
            "request {i}: wire answer differs from the direct solve \
             (obj {:e} vs {:e}, iters {} vs {}, {}+{} vs {}+{} entries)",
            reply.obj_val,
            result.obj_val,
            reply.iterations,
            result.iterations,
            reply.x.len(),
            reply.y.len(),
            result.x.len(),
            result.y.len()
        ))
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
    }
}

/// A serving stack carrying the full tenant mix behind a socket.
struct Stack {
    server: NetServer,
    qp: Arc<QpServer>,
    /// The tenant behind each catalog endpoint, in catalog order.
    tenants: Vec<TenantId>,
}

/// Boots a fresh serving stack carrying the full tenant mix behind a
/// socket. With `obs` the observability plane is enabled and the admin
/// listener rides along on its own ephemeral port.
///
/// Note the process-global consequence: the first obs-enabled server
/// turns tracing on for the rest of the process, so any obs-disabled
/// measurement must happen before this is ever called with `obs: true`.
fn boot_server(obs: bool) -> Stack {
    let config = ServeConfig {
        queue_capacity: 32,
        max_shards: 24,
        obs: ObsConfig { enabled: obs },
        ..ServeConfig::default()
    };
    let qp = Arc::new(QpServer::new(config));
    let mut tenants = Vec::new();
    let mut endpoints = Vec::new();
    for domain in DOMAINS {
        for index in 0..TENANTS_PER_DOMAIN {
            let spec = instance(domain, index);
            let (num_vars, num_constraints) =
                (spec.problem.num_vars(), spec.problem.num_constraints());
            let id = qp
                .register(spec.problem, Settings::default())
                .expect("tenant registration");
            tenants.push(id);
            endpoints.push(EndpointSpec {
                target: EndpointTarget::Tenant(id),
                name: format!("{domain:?}[{index}]"),
                num_vars,
                num_constraints,
            });
        }
    }
    let auth = vec![
        TenantAuth {
            token: TOKEN_UNLIMITED.to_vec(),
            label: LABELS[0].into(),
            policy: TenantPolicy::default(),
        },
        TenantAuth {
            token: TOKEN_LIMITED.to_vec(),
            label: LABELS[1].into(),
            policy: TenantPolicy {
                rate_per_sec: 50.0,
                burst: 10.0,
                weight: 1.0,
            },
        },
    ];
    let cfg = NetConfig {
        admin_addr: obs.then(|| "127.0.0.1:0".to_string()),
    };
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&qp), endpoints, auth, cfg)
        .expect("bind load server");
    Stack {
        server,
        qp,
        tenants,
    }
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
        "load_bench: {total} in-process + {total} closed-loop + {open_total} open-loop requests, \
         {clients} clients{}",
        if smoke { " [smoke]" } else { "" }
    );

    // ---- Server side: the tenant mix behind a socket. ----
    let mix = build_mix();
    let mut stack = boot_server(false);
    let addr = stack.server.local_addr();

    let mut body = String::new();
    body.push_str("== load_bench: the serving stack in process and over TCP ==\n\n");
    let registry = stack.qp.metrics();
    let mut runs: Vec<(&str, PhaseResult, PhaseSeries)> = Vec::new();

    // ---- Phase 1: closed loop in process (no wire). ----
    let (inproc, series) = run_measured(&registry, || {
        run_phase(
            Transport::InProcess(&stack),
            &mix,
            total,
            clients,
            None,
            sample_every,
            0,
        )
    });
    runs.push(("inprocess", inproc, series));

    // ---- Phase 2: the same requests, closed loop over TCP (peak
    // sustainable throughput). ----
    let tcp = Transport::Tcp(addr);
    let (closed, series) = run_measured(&registry, || {
        run_phase(tcp, &mix, total, clients, None, sample_every, 0)
    });
    let closed_rps = closed.completed as f64 / closed.wall.as_secs_f64();
    runs.push(("net-closed", closed, series));

    // ---- Phase 3: open loop at ~70% of the measured closed rate. ----
    let pace = Duration::from_secs_f64(1.0 / (0.7 * closed_rps / clients as f64));
    let (open, series) = run_measured(&registry, || {
        run_phase(
            tcp,
            &mix,
            open_total,
            clients,
            Some(pace),
            sample_every,
            total,
        )
    });
    runs.push(("net-open", open, series));

    // ---- Phase 4 (smoke): a rate-limited tenant MUST see sheds. ----
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

    stack.server.shutdown();

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
            let failed = st.replies_by_code[ReplyCode::Failed as usize];
            assert_eq!(failed, 0, "[{mode}] no request may fail validation");
        }
        let expected = if *mode == "net-open" {
            open_total
        } else {
            total
        };
        assert_eq!(
            phase.completed, expected,
            "[{mode}] every request must complete"
        );
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
        let mut run_verified = 0u64;
        for st in &phase.stats {
            for (i, reply) in &st.sampled {
                verify_sample(*i, reply, &mix)
                    .unwrap_or_else(|e| panic!("[{mode}] bitwise verification: {e}"));
                run_verified += 1;
            }
        }
        // Every transport's answers are checked, not only the wire's.
        assert!(
            run_verified > 0 || expected < 10 * sample_every,
            "[{mode}] no sampled Solved answer was verified"
        );
        verified += run_verified;
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
            mode: (*mode).to_string(),
            requests: phase.completed,
            clients,
            tenants: ENDPOINTS as u64,
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
                LatencySummary::of("e2e_client", &phase.e2e),
                LatencySummary::of("queue_wait", &series.queue_wait),
                LatencySummary::of("service", &series.service),
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
    // The admission totals are the sums of the per-tenant series.
    let tenants = LABELS.map(|label| registry.tenant_admission(label));
    let sum = |field: fn(&TenantCounters) -> &std::sync::atomic::AtomicU64| {
        tenants.iter().map(|t| load(field(t))).sum::<u64>()
    };
    let (rate, share, queue) = (
        sum(|t| &t.shed_rate_limited),
        sum(|t| &t.shed_over_share),
        sum(|t| &t.shed_queue_full),
    );
    let _ = writeln!(
        body,
        "admission:    {} admitted, {} shed (rate {rate} / share {share} / queue {queue})",
        sum(|t| &t.admitted),
        rate + share + queue,
    );
    body.push_str("\n-- server metrics snapshot --\n");
    body.push_str(&registry.render());

    // ---- Phase 5: observability overhead + admin-plane scrape. ----
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
    // A warm-up, then the best closed-loop rate of `reps` runs.
    let best_rps = |label: &str, stack: &Stack| {
        let tcp = Transport::Tcp(stack.server.local_addr());
        run_phase(tcp, &mix, warmup, clients, None, u64::MAX, 0);
        (0..reps)
            .map(|_| {
                let phase = run_phase(tcp, &mix, obs_total, clients, None, u64::MAX, 0);
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
                phase.completed as f64 / phase.wall.as_secs_f64()
            })
            .fold(0.0, f64::max)
    };
    let mut ref_stack = boot_server(false);
    let ref_rps = best_rps("obs-off", &ref_stack);
    ref_stack.server.shutdown();

    let mut obs_stack = boot_server(true);
    let admin = obs_stack
        .server
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
    let obs_rps = best_rps("obs-on", &obs_stack);
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
        if scraped == obs_stack.qp.metrics().render() {
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
    obs_stack.server.shutdown();
    obs_stack.qp.shutdown();
    // With the plane on, no serving thread is left holding trace records:
    // workers drop theirs after each batch, and submitters keep none.
    let kept: Vec<String> = mib_trace::take()
        .threads
        .iter()
        .filter(|t| t.name == "mib-net-conn" || t.name.starts_with("mib-serve-"))
        .map(|t| format!("{} ({} records)", t.name, t.records.len()))
        .collect();
    assert!(
        kept.is_empty(),
        "serving threads kept trace records: {kept:?}"
    );

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
        match write_bench_serve(&serve_runs) {
            Ok(path) => eprintln!("(written to {})", path.display()),
            Err(e) => eprintln!("warning: could not write BENCH_serve.json: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sampled_reply_missing_a_dual_entry_is_rejected() {
        let mix = build_mix();
        let (i, result) = (0..1000)
            .map(|i| (i, direct_solve(i, &mix).1))
            .find(|(_, r)| r.status == mib_qp::Status::Solved && !r.y.is_empty())
            .expect("some request of the trace solves");
        let reply = WireReply {
            code: ReplyCode::Solved,
            iterations: u32::try_from(result.iterations).expect("iterations fit u32"),
            obj_val: result.obj_val,
            queue_wait_us: 0,
            service_us: 0,
            batch_size: 1,
            x: result.x,
            y: result.y,
            message: String::new(),
        };
        assert_eq!(verify_sample(i, &reply, &mix), Ok(()));
        let mut truncated = reply.clone();
        truncated.y.pop();
        assert!(verify_sample(i, &truncated, &mix).is_err());
    }
}
