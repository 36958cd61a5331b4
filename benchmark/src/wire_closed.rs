//! `wire-closed`: the direct-endpoint `load_bench` mix over real sockets,
//! closed loop, at two load levels.
//!
//! The only workload where `mib-net`, admission, shard queues, batching
//! and thread hand-offs do work, so it separates serving-plumbing gains
//! from solver gains. Two persistent connections carry the same seeded
//! traffic at a **latency level** (one request in flight, the connections
//! taking turns: what an MPC-rate caller that waits for each answer sees)
//! and at a **saturation level** (16 in flight per connection: the rate
//! the stack sustains).

use std::sync::Arc;
use std::time::{Duration, Instant};

use mib_net::{
    ClientEvent, EndpointSpec, EndpointTarget, NetClient, NetConfig, NetServer, ReplyCode,
    TenantAuth, WireReply,
};
use mib_problems::{instance, Domain};
use mib_qp::{Problem, Settings, Solver};
use mib_serve::{ObsConfig, QpServer, ServeConfig, TenantId, TenantPolicy};
use rand::Rng;

use crate::awake::Awake;
use crate::harness::{
    quiet_summary, run_rounds, timed_setup, write_end_to_end, Budget, Noise, OpOutcome, RunOpts,
    Samples, SerialWorkload,
};
use crate::instances::{fingerprint, result_fingerprint, rng_for, Params};
use crate::metrics::Report;
use crate::procfs;
use crate::reference::{scale_between, Reference};
use crate::spans::Recorder;
use crate::stats;

/// Fixed latency limit, µs: the serving stack's own default objective
/// (`ObsConfig::default().slo_latency_us`).
pub const LIMIT_US: f64 = 10_000.0;
/// Distinct requests, replayed in every round of both levels.
pub const REQUESTS: usize = 1000;
/// Connections (the machine has two cores).
pub const CONNECTIONS: usize = 2;
/// Requests in flight per connection at the saturation level.
const SAT_WINDOW: usize = 16;
/// Times the request list is replayed in one saturation round.
const SAT_REPLAYS: usize = 2;
/// Share of the measured time the latency level gets.
pub const LATENCY_SHARE: f64 = 0.6;
/// One reply in this many is compared bitwise with a direct solve.
const CHECK_EVERY: usize = 100;
/// Suite indices of the tenants of each domain.
const TENANT_INDICES: [usize; 2] = [0, 1];
const TOKEN: &[u8] = b"benchmark";
/// A lost reply is a hang, not a slow op.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One request of the seeded list.
pub struct WireRequest {
    /// Catalog endpoint.
    pub endpoint: u32,
    /// The 1 s deadline 15 % of requests carry (never binding; it makes
    /// the server arm and poll its deadline path).
    pub deadline: Option<Duration>,
    /// Parametric data.
    pub params: Params,
}

/// A serving stack behind a socket with the benchmark's tenants.
pub struct Stack {
    // Declared before the server so they disconnect first.
    /// The persistent client connections.
    pub clients: Vec<NetClient>,
    /// The socket front-end.
    pub server: NetServer,
    /// The serving runtime behind it.
    pub qp: Arc<QpServer>,
    /// Tenant ids, in endpoint order.
    pub tenants: Vec<TenantId>,
}

/// The ten tenant problems: five domains at the two smallest suite sizes.
pub fn tenant_specs() -> Vec<(Domain, usize)> {
    Domain::all()
        .into_iter()
        .flat_map(|d| TENANT_INDICES.map(|i| (d, i)))
        .collect()
}

/// Boots a `QpServer` with `load_bench`'s configuration behind a
/// `NetServer` and connects the clients.
pub fn boot(problems: &[Problem], obs: bool) -> Stack {
    let qp = Arc::new(QpServer::new(ServeConfig {
        queue_capacity: 32,
        max_shards: 24,
        obs: ObsConfig {
            enabled: obs,
            ..ObsConfig::default()
        },
        ..ServeConfig::default()
    }));
    let mut tenants = Vec::new();
    let mut endpoints = Vec::new();
    for (problem, (domain, index)) in problems.iter().zip(tenant_specs()) {
        let id = qp
            .register(problem.clone(), Settings::default())
            .expect("tenant registration");
        tenants.push(id);
        endpoints.push(EndpointSpec {
            target: EndpointTarget::Tenant(id),
            name: format!("{domain}[{index}]"),
            num_vars: problem.num_vars(),
            num_constraints: problem.num_constraints(),
        });
    }
    let auth = vec![TenantAuth {
        token: TOKEN.to_vec(),
        label: "benchmark".into(),
        policy: TenantPolicy::default(),
    }];
    let cfg = NetConfig {
        admin_addr: obs.then(|| "127.0.0.1:0".to_string()),
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&qp), endpoints, auth, cfg)
        .expect("bind the benchmark server");
    let clients = (0..CONNECTIONS)
        .map(|_| NetClient::connect(server.local_addr(), TOKEN).expect("connect"))
        .collect();
    Stack {
        clients,
        server,
        qp,
        tenants,
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.clients.clear();
        self.server.shutdown();
        // The socket front-end does not own the runtime's worker threads.
        self.qp.shutdown();
    }
}

/// What the connection threads share: the tenants and the seeded traffic.
pub struct Traffic {
    seed: u64,
    /// Tenant problems, in endpoint order.
    pub problems: Vec<Problem>,
    templates: Vec<Solver>,
    /// Template solutions, the warm-start points.
    pub warm_points: Vec<(Vec<f64>, Vec<f64>)>,
    /// The seeded request list.
    pub requests: Vec<WireRequest>,
}

/// The workload's state.
pub struct WireClosed {
    /// Tenants and requests.
    pub traffic: Traffic,
    /// The stack under test.
    pub stack: Stack,
    /// Replies of the set-up ops, one per endpoint (codec probe inputs).
    pub sample_replies: Vec<WireReply>,
}

fn reply_fingerprint(reply: &WireReply) -> u64 {
    fingerprint(
        reply.code.is_solved(),
        u64::from(reply.iterations),
        reply.obj_val,
        &reply.x,
        &reply.y,
    )
}

impl WireClosed {
    /// Generates tenants and requests from `seed`, boots the stack and
    /// completes one request per endpoint.
    pub fn setup(seed: u64) -> Self {
        let problems: Vec<Problem> = tenant_specs()
            .into_iter()
            .map(|(d, i)| instance(d, i).problem)
            .collect();
        let templates: Vec<Solver> = problems
            .iter()
            .map(|p| Solver::new(p.clone(), Settings::default()).expect("reference template"))
            .collect();
        let warm_points = templates
            .iter()
            .map(|t| {
                let r = t.clone().solve();
                (r.x, r.y)
            })
            .collect();
        let mut rng = rng_for(seed, 0x5749_5245);
        let requests = (0..REQUESTS)
            .map(|i| {
                // Round-robin, so every seed gives each tenant the same
                // share of the traffic.
                let endpoint = i % problems.len();
                let params = Params::draw(&problems[endpoint], &mut rng);
                let deadline = (rng.gen::<f64>() < 0.15).then_some(Duration::from_secs(1));
                WireRequest {
                    endpoint: endpoint as u32,
                    deadline,
                    params,
                }
            })
            .collect();
        let stack = boot(&problems, false);
        let mut w = WireClosed {
            traffic: Traffic {
                seed,
                problems,
                templates,
                warm_points,
                requests,
            },
            stack,
            sample_replies: Vec::new(),
        };
        for endpoint in 0..w.traffic.problems.len() {
            let client = &mut w.stack.clients[endpoint % CONNECTIONS];
            client
                .submit(endpoint as u64, endpoint as u32, None, None, None, None)
                .expect("set-up submit");
            match client.recv_timeout(REPLY_TIMEOUT) {
                Some(ClientEvent::Reply { reply, .. }) if reply.code.is_solved() => {
                    w.sample_replies.push(reply);
                }
                other => panic!("set-up request {endpoint} was not solved: {other:?}"),
            }
        }
        w
    }
}

impl Traffic {
    fn submit(&self, client: &mut NetClient, id: u64, op: usize) {
        let r = &self.requests[op];
        let warm = r
            .params
            .warm
            .then(|| self.warm_points[r.endpoint as usize].clone());
        client
            .submit(
                id,
                r.endpoint,
                r.deadline,
                r.params.q.clone(),
                r.params.bounds.clone(),
                warm,
            )
            .expect("submit over the socket");
    }

    /// The bitwise check: the same request solved directly on a clone of
    /// the tenant's template.
    fn check_direct(&self, op: usize, reply: &WireReply) -> bool {
        let r = &self.requests[op];
        let t = r.endpoint as usize;
        let problem = &self.problems[t];
        let mut solver = self.templates[t].clone();
        solver
            .update_q(r.params.q.as_deref().unwrap_or(problem.q()))
            .expect("reference update_q");
        let (l, u) = match &r.params.bounds {
            Some((l, u)) => (l.as_slice(), u.as_slice()),
            None => (problem.l(), problem.u()),
        };
        solver.update_bounds(l, u).expect("reference update_bounds");
        solver.reset();
        if r.params.warm {
            solver.warm_start(&self.warm_points[t].0, &self.warm_points[t].1);
        }
        let want = solver.solve();
        let same = result_fingerprint(&want) == reply_fingerprint(reply);
        if !same {
            eprintln!(
                "CHECK FAILED: wire-closed op {op} (seed {}, endpoint {t}): wire answer (obj {:e}, \
                 {} iterations) differs from the direct solve (obj {:e}, {} iterations)",
                self.seed, reply.obj_val, reply.iterations, want.obj_val, want.iterations
            );
        }
        same
    }

    /// One connection's share of a saturation-level round: its requests
    /// with [`SAT_WINDOW`] in flight, tallied into `tally`.
    fn saturation_connection(
        &self,
        client: &mut NetClient,
        connection: usize,
        expected: &[Option<u64>],
        tally: &mut SatTally,
    ) {
        let mine: Vec<usize> = (0..SAT_REPLAYS)
            .flat_map(|_| (connection..REQUESTS).step_by(CONNECTIONS))
            .collect();
        let (mut next, mut in_flight, mut done) = (0usize, 0usize, 0usize);
        while done < mine.len() {
            while next < mine.len() && in_flight < SAT_WINDOW {
                // The id is the position in this connection's list, so a
                // replayed request keeps its own id.
                self.submit(client, next as u64, mine[next]);
                next += 1;
                in_flight += 1;
            }
            match client.recv_timeout(REPLY_TIMEOUT) {
                Some(ClientEvent::Reply { request_id, reply }) => {
                    let op = mine[request_id as usize];
                    let repeats = expected[op].is_none_or(|f| f == reply_fingerprint(&reply));
                    if reply.code.is_solved() && repeats {
                        tally.ok += 1;
                    } else {
                        eprintln!(
                            "CHECK FAILED: wire-closed saturation op {op} (seed {}): code {:?}, \
                             obj {:e}, {} iterations, answer repeats: {repeats}",
                            self.seed, reply.code, reply.obj_val, reply.iterations
                        );
                        tally.failed += 1;
                    }
                    tally.queue_wait_us.push(reply.queue_wait_us as f64);
                    tally.batch_sum += u64::from(reply.batch_size);
                }
                Some(ClientEvent::Shed { request_id, .. }) => {
                    eprintln!(
                        "CHECK FAILED: wire-closed saturation op {} (seed {}) was shed",
                        mine[request_id as usize], self.seed
                    );
                    tally.failed += 1;
                    tally.shed += 1;
                }
                None => panic!("wire-closed: saturation level stalled with {in_flight} in flight"),
                Some(other) => panic!("wire-closed: connection failed mid-round: {other:?}"),
            }
            in_flight -= 1;
            done += 1;
        }
    }
}

/// The latency level: the request list one request at a time, the
/// connections taking turns, each request timed from submit to reply.
///
/// One request in flight in all, not one per connection: with two, what a
/// request waits for depends on which request of the other connection it
/// happens to meet, which differs from round to round, and ten threads
/// share two cores; alone, op *i* does the same work in every round.
struct LatencyLevel<'a> {
    traffic: &'a Traffic,
    clients: &'a mut [NetClient],
    shed: u64,
    expired: u64,
}

impl SerialWorkload for LatencyLevel<'_> {
    fn ops(&self) -> usize {
        REQUESTS
    }

    fn run_op(&mut self, op: usize, rec: &mut Recorder) -> OpOutcome {
        let traffic = self.traffic;
        let client = &mut self.clients[op % CONNECTIONS];
        let started = Instant::now();
        let span = rec.begin("op", None, op);
        let submit = rec.begin("net.submit", Some(span), op);
        traffic.submit(client, op as u64, op);
        rec.end(submit);
        let wait = rec.begin("net.wait", Some(span), op);
        let event = client.recv_timeout(REPLY_TIMEOUT);
        rec.end(wait);
        rec.end(span);
        let ns = started.elapsed().as_nanos() as u64;
        match event {
            Some(ClientEvent::Reply { request_id, reply }) if request_id == op as u64 => {
                // The server's own account of the request, as children of
                // the wait; what is left of the op is the wire.
                let (queue_ns, service_ns) = (reply.queue_wait_us * 1000, reply.service_us * 1000);
                let at = rec.start_ns(wait);
                rec.push("serve.queue_wait", Some(wait), op, at, queue_ns);
                rec.push("serve.service", Some(wait), op, at + queue_ns, service_ns);
                // Not a child of the op: it is the op's own time seen
                // another way, client time less the server's account.
                let overhead_ns = ns.saturating_sub(queue_ns + service_ns);
                rec.push("net.overhead", None, op, at, overhead_ns);
                self.expired += u64::from(reply.code == ReplyCode::Expired);
                let checked = !op.is_multiple_of(CHECK_EVERY) || traffic.check_direct(op, &reply);
                OpOutcome {
                    ns,
                    // Queued, a request waits for a timer (the batch
                    // window) and a wake-up; the rest of its time client,
                    // kernel, codec and solver compute.
                    timer_ns: queue_ns,
                    ok: reply.code.is_solved() && checked,
                    fingerprint: reply_fingerprint(&reply),
                }
            }
            None => panic!("wire-closed: no reply to request {op} within {REPLY_TIMEOUT:?}"),
            Some(other) => {
                eprintln!(
                    "CHECK FAILED: wire-closed op {op} (seed {}): {other:?}",
                    traffic.seed
                );
                self.shed += 1;
                OpOutcome {
                    ns,
                    timer_ns: 0,
                    ok: false,
                    fingerprint: 0,
                }
            }
        }
    }
}

/// Server-side figures of the saturation level.
#[derive(Debug, Default)]
pub struct SatTally {
    /// Replies that solved and repeated.
    pub ok: u64,
    /// Replies that did not, and sheds.
    pub failed: u64,
    /// Sheds.
    pub shed: u64,
    /// `WireReply.queue_wait_us` of every reply.
    pub queue_wait_us: Vec<f64>,
    /// Sum of `WireReply.batch_size` over the replies.
    pub batch_sum: u64,
}

/// Everything the two levels measured.
pub struct Measured {
    /// Latency-level samples (per request, per round).
    pub latency: Samples,
    /// Latency-level counts the traced run reports.
    pub expired: u64,
    /// Sheds seen at either level.
    pub shed: u64,
    /// Saturation-level throughput of each round as measured, requests
    /// per second.
    pub sat_raw_rates: Vec<f64>,
    /// The same over the share of the round's CPU time the hypervisor
    /// left the machine.
    pub sat_rates: Vec<f64>,
    /// The factor to the reference speed timed around each of these rounds.
    pub sat_scales: Vec<f64>,
    /// Share of the saturation level's CPU time spent in user mode.
    pub sat_user_share: f64,
    /// Saturation-level tallies.
    pub sat: SatTally,
    /// Process CPU per request at each level, µs.
    pub lat_cpu_us_per_op: f64,
    /// As above, saturation level.
    pub sat_cpu_us_per_op: f64,
}

impl Measured {
    /// Empty buffers for a run with `seed`.
    pub fn new(seed: u64) -> Self {
        Measured {
            latency: Samples::new(REQUESTS, LIMIT_US, seed),
            expired: 0,
            shed: 0,
            sat_raw_rates: Vec::with_capacity(4096),
            sat_rates: Vec::with_capacity(4096),
            sat_scales: Vec::with_capacity(4096),
            sat_user_share: 1.0,
            sat: SatTally::default(),
            lat_cpu_us_per_op: 0.0,
            sat_cpu_us_per_op: 0.0,
        }
    }

    /// Ops attempted at both levels.
    pub fn attempted(&self) -> u64 {
        self.latency.attempted + self.sat.ok + self.sat.failed
    }

    /// Ops failed at both levels.
    pub fn failed(&self) -> u64 {
        self.latency.failed + self.sat.failed
    }

    /// The saturation level's `ops_per_s`: requests overlap, so
    /// throughput is taken per round. Saturated, the stack is CPU-bound,
    /// so a round's rate is first divided by the share of the machine's
    /// CPU time the hypervisor did not take away in it (`/proc/stat`
    /// steal: 0.4–32 % of a level, run by run), and interference only
    /// ever subtracts from what is left, so the level's rate is the upper
    /// quartile of its rounds'. That is taken to the reference speed for
    /// the level as a whole: by the median of the kernel timings made
    /// between the rounds (one such timing shares its CPU with what the
    /// stack's threads still have to do), and only for the share of the
    /// level's CPU time spent in user mode — what the kernel does for the
    /// stack (wake-ups, loopback TCP) did not move with the machine's
    /// speed. `NOISE.md` has the figures behind each step.
    pub fn sat_ops_per_s(&self) -> f64 {
        let rate = stats::percentile(&mut self.sat_rates.clone(), 0.75);
        let scale = stats::median(&mut self.sat_scales.clone());
        rate * (self.sat_user_share / scale + 1.0 - self.sat_user_share)
    }
}

impl WireClosed {
    /// Runs latency-level rounds within `budget`, recording into
    /// `measured.latency` and `rec`.
    pub fn latency_level(&mut self, budget: Budget, measured: &mut Measured, rec: &mut Recorder) {
        let mut level = LatencyLevel {
            traffic: &self.traffic,
            clients: &mut self.stack.clients,
            shed: 0,
            expired: 0,
        };
        let awake = Awake::new();
        let (user_before, system_before) = procfs::process_cpu_seconds();
        let requests_before = measured.latency.attempted;
        run_rounds(&mut level, &mut measured.latency, budget, rec);
        let spinner_s = awake.stop();
        measured.shed += level.shed;
        measured.expired += level.expired;
        let requests = (measured.latency.attempted - requests_before) as f64;
        let (user, system) = procfs::process_cpu_seconds();
        measured.lat_cpu_us_per_op =
            (user - user_before + system - system_before - spinner_s) * 1e6 / requests.max(1.0);
    }

    /// Runs saturation-level rounds within `budget`.
    pub fn saturation_level(&mut self, budget: Budget, measured: &mut Measured) {
        let (traffic, clients) = (&self.traffic, &mut self.stack.clients);
        let expected = measured.latency.expected().to_vec();
        let (user_before, system_before) = procfs::process_cpu_seconds();
        // Both cores serve a round, so the machine's speed is taken
        // between the rounds.
        let mut reference = Reference::new();
        let mut before = reference.time_rep_ns();
        let started = Instant::now();
        let mut rounds = 0;
        let mut tallies: Vec<SatTally> = (0..CONNECTIONS).map(|_| SatTally::default()).collect();
        for t in &mut tallies {
            t.queue_wait_us.reserve(1 << 20);
        }
        let mut steal = procfs::steal_ticks();
        while budget.more(started, rounds) {
            let round_started = Instant::now();
            std::thread::scope(|s| {
                for (c, (client, tally)) in clients.iter_mut().zip(tallies.iter_mut()).enumerate() {
                    let expected = &expected;
                    s.spawn(move || traffic.saturation_connection(client, c, expected, tally));
                }
            });
            let rate = (SAT_REPLAYS * REQUESTS) as f64 / round_started.elapsed().as_secs_f64();
            let after = reference.time_rep_ns();
            let steal_after = procfs::steal_ticks();
            let stolen = procfs::steal_pct(steal, steal_after) / 100.0;
            measured.sat_raw_rates.push(rate);
            measured.sat_rates.push(rate / (1.0 - stolen).max(0.05));
            measured.sat_scales.push(scale_between(before, after));
            (before, steal) = (after, steal_after);
            rounds += 1;
        }
        for t in tallies {
            measured.sat.ok += t.ok;
            measured.sat.failed += t.failed;
            measured.sat.shed += t.shed;
            measured.sat.batch_sum += t.batch_sum;
            measured.sat.queue_wait_us.extend(t.queue_wait_us);
        }
        measured.shed += measured.sat.shed;
        let requests = (rounds * SAT_REPLAYS * REQUESTS) as f64;
        let (user, system) = procfs::process_cpu_seconds();
        let cpu_s = user - user_before + system - system_before;
        measured.sat_cpu_us_per_op = cpu_s * 1e6 / requests.max(1.0);
        if cpu_s > 0.0 {
            measured.sat_user_share = (user - user_before) / cpu_s;
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(opts: &RunOpts) -> Report {
    let steal = procfs::steal_ticks();
    let (mut w, setup_s) = timed_setup(opts, || WireClosed::setup(opts.seed));
    let mut measured = Measured::new(opts.seed);
    w.latency_level(
        opts.budget(LATENCY_SHARE),
        &mut measured,
        &mut Recorder::disabled(),
    );
    w.saturation_level(opts.budget(1.0 - LATENCY_SHARE), &mut measured);

    let mut quiet = quiet_summary(measured.latency.quiet_op_us());
    quiet.ops_per_s = measured.sat_ops_per_s();
    eprintln!("{}", Noise::of(&measured.latency, steal).to_text());
    eprintln!(
        "  saturation: {} rounds, raw {:.0} req/s at machine speed {:.3}, {:.0} % of its CPU time \
         in user mode, round-rate IQR {:.1} %, {:.0} us CPU per request ({:.0} at the latency level)",
        measured.sat_raw_rates.len(),
        stats::median(&mut measured.sat_raw_rates.clone()),
        stats::median(&mut measured.sat_scales.clone()),
        100.0 * measured.sat_user_share,
        stats::iqr_pct(&mut measured.sat_raw_rates.clone()),
        measured.sat_cpu_us_per_op,
        measured.lat_cpu_us_per_op
    );
    let mut report = Report::new();
    write_end_to_end(&mut report, setup_s, quiet, &measured.latency);
    report.attempted = measured.attempted();
    report.failed = measured.failed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_rate_is_the_upper_quartile_at_the_reference_speed() {
        let mut m = Measured::new(1);
        // Four rounds, one of them disturbed; the machine at half speed.
        m.sat_rates = vec![8000.0, 10_000.0, 9000.0, 4000.0];
        m.sat_scales = vec![0.5, 0.5, 0.9, 0.5];
        assert_eq!(m.sat_ops_per_s(), 9000.0 / 0.5);
        // Half of the CPU time in the kernel: only the other half is
        // twice as fast at the reference speed.
        m.sat_user_share = 0.5;
        assert_eq!(m.sat_ops_per_s(), 9000.0 * 1.5);
    }
}
