//! serve_bench: replay a deterministic multi-tenant request trace through
//! the `mib-serve` runtime and report serving behavior.
//!
//! The trace mixes tenants from all five benchmark domains, parametric
//! `q`/bounds perturbations, warm starts, tight deadlines and explicit
//! cancellations, submitted concurrently from four client threads. After
//! the replay, every `Solved` answer is re-derived by a direct
//! single-threaded solve of the identically parameterized problem and
//! compared bitwise — serving must be an execution strategy, not a
//! numerical one. The report (also written to `results/serve_trace.txt`)
//! tabulates throughput, latency quantiles, outcome counts and the
//! pattern-shard / warm-solver hit rates.
//!
//! `--smoke` shrinks the trace for CI-style runs (`scripts/check.sh`).

use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mib_bench::emit_report;
use mib_problems::{instance, Domain};
use mib_qp::{Algorithm, Settings, Solver, Status};
use mib_serve::{Outcome, QpServer, Request, Response, ServeConfig, SubmitError, TenantId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DOMAINS: [Domain; 5] = [
    Domain::Portfolio,
    Domain::Lasso,
    Domain::Huber,
    Domain::Mpc,
    Domain::Svm,
];

/// Tenants per domain (distinct instances, hence distinct patterns).
const TENANTS_PER_DOMAIN: usize = 2;
const CLIENTS: usize = 4;

/// One pre-generated trace entry.
struct TraceItem {
    tenant: usize,
    request: Request,
    /// Cancel the ticket right after submission.
    cancel: bool,
}

/// Deterministically perturbs a tenant's parametric data.
fn make_request(rng: &mut StdRng, problem: &mib_qp::Problem) -> Request {
    let mut request = Request::default();
    // Most requests perturb q (the classic parametric-QP axis).
    if rng.gen::<f64>() < 0.8 {
        let mut q = problem.q().to_vec();
        for qi in q.iter_mut() {
            *qi += 0.05 * (rng.gen::<f64>() - 0.5);
        }
        request.q = Some(q);
    }
    // Some widen the upper bounds (keeps l <= u).
    if rng.gen::<f64>() < 0.3 {
        let l = problem.l().to_vec();
        let mut u = problem.u().to_vec();
        for ui in u.iter_mut() {
            if ui.is_finite() {
                *ui += 0.1 * rng.gen::<f64>();
            }
        }
        request.bounds = Some((l, u));
    }
    // A few carry deadlines: mostly generous, occasionally already tight
    // enough to expire in the queue or trip the in-loop check.
    match rng.gen_range(0..20usize) {
        0 => request.deadline = Some(Duration::from_micros(rng.gen_range(1..50u64))),
        1 | 2 => request.deadline = Some(Duration::from_secs(30)),
        _ => {}
    }
    request
}

/// Perturbation for router-dispatched portfolio traffic: parametric only
/// (no deadlines, no cancels) so every shadow audit reaches a verdict.
fn make_routed_request(rng: &mut StdRng, problem: &mib_qp::Problem) -> Request {
    let mut request = Request::default();
    let mut q = problem.q().to_vec();
    for qi in q.iter_mut() {
        *qi += 0.05 * (rng.gen::<f64>() - 0.5);
    }
    request.q = Some(q);
    if rng.gen::<f64>() < 0.3 {
        let l = problem.l().to_vec();
        let mut u = problem.u().to_vec();
        for ui in u.iter_mut() {
            if ui.is_finite() {
                *ui += 0.1 * rng.gen::<f64>();
            }
        }
        request.bounds = Some((l, u));
    }
    request
}

/// Portfolio variant settings: tolerances tightened to `1e-5` so the two
/// backends' objectives land well inside the shadow-audit tolerance (at
/// the default `1e-3` the objective error of a just-terminated solve can
/// exceed `1e-2` relative on ill-conditioned domains). PDQP's iteration
/// cap is raised far past ADMM's — first-order iterations are cheap.
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let total_requests = if smoke { 100 } else { 600 };
    let mut rng = StdRng::seed_from_u64(0x5e27e);

    // Register two instances of each domain as tenants; keep an identical
    // template solver per tenant for the reference solves.
    let config = ServeConfig {
        queue_capacity: 32,
        // 10 plain tenant patterns + 10 portfolio-variant patterns.
        max_shards: 24,
        // Cross-check every 4th routed request on the sibling backend.
        shadow_every: 4,
        shadow_rel_tol: 1e-2,
        ..ServeConfig::default()
    };
    let server = QpServer::new(config);
    let mut tenants: Vec<(String, TenantId)> = Vec::new();
    let mut templates: Vec<Solver> = Vec::new();
    let mut problems: Vec<mib_qp::Problem> = Vec::new();
    for domain in DOMAINS {
        for index in 0..TENANTS_PER_DOMAIN {
            let spec = instance(domain, index);
            let id = server
                .register(spec.problem.clone(), Settings::default())
                .expect("tenant registration");
            templates.push(
                Solver::new(spec.problem.clone(), Settings::default()).expect("reference template"),
            );
            tenants.push((format!("{domain:?}[{index}]"), id));
            problems.push(spec.problem);
        }
    }

    // Mixed-backend portfolios: a further instance of each domain is
    // registered under both ADMM and PDQP, dispatched through the
    // telemetry-driven backend router with shadow auditing enabled.
    let mut portfolios: Vec<(String, mib_serve::PortfolioId)> = Vec::new();
    let mut portfolio_templates: Vec<[Solver; 2]> = Vec::new();
    let mut portfolio_problems: Vec<mib_qp::Problem> = Vec::new();
    for domain in DOMAINS {
        let spec = instance(domain, TENANTS_PER_DOMAIN);
        let id = server
            .register_portfolio(
                &spec.problem,
                vec![
                    portfolio_settings(Algorithm::Admm),
                    portfolio_settings(Algorithm::Pdqp),
                ],
            )
            .expect("portfolio registration");
        // Indexed by Algorithm::index(): one reference template per
        // backend for the bitwise parity check.
        portfolio_templates.push([
            Solver::new(spec.problem.clone(), portfolio_settings(Algorithm::Admm))
                .expect("admm template"),
            Solver::new(spec.problem.clone(), portfolio_settings(Algorithm::Pdqp))
                .expect("pdqp template"),
        ]);
        portfolios.push((format!("{domain:?}[{TENANTS_PER_DOMAIN}]"), id));
        portfolio_problems.push(spec.problem);
    }

    // Cold solutions per tenant, used as warm-start points for a slice
    // of the traffic.
    let warm_points: Vec<(Vec<f64>, Vec<f64>)> = templates
        .iter()
        .map(|template| {
            let result = template.clone().solve();
            (result.x, result.y)
        })
        .collect();

    // Pre-generate the whole trace so the replay is deterministic
    // regardless of client-thread interleaving.
    let trace: Vec<TraceItem> = (0..total_requests)
        .map(|_| {
            let tenant = rng.gen_range(0..tenants.len());
            let mut item = TraceItem {
                tenant,
                request: make_request(&mut rng, &problems[tenant]),
                cancel: rng.gen::<f64>() < 0.03,
            };
            if rng.gen::<f64>() < 0.1 {
                item.request.warm_start = Some(warm_points[tenant].clone());
            }
            item
        })
        .collect();
    let routed_total = total_requests / 4;
    let routed_trace: Vec<(usize, Request)> = (0..routed_total)
        .map(|_| {
            let p = rng.gen_range(0..portfolios.len());
            (p, make_routed_request(&mut rng, &portfolio_problems[p]))
        })
        .collect();

    // Replay: four clients submit disjoint round-robin slices, retrying
    // on QueueFull backpressure, then wait out their tickets.
    let responses: Mutex<Vec<(usize, Response)>> = Mutex::new(Vec::with_capacity(total_requests));
    let routed_responses: Mutex<Vec<(usize, Response)>> =
        Mutex::new(Vec::with_capacity(routed_total));
    let retries = std::sync::atomic::AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let server = &server;
            let trace = &trace;
            let routed_trace = &routed_trace;
            let tenants = &tenants;
            let portfolios = &portfolios;
            let responses = &responses;
            let routed_responses = &routed_responses;
            let retries = &retries;
            s.spawn(move || {
                let mut mine: Vec<(usize, mib_serve::Ticket)> = Vec::new();
                for (i, item) in trace.iter().enumerate() {
                    if i % CLIENTS != client {
                        continue;
                    }
                    let ticket = loop {
                        match server.submit(tenants[item.tenant].1, item.request.clone()) {
                            Ok(t) => break t,
                            Err(SubmitError::QueueFull { .. }) => {
                                retries.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => panic!("submission failed: {e}"),
                        }
                    };
                    if item.cancel {
                        ticket.cancel();
                    }
                    mine.push((i, ticket));
                }
                // Routed requests go one at a time per client: the router
                // explores from finished solves, and a client with more
                // requests than there are portfolios then sends some
                // portfolio a request after an earlier one has finished,
                // so both backends serve whatever the timing.
                let mut routed_done = Vec::new();
                for (i, (p, request)) in routed_trace.iter().enumerate() {
                    if i % CLIENTS != client {
                        continue;
                    }
                    let ticket = loop {
                        match server.submit_routed(portfolios[*p].1, request.clone()) {
                            Ok(t) => break t,
                            Err(SubmitError::QueueFull { .. }) => {
                                retries.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => panic!("routed submission failed: {e}"),
                        }
                    };
                    routed_done.push((i, ticket.wait()));
                }
                let mut done = Vec::with_capacity(mine.len());
                for (i, ticket) in mine {
                    done.push((i, ticket.wait()));
                }
                responses.lock().expect("responses lock").extend(done);
                routed_responses
                    .lock()
                    .expect("routed responses lock")
                    .extend(routed_done);
            });
        }
    });
    let wall = started.elapsed();
    server.shutdown();

    let mut responses = responses.into_inner().expect("responses lock");
    responses.sort_by_key(|(i, _)| *i);
    assert_eq!(
        responses.len(),
        total_requests,
        "every submitted request must reach a terminal response"
    );

    // Tally outcomes and verify bitwise parity of every Solved answer
    // against a direct single-threaded solve.
    // solved, max_iterations, infeasible, timed_out, cancelled (in-loop or queued)
    let mut by_outcome = [0usize; 5];
    let mut failed = 0usize;
    let mut expired = 0usize;
    let mut checked = 0usize;
    for (i, response) in &responses {
        let item = &trace[*i];
        match &response.outcome {
            Outcome::Finished(result) => match result.status {
                Status::Solved => {
                    by_outcome[0] += 1;
                    let mut reference = templates[item.tenant].clone();
                    let problem = &problems[item.tenant];
                    let q = item
                        .request
                        .q
                        .clone()
                        .unwrap_or_else(|| problem.q().to_vec());
                    let (l, u) = item
                        .request
                        .bounds
                        .clone()
                        .unwrap_or_else(|| (problem.l().to_vec(), problem.u().to_vec()));
                    reference.update_q(&q).expect("reference update_q");
                    reference
                        .update_bounds(&l, &u)
                        .expect("reference update_bounds");
                    reference.reset();
                    if let Some((x, y)) = &item.request.warm_start {
                        reference.warm_start(x, y);
                    }
                    let expect = reference.solve();
                    assert_eq!(expect.status, Status::Solved, "reference diverged on #{i}");
                    assert_eq!(expect.iterations, result.iterations, "#{i}");
                    assert!(
                        result
                            .x
                            .iter()
                            .zip(&expect.x)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                            && result
                                .y
                                .iter()
                                .zip(&expect.y)
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                            && result.obj_val.to_bits() == expect.obj_val.to_bits(),
                        "served answer #{i} is not bitwise equal to the direct solve"
                    );
                    checked += 1;
                }
                Status::MaxIterations => by_outcome[1] += 1,
                Status::PrimalInfeasible | Status::DualInfeasible => by_outcome[2] += 1,
                Status::TimedOut => by_outcome[3] += 1,
                Status::Cancelled => by_outcome[4] += 1,
            },
            Outcome::Cancelled => by_outcome[4] += 1,
            Outcome::Expired => expired += 1,
            Outcome::Failed(e) => {
                failed += 1;
                eprintln!("request #{i} failed: {e}");
            }
        }
    }
    assert_eq!(failed, 0, "the trace contains no invalid requests");

    // Routed portfolio answers: all solved, each bitwise-identical to a
    // direct solve on the template of whichever backend served it.
    let mut routed_responses = routed_responses
        .into_inner()
        .expect("routed responses lock");
    routed_responses.sort_by_key(|(i, _)| *i);
    assert_eq!(routed_responses.len(), routed_total);
    let mut routed_by_backend = [0usize; 2];
    for (i, response) in &routed_responses {
        let (p, request) = &routed_trace[*i];
        let Outcome::Finished(result) = &response.outcome else {
            panic!("routed request #{i} did not finish: {response:?}");
        };
        assert_eq!(result.status, Status::Solved, "routed request #{i}");
        let backend_idx = result.algorithm.index();
        routed_by_backend[backend_idx] += 1;
        let mut reference = portfolio_templates[*p][backend_idx].clone();
        let problem = &portfolio_problems[*p];
        let q = request.q.clone().expect("routed requests always perturb q");
        let (l, u) = request
            .bounds
            .clone()
            .unwrap_or_else(|| (problem.l().to_vec(), problem.u().to_vec()));
        reference.update_q(&q).expect("routed reference update_q");
        reference
            .update_bounds(&l, &u)
            .expect("routed reference update_bounds");
        reference.reset();
        let expect = reference.solve();
        assert_eq!(expect.status, Status::Solved, "routed reference #{i}");
        assert_eq!(expect.iterations, result.iterations, "routed #{i}");
        assert!(
            result
                .x
                .iter()
                .zip(&expect.x)
                .all(|(a, b)| a.to_bits() == b.to_bits())
                && result.obj_val.to_bits() == expect.obj_val.to_bits(),
            "routed {} answer #{i} is not bitwise equal to the direct solve",
            result.algorithm
        );
    }

    let metrics = server.metrics();
    let c = &metrics.counters;
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    let shard_hits = load(&c.shard_hits);
    let shard_total = shard_hits + load(&c.shard_misses);
    let warm_hits = load(&c.warm_hits);
    let warm_total = warm_hits + load(&c.warm_builds);
    let batches = load(&c.batches).max(1);

    let mut body = String::new();
    body.push_str("== serve_bench: mixed-tenant trace through the mib-serve runtime ==\n\n");
    let _ = writeln!(
        body,
        "trace: {total_requests} requests, {} tenants ({} domains x {TENANTS_PER_DOMAIN} instances), {CLIENTS} client threads{}",
        tenants.len(),
        DOMAINS.len(),
        if smoke { " [smoke]" } else { "" }
    );
    let _ = writeln!(
        body,
        "wall time: {:.3} s  ({:.0} req/s)\n",
        wall.as_secs_f64(),
        total_requests as f64 / wall.as_secs_f64()
    );
    let _ = writeln!(body, "outcomes:");
    let _ = writeln!(body, "  solved          {:>6}", by_outcome[0]);
    let _ = writeln!(body, "  max_iterations  {:>6}", by_outcome[1]);
    let _ = writeln!(body, "  infeasible      {:>6}", by_outcome[2]);
    let _ = writeln!(body, "  timed_out       {:>6}", by_outcome[3]);
    let _ = writeln!(body, "  cancelled       {:>6}", by_outcome[4]);
    let _ = writeln!(body, "  expired_queued  {:>6}", expired);
    let _ = writeln!(body, "  non-terminal    {:>6}\n", 0);
    let _ = writeln!(
        body,
        "bitwise parity: {checked}/{checked} Solved answers identical to direct solves\n"
    );
    // Shadow-audit gate: the sampled cross-checks between backends must
    // never disagree, in smoke and full runs alike.
    let audits = load(&c.shadow_audits);
    let mismatches = load(&c.shadow_mismatches);
    let inconclusive = load(&c.shadow_inconclusive);
    assert!(audits >= 1, "shadow sampling must fire on routed traffic");
    assert_eq!(mismatches, 0, "shadow audits found backend discrepancies");
    assert_eq!(inconclusive, 0, "every shadow audit must reach a verdict");
    assert!(
        routed_by_backend.iter().all(|&n| n > 0),
        "the router must exercise both backends (admm/pdqp: {routed_by_backend:?})"
    );
    let _ = writeln!(
        body,
        "portfolio routing: {routed_total} routed requests across {} mixed-backend portfolios",
        portfolios.len()
    );
    let _ = writeln!(
        body,
        "  primaries: {} admm, {} pdqp  (bitwise-checked against their own backend)",
        routed_by_backend[0], routed_by_backend[1]
    );
    let _ = writeln!(
        body,
        "  shadow audits: {audits} sampled, {} agreements, {mismatches} mismatches, {inconclusive} inconclusive\n",
        load(&c.shadow_agreements)
    );
    let _ = writeln!(
        body,
        "pattern shards: {:.1}% hit rate ({shard_hits}/{shard_total} lookups), {} evictions",
        100.0 * shard_hits as f64 / shard_total.max(1) as f64,
        load(&c.shard_evictions)
    );
    let _ = writeln!(
        body,
        "warm solvers:   {:.1}% hit rate ({warm_hits}/{warm_total} solves)",
        100.0 * warm_hits as f64 / warm_total.max(1) as f64
    );
    let _ = writeln!(
        body,
        "micro-batching: {} batches, {:.2} requests/batch (max batch {})",
        load(&c.batches),
        load(&c.batched_requests) as f64 / batches as f64,
        responses
            .iter()
            .map(|(_, r)| r.batch_size)
            .max()
            .unwrap_or(0)
    );
    let _ = writeln!(
        body,
        "backpressure:   {} QueueFull rejections absorbed by client retry",
        load(&c.rejected_queue_full)
    );
    let _ = writeln!(
        body,
        "                {} client-side retry sleeps",
        retries.load(Ordering::Relaxed)
    );
    let _ = writeln!(body, "\nlatency (us, bucket upper bounds):");
    for (name, h) in [
        ("queue_wait", &metrics.queue_wait),
        ("service", &metrics.service),
        ("e2e", &metrics.e2e),
    ] {
        let _ = writeln!(
            body,
            "  {name:<11} mean {:>8.1}  p50 <= {:>8}  p99 <= {:>8}",
            h.mean(),
            h.quantile_bound(0.5),
            h.quantile_bound(0.99)
        );
    }
    let _ = writeln!(
        body,
        "  queue_depth mean {:>8.1}  p99 <= {:>8}",
        metrics.queue_depth.mean(),
        metrics.queue_depth.quantile_bound(0.99)
    );
    body.push_str("\n-- metrics snapshot --\n");
    body.push_str(&metrics.render());
    if smoke {
        // Smoke runs are correctness gates; only the full trace refreshes
        // the committed baseline report.
        println!("{body}");
    } else {
        emit_report("serve_trace", &body);
        // Structured export, merged into the document the socket-level
        // load_bench also writes (one run object per mode).
        let latency = [
            ("queue_wait", &metrics.queue_wait),
            ("service", &metrics.service),
            ("e2e", &metrics.e2e),
        ]
        .into_iter()
        .map(|(name, h)| mib_bench::serve_json::LatencySummary {
            name: name.to_string(),
            mean_us: h.mean(),
            p50_us: h.quantile_bound(0.5),
            p99_us: h.quantile_bound(0.99),
        })
        .collect();
        let run = mib_bench::serve_json::ServeRun {
            mode: "inprocess".to_string(),
            requests: (total_requests + routed_total) as u64,
            clients: CLIENTS as u64,
            tenants: (tenants.len() + portfolios.len()) as u64,
            wall_seconds: wall.as_secs_f64(),
            throughput_rps: (total_requests + routed_total) as f64 / wall.as_secs_f64(),
            verified_bitwise: (checked + routed_total) as u64,
            outcomes: vec![
                ("solved".to_string(), (by_outcome[0] + routed_total) as u64),
                ("max_iterations".to_string(), by_outcome[1] as u64),
                ("infeasible".to_string(), by_outcome[2] as u64),
                ("timed_out".to_string(), by_outcome[3] as u64),
                ("cancelled".to_string(), by_outcome[4] as u64),
                ("expired_queued".to_string(), expired as u64),
            ],
            // In process there is no admission layer; the only shedding
            // signal is queue-full backpressure absorbed by client retry.
            sheds: vec![(
                "queue_full_retried".to_string(),
                load(&c.rejected_queue_full),
            )],
            latency,
            obs_overhead_pct: None,
        };
        match mib_bench::serve_json::merge_bench_serve(&run) {
            Ok(path) => eprintln!("(written to {})", path.display()),
            Err(e) => eprintln!("warning: could not write BENCH_serve.json: {e}"),
        }
    }
}
