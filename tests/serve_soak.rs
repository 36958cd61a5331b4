//! Multi-threaded soak test of the serving runtime.
//!
//! Four client threads hammer a `QpServer` with a deterministic mixed
//! workload — tenants across all five benchmark domains and both KKT
//! backends, parametric perturbations, deadlines, cancellations — through
//! a deliberately small queue so `QueueFull` backpressure actually fires.
//! The acceptance bar:
//!
//! 1. every accepted request reaches a terminal response (no hangs, no
//!    lost tickets — the submitted/completed counters agree),
//! 2. every `Solved` answer is **bitwise** identical to a direct
//!    single-threaded solve of the identically parameterized problem,
//! 3. the server survives shutdown with all workers joined.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mib::problems::{instance, Domain};
use mib::qp::{Algorithm, KktBackend, Problem, Settings, Solver, Status};
use mib::serve::{Outcome, QpServer, Request, Response, ServeConfig, SubmitError, TenantId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 40;
/// Portfolio (mixed-backend, router-dispatched) requests per client.
const ROUTED_PER_CLIENT: usize = 10;

struct TenantSpec {
    id: TenantId,
    problem: Problem,
    template: Solver,
}

/// Deterministic per-client RNG stream: clients generate disjoint,
/// reproducible workloads regardless of scheduling.
fn client_rng(client: usize) -> StdRng {
    StdRng::seed_from_u64(0x50a4 ^ ((client as u64) << 8))
}

fn perturbed_request(rng: &mut StdRng, problem: &Problem) -> Request {
    let mut request = Request::default();
    if rng.gen::<f64>() < 0.7 {
        let mut q = problem.q().to_vec();
        for qi in q.iter_mut() {
            *qi += 0.02 * (rng.gen::<f64>() - 0.5);
        }
        request.q = Some(q);
    }
    match rng.gen_range(0..10usize) {
        // Already expired or near-instant: exercises Expired / TimedOut.
        0 => request.deadline = Some(Duration::from_micros(rng.gen_range(1..30u64))),
        1 | 2 => request.deadline = Some(Duration::from_secs(20)),
        _ => {}
    }
    request
}

#[test]
fn soak_mixed_tenants_under_backpressure() {
    // Small queue so QueueFull genuinely fires under 4 clients.
    const QUEUE_CAPACITY: usize = 4;
    let server = QpServer::new(ServeConfig {
        queue_capacity: QUEUE_CAPACITY,
        workers_per_shard: 2,
        max_batch: 8,
        max_shards: 8,
        // Audit every third routed request on the sibling backend; the
        // acceptance bar below requires zero discrepancies.
        shadow_every: 3,
        shadow_rel_tol: 1e-2,
        obs: mib::serve::ObsConfig::default(),
    });

    // Mixed patterns: one tenant per domain on the direct backend, plus
    // one indirect-backend tenant (same structure, different shard).
    let mut tenants: Vec<TenantSpec> = Vec::new();
    for domain in [
        Domain::Portfolio,
        Domain::Lasso,
        Domain::Huber,
        Domain::Mpc,
        Domain::Svm,
    ] {
        let spec = instance(domain, 0);
        let settings = Settings::default();
        let id = server
            .register(spec.problem.clone(), settings.clone())
            .expect("register");
        let template = Solver::new(spec.problem.clone(), settings).expect("template");
        tenants.push(TenantSpec {
            id,
            problem: spec.problem,
            template,
        });
    }
    {
        let spec = instance(Domain::Portfolio, 1);
        let settings = Settings::with_backend(KktBackend::Indirect);
        let id = server
            .register(spec.problem.clone(), settings.clone())
            .expect("register indirect");
        let template = Solver::new(spec.problem.clone(), settings).expect("template");
        tenants.push(TenantSpec {
            id,
            problem: spec.problem,
            template,
        });
    }

    // A mixed-backend portfolio on a structure none of the plain tenants
    // use: ADMM and restarted-PDHG (PDQP) variants of the same problem,
    // dispatched through the telemetry router with shadow auditing on.
    let portfolio_spec = instance(Domain::Lasso, 1);
    // Tolerances tightened to 1e-5: at the default 1e-3 the two backends'
    // objectives can legitimately differ by more than the audit tolerance
    // on a just-terminated solve.
    let variant = |algorithm| {
        let mut s = Settings::with_algorithm(algorithm);
        s.eps_abs = 1e-5;
        s.eps_rel = 1e-5;
        s.max_iter = match algorithm {
            Algorithm::Admm => 50_000,
            Algorithm::Pdqp => 2_000_000,
        };
        s
    };
    let portfolio = server
        .register_portfolio(
            &portfolio_spec.problem,
            vec![variant(Algorithm::Admm), variant(Algorithm::Pdqp)],
        )
        .expect("register portfolio");
    // One reference template per backend (indexed by Algorithm::index()):
    // a routed answer is checked bitwise against the template of
    // whichever backend served it.
    let portfolio_templates = [
        Solver::new(portfolio_spec.problem.clone(), variant(Algorithm::Admm))
            .expect("admm portfolio template"),
        Solver::new(portfolio_spec.problem.clone(), variant(Algorithm::Pdqp))
            .expect("pdqp portfolio template"),
    ];

    let rejected = AtomicU64::new(0);
    let served: Mutex<Vec<(usize, usize, Request, Response)>> = Mutex::new(Vec::new());
    let routed_served: Mutex<Vec<(usize, Request, Response)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let server = &server;
            let tenants = &tenants;
            let served = &served;
            let routed_served = &routed_served;
            let rejected = &rejected;
            let portfolio_problem = &portfolio_spec.problem;
            s.spawn(move || {
                let mut rng = client_rng(client);
                let mut tickets = Vec::new();
                for k in 0..REQUESTS_PER_CLIENT {
                    let t = rng.gen_range(0..tenants.len());
                    let request = perturbed_request(&mut rng, &tenants[t].problem);
                    let cancel = rng.gen::<f64>() < 0.05;
                    let ticket = loop {
                        match server.submit(tenants[t].id, request.clone()) {
                            Ok(ticket) => break ticket,
                            Err(SubmitError::QueueFull { depth, capacity }) => {
                                assert!(depth >= 1);
                                assert_eq!(capacity, QUEUE_CAPACITY);
                                rejected.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("client {client} submit failed: {e}"),
                        }
                    };
                    if cancel {
                        ticket.cancel();
                    }
                    tickets.push((t, k, request, ticket));
                }
                // Router-dispatched portfolio traffic: parametric-only
                // perturbations (no deadlines, no cancels) so every
                // accepted routed request actually solves and the shadow
                // audits always reach a verdict.
                let mut routed_tickets = Vec::new();
                for _ in 0..ROUTED_PER_CLIENT {
                    let mut request = Request::default();
                    let mut q = portfolio_problem.q().to_vec();
                    for qi in q.iter_mut() {
                        *qi += 0.02 * (rng.gen::<f64>() - 0.5);
                    }
                    request.q = Some(q);
                    let ticket = loop {
                        match server.submit_routed(portfolio, request.clone()) {
                            Ok(ticket) => break ticket,
                            Err(SubmitError::QueueFull { .. }) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("client {client} routed submit failed: {e}"),
                        }
                    };
                    routed_tickets.push((client, request, ticket));
                }
                let mut finished = Vec::with_capacity(tickets.len());
                for (t, k, request, ticket) in tickets {
                    // Generous bound: a hang here is the bug this test exists
                    // to catch.
                    let response = ticket
                        .wait_timeout(Duration::from_secs(90))
                        .unwrap_or_else(|_| panic!("client {client} request {k} never completed"));
                    finished.push((t, k, request, response));
                }
                served.lock().expect("served lock").extend(finished);
                let mut routed_finished = Vec::with_capacity(routed_tickets.len());
                for (c, request, ticket) in routed_tickets {
                    let response =
                        ticket
                            .wait_timeout(Duration::from_secs(90))
                            .unwrap_or_else(|_| {
                                panic!("client {client} routed request never completed")
                            });
                    routed_finished.push((c, request, response));
                }
                routed_served
                    .lock()
                    .expect("routed served lock")
                    .extend(routed_finished);
            });
        }
    });
    server.shutdown();

    let served = served.into_inner().expect("served lock");
    assert_eq!(
        served.len(),
        CLIENTS * REQUESTS_PER_CLIENT,
        "every accepted request must reach a terminal response"
    );

    // Bitwise parity of every Solved answer against a direct solve.
    let mut solved = 0usize;
    for (t, k, request, response) in &served {
        let tenant = &tenants[*t];
        match &response.outcome {
            Outcome::Finished(result) => {
                if result.status != Status::Solved {
                    continue;
                }
                solved += 1;
                let mut reference = tenant.template.clone();
                let q = request
                    .q
                    .clone()
                    .unwrap_or_else(|| tenant.problem.q().to_vec());
                reference.update_q(&q).expect("reference update_q");
                reference
                    .update_bounds(tenant.problem.l(), tenant.problem.u())
                    .expect("reference update_bounds");
                reference.reset();
                let expect = reference.solve();
                assert_eq!(expect.status, Status::Solved, "request {k}");
                assert_eq!(expect.iterations, result.iterations, "request {k}");
                let bitwise = result
                    .x
                    .iter()
                    .zip(&expect.x)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                    && result
                        .y
                        .iter()
                        .zip(&expect.y)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                    && result.obj_val.to_bits() == expect.obj_val.to_bits();
                assert!(
                    bitwise,
                    "served answer for request {k} (tenant {t}) is not bitwise equal"
                );
            }
            Outcome::Expired | Outcome::Cancelled => {}
            Outcome::Failed(e) => panic!("request {k} failed: {e}"),
        }
    }
    assert!(
        solved >= served.len() / 2,
        "most of the workload must actually solve (got {solved}/{})",
        served.len()
    );

    // Routed portfolio answers: every request solved, and each answer is
    // bitwise identical to a direct solve on the template of whichever
    // backend the router dispatched it to.
    let routed_served = routed_served.into_inner().expect("routed served lock");
    assert_eq!(routed_served.len(), CLIENTS * ROUTED_PER_CLIENT);
    let mut routed_by_backend = [0usize; 2];
    for (c, request, response) in &routed_served {
        let Outcome::Finished(result) = &response.outcome else {
            panic!("routed request from client {c} did not finish: {response:?}");
        };
        assert_eq!(result.status, Status::Solved, "routed request (client {c})");
        let backend_idx = result.algorithm.index();
        routed_by_backend[backend_idx] += 1;
        let mut reference = portfolio_templates[backend_idx].clone();
        let q = request.q.clone().expect("routed requests always perturb q");
        reference.update_q(&q).expect("routed reference update_q");
        reference
            .update_bounds(portfolio_spec.problem.l(), portfolio_spec.problem.u())
            .expect("routed reference update_bounds");
        reference.reset();
        let expect = reference.solve();
        assert_eq!(expect.status, Status::Solved);
        assert_eq!(expect.iterations, result.iterations);
        let bitwise = result
            .x
            .iter()
            .zip(&expect.x)
            .all(|(a, b)| a.to_bits() == b.to_bits())
            && result.obj_val.to_bits() == expect.obj_val.to_bits();
        assert!(
            bitwise,
            "routed {} answer (client {c}) is not bitwise equal to a direct solve",
            result.algorithm
        );
    }
    let routed_solved = routed_served.len();
    assert!(
        routed_by_backend.iter().all(|&n| n > 0),
        "the router must exercise both backends (admm/pdqp split: {routed_by_backend:?})"
    );

    // The metrics pipeline agrees with the client-side picture.
    let metrics = server.metrics();
    let c = &metrics.counters;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    assert_eq!(
        load(&c.submitted),
        (CLIENTS * (REQUESTS_PER_CLIENT + ROUTED_PER_CLIENT)) as u64
    );
    assert_eq!(load(&c.completed), load(&c.submitted));
    assert_eq!(load(&c.solved), (solved + routed_solved) as u64);
    assert_eq!(
        load(&c.rejected_queue_full),
        rejected.load(Ordering::Relaxed)
    );
    assert!(
        rejected.load(Ordering::Relaxed) > 0,
        "a queue of 4 under 4 clients must exercise QueueFull backpressure"
    );
    // Both backends were served, on separate shards.
    assert!(
        load(&c.shard_misses) >= 6,
        "one shard per registered pattern"
    );

    // Shadow auditing: a deterministic 1-in-3 sample of routed requests
    // was re-solved on the sibling backend, every audit reached a
    // verdict, and the backends never disagreed.
    assert_eq!(
        load(&c.routed_portfolio),
        (CLIENTS * ROUTED_PER_CLIENT) as u64
    );
    // Sampling ticks are consumed by QueueFull-rejected attempts too, so
    // the exact count varies with backpressure timing; it must fire, and
    // every audit must reach a verdict.
    let audits = load(&c.shadow_audits);
    assert!(audits >= 1, "shadow sampling must fire");
    assert_eq!(load(&c.shadow_mismatches), 0, "backends must agree");
    assert_eq!(load(&c.shadow_inconclusive), 0);
    assert_eq!(load(&c.shadow_agreements), audits);
    // Per-backend solve counters saw traffic from both algorithms
    // (primaries plus shadow re-solves).
    let m = &metrics.backend;
    for algo in Algorithm::all() {
        assert!(
            m.solves(algo) >= 1 && m.solved(algo) >= 1,
            "backend {algo} saw no traffic"
        );
    }
    assert!(
        m.solves(Algorithm::Admm) + m.solves(Algorithm::Pdqp)
            >= (CLIENTS * ROUTED_PER_CLIENT) as u64 + audits,
        "routed primaries and shadow solves all feed the backend counters"
    );
}
