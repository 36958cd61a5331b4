//! Multi-threaded soak test of the serving runtime.
//!
//! Four client threads hammer a `QpServer` with a deterministic mixed
//! workload — tenants across all five benchmark domains, both KKT
//! backends and both solver algorithms (ADMM and PDQP), parametric
//! perturbations, deadlines, cancellations — through
//! a deliberately small queue so `QueueFull` backpressure actually fires.
//! The acceptance bar:
//!
//! 1. every accepted request reaches a terminal response (no hangs, no
//!    lost tickets — the queued and answered counts agree),
//! 2. every `Solved` answer is **bitwise** identical to a direct
//!    single-threaded solve of the identically parameterized problem,
//!    and meets OSQP's stopping criterion at its tenant's tolerances,
//!    recomputed by `OsqpCriterion`,
//! 3. the server survives shutdown with all workers joined.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mib::problems::{instance, Domain};
use mib::qp::{Algorithm, KktBackend, Problem, Settings, Solver, Status};
use mib::serve::{Outcome, QpServer, Request, Response, ServeConfig, SubmitError, TenantId};
use mib_bench::answer::OsqpCriterion;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 40;

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
        max_shards: 8,
        obs: mib::serve::ObsConfig::default(),
    });

    // Mixed patterns: one tenant per domain on the direct backend, one
    // indirect-backend tenant (same structure, different shard) and one
    // PDQP tenant on a structure none of the others use.
    let pdqp = Settings {
        eps_abs: 1e-5,
        eps_rel: 1e-5,
        max_iter: 2_000_000,
        ..Settings::with_algorithm(Algorithm::Pdqp)
    };
    let tenant_specs = [
        (Domain::Portfolio, 0, Settings::default()),
        (Domain::Lasso, 0, Settings::default()),
        (Domain::Huber, 0, Settings::default()),
        (Domain::Mpc, 0, Settings::default()),
        (Domain::Svm, 0, Settings::default()),
        (
            Domain::Portfolio,
            1,
            Settings::with_backend(KktBackend::Indirect),
        ),
        (Domain::Lasso, 1, pdqp),
    ];
    let tenants: Vec<TenantSpec> = tenant_specs
        .into_iter()
        .map(|(domain, index, settings)| {
            let spec = instance(domain, index);
            let id = server
                .register(spec.problem.clone(), settings.clone())
                .expect("register");
            let template = Solver::new(spec.problem.clone(), settings).expect("template");
            TenantSpec {
                id,
                problem: spec.problem,
                template,
            }
        })
        .collect();

    let rejected = AtomicU64::new(0);
    let served: Mutex<Vec<(usize, usize, Request, Response)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let server = &server;
            let tenants = &tenants;
            let served = &served;
            let rejected = &rejected;
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
    let mut pdqp_solved = 0usize;
    for (t, k, request, response) in &served {
        let tenant = &tenants[*t];
        match &response.outcome {
            Outcome::Finished(result) => {
                if result.status != Status::Solved {
                    continue;
                }
                solved += 1;
                if result.algorithm == Algorithm::Pdqp {
                    pdqp_solved += 1;
                }
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
                let bitwise = result.x.len() == expect.x.len()
                    && result.y.len() == expect.y.len()
                    && result
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
                // And the answer meets its own tolerance, by a check that
                // shares no code with the solvers.
                let s = reference.settings();
                let c = OsqpCriterion::of(
                    reference.problem(),
                    s.eps_abs,
                    s.eps_rel,
                    &result.x,
                    &result.y,
                    &result.z,
                );
                assert!(c.holds(), "request {k} (tenant {t}): {c:?}");
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
    assert!(pdqp_solved > 0, "the PDQP tenant must serve Solved answers");

    // The metrics pipeline agrees with the client-side picture.
    let metrics = server.metrics();
    let c = &metrics.counters;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    assert_eq!(
        metrics.queue_depth.count(),
        (CLIENTS * REQUESTS_PER_CLIENT) as u64
    );
    assert_eq!(metrics.e2e.count(), metrics.queue_depth.count());
    assert_eq!(load(&c.solved), solved as u64);
    assert_eq!(
        load(&c.rejected_queue_full),
        rejected.load(Ordering::Relaxed)
    );
    assert!(
        rejected.load(Ordering::Relaxed) > 0,
        "a queue of 4 under 4 clients must exercise QueueFull backpressure"
    );
    // Every tenant's pattern got a shard of its own.
    assert!(
        load(&c.shard_misses) >= 7,
        "one shard per registered pattern"
    );
}
