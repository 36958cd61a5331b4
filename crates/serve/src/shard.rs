//! Pattern shards: per-structure worker pools with bounded queues and an
//! opportunistic batching drain.
//!
//! A shard owns every resource keyed by one [`PatternKey`]: a bounded
//! submission queue (the backpressure boundary), a small pool of worker
//! threads, and — inside each worker — warm per-tenant [`Solver`] clones
//! that are re-parameterized and [`reset`](Solver::reset) per request, so
//! steady-state serving performs no setup work and no solver allocation.
//!
//! # Opportunistic batching
//!
//! A worker blocks until the queue is non-empty, claims what is queued
//! (at most `max_batch` requests) and solves that batch back-to-back —
//! one wakeup and one warm solver kept hot across consecutive
//! same-tenant requests. It never waits for a batch to fill: a batch is
//! solved one request after the other, so holding the first request for
//! later arrivals would only add its wait to every answer. Batches form
//! by themselves under load, from what arrives while the workers are
//! busy; an idle shard serves a lone request at once (DESIGN.md §9 has
//! the measurement).
//!
//! # Determinism
//!
//! Each request is fully re-parameterized from its tenant's template and
//! solved from a reset state, so the answer is a pure function of the
//! request — independent of which worker serves it, what that worker
//! served before, and how requests were batched. The soak test and
//! `load_bench` pin this down bitwise against direct solves.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mib_qp::{Algorithm, QpError, SolveResult, Solver, Status};

use crate::metrics::Metrics;
use crate::obs::ObsPlane;
use crate::pattern::PatternKey;
use crate::request::{Outcome, Request, Response, SubmitError, TicketShared};
use crate::router::BackendRouter;

/// A registered tenant: one template problem prepared for serving.
///
/// The template [`Solver`] carries the paid-for setup (equilibration,
/// ordering, symbolic + numeric factorization); workers clone it once
/// per tenant and keep the clone warm.
#[derive(Debug)]
pub(crate) struct Tenant {
    /// Server-unique id.
    pub id: u64,
    /// Structural routing key.
    pub pattern: PatternKey,
    /// Solver algorithm of the template (the backend label of every
    /// solve served for this tenant).
    pub algorithm: Algorithm,
    /// The registered base problem (source of `None`-field defaults).
    pub problem: mib_qp::Problem,
    /// Prepared solver prototype, cloned by workers.
    pub template: Solver,
}

/// One accepted request waiting in (or drained from) a shard queue.
#[derive(Debug)]
pub(crate) struct Pending {
    pub tenant: Arc<Tenant>,
    pub request: Request,
    pub ticket: Arc<TicketShared>,
    pub submitted_at: Instant,
    /// Absolute deadline derived from the request's relative one.
    pub deadline: Option<Instant>,
    /// Shadow-audit companion: after the primary solve, re-solve the
    /// same request on this sibling tenant (a different backend of the
    /// same portfolio) and cross-check the answers.
    pub shadow: Option<Arc<Tenant>>,
}

/// Per-shard knobs, copied from the server configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardConfig {
    pub queue_capacity: usize,
    pub max_batch: usize,
    pub workers: usize,
    pub shadow_rel_tol: f64,
}

/// Queue state guarded by the shard mutex.
#[derive(Debug)]
struct QueueState {
    queue: VecDeque<Pending>,
    /// Set by [`Shard::stop`]: drain what is queued, then exit.
    stopping: bool,
}

/// A pattern shard: bounded queue + condvar + worker pool.
#[derive(Debug)]
pub(crate) struct Shard {
    key: PatternKey,
    cfg: ShardConfig,
    state: Mutex<QueueState>,
    available: Condvar,
    metrics: Arc<Metrics>,
    router: Arc<BackendRouter>,
    obs: Arc<ObsPlane>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shard {
    /// Creates the shard and starts its worker threads.
    pub(crate) fn spawn(
        key: PatternKey,
        cfg: ShardConfig,
        metrics: Arc<Metrics>,
        router: Arc<BackendRouter>,
        obs: Arc<ObsPlane>,
    ) -> Arc<Shard> {
        let shard = Arc::new(Shard {
            key,
            cfg,
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(cfg.queue_capacity),
                stopping: false,
            }),
            available: Condvar::new(),
            metrics,
            router,
            obs,
            workers: Mutex::new(Vec::with_capacity(cfg.workers)),
        });
        let mut workers = shard.workers.lock().expect("shard worker lock");
        for w in 0..cfg.workers {
            let me = Arc::clone(&shard);
            let handle = std::thread::Builder::new()
                .name(format!("mib-serve-{}-{w}", me.key))
                .spawn(move || worker_loop(&me))
                .expect("spawning a shard worker thread");
            workers.push(handle);
        }
        drop(workers);
        shard
    }

    /// Admission control: accepts the request into the bounded queue or
    /// rejects it synchronously, handing the [`Pending`] back so the
    /// caller can retry (or drop it) without cloning the request.
    // The Err variant intentionally carries the Pending back by value:
    // boxing it would put an allocation on the submission path.
    #[allow(clippy::result_large_err)]
    pub(crate) fn enqueue(&self, pending: Pending) -> Result<(), (SubmitError, Pending)> {
        let mut st = self.state.lock().expect("shard queue lock");
        if st.stopping {
            return Err((SubmitError::ShuttingDown, pending));
        }
        if st.queue.len() >= self.cfg.queue_capacity {
            let depth = st.queue.len();
            drop(st);
            self.metrics.inc(&self.metrics.counters.rejected_queue_full);
            // A queue-full rejection is a shed: feed the readiness
            // window and (for trace-stamped requests) the flight ring.
            if self.obs.is_active() {
                self.obs
                    .record_shed(pending.request.trace_id, "queue_full", Instant::now());
            }
            return Err((
                SubmitError::QueueFull {
                    depth,
                    capacity: self.cfg.queue_capacity,
                },
                pending,
            ));
        }
        st.queue.push_back(pending);
        let depth = st.queue.len() as u64;
        drop(st);
        self.metrics.inc(&self.metrics.counters.submitted);
        self.metrics.queue_depth.observe(depth);
        if self.obs.is_active() {
            self.obs.record_admitted(Instant::now());
        }
        // The submit instant, with the observed depth: a trace viewer pairs
        // this with the worker-side `request` span to see the queue wait.
        mib_trace::mark("submit", mib_trace::Category::Serve, depth as f64);
        self.available.notify_one();
        Ok(())
    }

    /// Tells the workers to drain the queue and exit; wakes all of them.
    pub(crate) fn stop(&self) {
        self.state.lock().expect("shard queue lock").stopping = true;
        self.available.notify_all();
    }

    /// Joins every worker thread (the queue is fully drained first).
    pub(crate) fn join(&self) {
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("shard worker lock")
            .drain(..)
            .collect();
        for handle in handles {
            // A worker panic would already have poisoned nothing (workers
            // share no locks with us beyond the queue); surface it.
            handle.join().expect("shard worker panicked");
        }
    }

    /// Blocks until work is available, then claims what is queued, up to
    /// `max_batch` requests. Returns `None` when the shard is stopping
    /// and drained.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut st = self.state.lock().expect("shard queue lock");
        while st.queue.is_empty() {
            if st.stopping {
                return None;
            }
            st = self.available.wait(st).expect("shard queue lock");
        }
        let claimed = self.cfg.max_batch.min(st.queue.len());
        Some(st.queue.drain(..claimed).collect())
    }
}

/// Worker thread body: drain batches until the shard stops, keeping
/// a warm solver per tenant.
fn worker_loop(shard: &Arc<Shard>) {
    let mut warm: HashMap<u64, Solver> = HashMap::new();
    while let Some(batch) = shard.next_batch() {
        let size = batch.len();
        shard.metrics.inc(&shard.metrics.counters.batches);
        shard
            .metrics
            .counters
            .batched_requests
            .fetch_add(size as u64, std::sync::atomic::Ordering::Relaxed);
        shard.metrics.batch_size.observe(size as u64);
        {
            let tracing = mib_trace::enabled();
            let _batch_span = mib_trace::span_if(tracing, "batch", mib_trace::Category::Serve);
            mib_trace::record_if(
                tracing,
                mib_trace::Event::Mark {
                    name: "batch_size",
                    cat: mib_trace::Category::Serve,
                    value: size as f64,
                },
            );
            for pending in batch {
                serve_one(shard, &mut warm, pending, size);
            }
        }
        // Tail sampling consumed each request's records inside
        // serve_one; discard the ambient leftovers (the batch envelope
        // span, marks between requests) so this worker's buffer never
        // creeps toward the drop bound.
        if shard.obs.is_active() {
            mib_trace::discard_local();
        }
    }
}

/// Serves one drained request end-to-end and fulfills its ticket.
fn serve_one(shard: &Shard, warm: &mut HashMap<u64, Solver>, pending: Pending, batch_size: usize) {
    let metrics = &*shard.metrics;
    let Pending {
        tenant,
        request,
        ticket,
        submitted_at,
        deadline,
        shadow,
    } = pending;
    let picked_up = Instant::now();
    let queue_wait = picked_up.saturating_duration_since(submitted_at);
    let c = &metrics.counters;
    // Tail sampling: mark the start of this request's records so the
    // flight recorder can lift exactly them if the request turns out to
    // be worth a post-mortem. One cheap thread-local length read.
    let obs_active = shard.obs.is_active();
    let cursor = obs_active.then(mib_trace::cursor);
    // Request lifecycle span: nests under the worker's `batch` span and
    // encloses the solver's own `solve` span. The queue wait already
    // elapsed before this span opened, so it is attached as a mark (and
    // reconstructed as a synthetic span in flight-recorder exports).
    let tracing = mib_trace::enabled();
    let request_span = mib_trace::span_if(tracing, "request", mib_trace::Category::Serve);
    mib_trace::record_if(
        tracing,
        mib_trace::Event::Mark {
            name: "queue_wait_us",
            cat: mib_trace::Category::Serve,
            value: queue_wait.as_secs_f64() * 1e6,
        },
    );

    // Short-circuits: never start a solve that is already moot.
    let (outcome, service_time) = if ticket.is_cancelled() {
        metrics.inc(&c.cancelled_before_start);
        (Outcome::Cancelled, Duration::ZERO)
    } else if deadline.is_some_and(|d| picked_up >= d) {
        metrics.inc(&c.expired);
        (Outcome::Expired, Duration::ZERO)
    } else {
        let solver = match warm.entry(tenant.id) {
            Entry::Occupied(e) => {
                metrics.inc(&c.warm_hits);
                e.into_mut()
            }
            Entry::Vacant(v) => {
                metrics.inc(&c.warm_builds);
                v.insert(tenant.template.clone())
            }
        };

        let solve_span = mib_trace::span_if(tracing, "solve_request", mib_trace::Category::Serve);
        let outcome = match solve_request(solver, &tenant, &request, deadline, Some(&ticket)) {
            Ok(result) => {
                match result.status {
                    Status::Solved => metrics.inc(&c.solved),
                    Status::MaxIterations => metrics.inc(&c.max_iterations),
                    Status::PrimalInfeasible | Status::DualInfeasible => metrics.inc(&c.infeasible),
                    Status::TimedOut => metrics.inc(&c.timed_out),
                    Status::Cancelled => metrics.inc(&c.cancelled),
                }
                record_solve_telemetry(shard, &tenant, &result, false);
                Outcome::Finished(result)
            }
            Err(e) => {
                metrics.inc(&c.failed);
                Outcome::Failed(e)
            }
        };
        drop(solve_span);
        if let (Some(sibling), Outcome::Finished(primary)) = (&shadow, &outcome) {
            shadow_audit(shard, warm, sibling, &request, primary);
        }
        (outcome, picked_up.elapsed())
    };
    // Close the request span before sampling so its End record is part
    // of the captured tree.
    drop(request_span);
    if let Some(cursor) = cursor {
        let trace_id = if request.trace_id != 0 {
            request.trace_id
        } else {
            shard.obs.next_trace_id()
        };
        let service_us = u64::try_from(service_time.as_micros()).unwrap_or(u64::MAX);
        shard.obs.capture(
            cursor,
            trace_id,
            &outcome,
            service_us,
            submitted_at,
            picked_up,
        );
    }
    finish(
        shard,
        &tenant,
        &ticket,
        outcome,
        queue_wait,
        service_time,
        batch_size,
        submitted_at,
    );
}

/// Feeds one terminal solve into the backend-labelled counters and, for
/// runs that actually iterated to an answer (converged or ran out of
/// iterations — not interrupted), into the router's per-structure EWMA.
/// Audit solves update the EWMA only — they never count toward the
/// router's cold-exploration quota (see [`BackendRouter::record_audit`]).
///
/// [`BackendRouter::record_audit`]: crate::router::BackendRouter::record_audit
fn record_solve_telemetry(shard: &Shard, tenant: &Tenant, result: &SolveResult, audit: bool) {
    let micros = u64::try_from(result.solve_time.as_micros()).unwrap_or(u64::MAX);
    shard.metrics.backend.record(
        result.algorithm,
        result.status.is_solved(),
        result.iterations as u64,
        micros,
    );
    if matches!(result.status, Status::Solved | Status::MaxIterations) {
        let structure = tenant.pattern.structure_digest();
        let micros = micros as f64;
        if audit {
            shard
                .router
                .record_audit(structure, result.algorithm, micros);
        } else {
            shard.router.record(structure, result.algorithm, micros);
        }
    }
}

/// Re-solves an already-answered request on the shadow tenant (a sibling
/// backend of the same portfolio) and cross-checks the two answers.
/// Shadow solves run without the request's deadline or cancellation flag
/// — the audit compares algorithms, not interruptions — and feed the
/// backend counters and the router's EWMA (but not its exploration
/// quota, which only routed primaries satisfy). A verdict needs both
/// solves terminal-by-convergence: agreement when both converge to
/// objectives within the relative tolerance (or both prove
/// infeasibility), mismatch when they contradict, inconclusive
/// otherwise.
fn shadow_audit(
    shard: &Shard,
    warm: &mut HashMap<u64, Solver>,
    tenant: &Arc<Tenant>,
    request: &Request,
    primary: &SolveResult,
) {
    let metrics = &*shard.metrics;
    let c = &metrics.counters;
    metrics.inc(&c.shadow_audits);
    let tracing = mib_trace::enabled();
    let _shadow_span = mib_trace::span_if(tracing, "shadow_audit", mib_trace::Category::Serve);
    let solver = warm
        .entry(tenant.id)
        .or_insert_with(|| tenant.template.clone());
    let Ok(shadow) = solve_request(solver, tenant, request, None, None) else {
        metrics.inc(&c.shadow_inconclusive);
        return;
    };
    record_solve_telemetry(shard, tenant, &shadow, true);
    let infeasible = |s: Status| matches!(s, Status::PrimalInfeasible | Status::DualInfeasible);
    match (primary.status, shadow.status) {
        (Status::Solved, Status::Solved) => {
            let scale = primary.obj_val.abs().max(shadow.obj_val.abs()).max(1.0);
            if (primary.obj_val - shadow.obj_val).abs() <= shard.cfg.shadow_rel_tol * scale {
                metrics.inc(&c.shadow_agreements);
            } else {
                metrics.inc(&c.shadow_mismatches);
            }
        }
        (a, b) if infeasible(a) && infeasible(b) => metrics.inc(&c.shadow_agreements),
        (Status::Solved, b) if infeasible(b) => metrics.inc(&c.shadow_mismatches),
        (a, Status::Solved) if infeasible(a) => metrics.inc(&c.shadow_mismatches),
        _ => metrics.inc(&c.shadow_inconclusive),
    }
}

/// Re-parameterizes the warm solver from the tenant template plus the
/// request and solves. The sequence (update, reset, optional warm start)
/// makes the answer a pure function of `(template, request)` — bitwise
/// equal to a fresh clone of the template given the same updates.
/// Shadow solves pass `cancel: None` so an audit cannot be aborted by
/// the primary ticket's cancellation.
fn solve_request(
    solver: &mut Solver,
    tenant: &Tenant,
    request: &Request,
    deadline: Option<Instant>,
    cancel: Option<&TicketShared>,
) -> Result<SolveResult, QpError> {
    solver.update_q(request.q.as_deref().unwrap_or(tenant.problem.q()))?;
    match &request.bounds {
        Some((l, u)) => solver.update_bounds(l, u)?,
        None => solver.update_bounds(tenant.problem.l(), tenant.problem.u())?,
    }
    solver.reset();
    if let Some((x, y)) = &request.warm_start {
        if x.len() != tenant.problem.num_vars() || y.len() != tenant.problem.num_constraints() {
            return Err(QpError::InvalidProblem(format!(
                "warm start dimensions ({}, {}) do not match problem ({}, {})",
                x.len(),
                y.len(),
                tenant.problem.num_vars(),
                tenant.problem.num_constraints()
            )));
        }
        solver.warm_start(x, y);
    }
    solver.set_deadline(deadline);
    solver.set_cancel_flag(cancel.map(TicketShared::cancel_flag));
    let result = solver.solve();
    solver.set_cancel_flag(None);
    solver.set_deadline(None);
    Ok(result)
}

/// Records the terminal latency observations and fulfills the ticket.
#[allow(clippy::too_many_arguments)]
fn finish(
    shard: &Shard,
    tenant: &Tenant,
    ticket: &TicketShared,
    outcome: Outcome,
    queue_wait: Duration,
    service_time: Duration,
    batch_size: usize,
    submitted_at: Instant,
) {
    let metrics = &*shard.metrics;
    let e2e = submitted_at.elapsed();
    metrics.queue_wait.observe_duration(queue_wait);
    metrics.service.observe_duration(service_time);
    metrics.e2e.observe_duration(e2e);
    metrics.inc(&metrics.counters.completed);
    if shard.obs.is_active() {
        let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let e2e_us = us(e2e);
        let verdict = shard.obs.slo_verdict(&outcome, e2e_us);
        shard.obs.record_response(
            tenant.id,
            tenant.algorithm,
            us(queue_wait),
            us(service_time),
            e2e_us,
            verdict,
            Instant::now(),
        );
    }
    ticket.fulfill(Response {
        outcome,
        queue_wait,
        service_time,
        batch_size,
    });
}
