//! The serving front door: tenant registry, pattern-shard routing with
//! LRU eviction, admission control and drain-then-shutdown.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mib_qp::{Problem, Settings, Solver};

use crate::metrics::Metrics;
use crate::obs::{ObsConfig, ObsPlane};
use crate::pattern::PatternKey;
use crate::request::{RegisterError, Request, SubmitError, Ticket, TicketShared};
use crate::shard::{Pending, Shard, ShardConfig, Tenant};

/// Server-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bound of each shard's submission queue; submissions beyond it are
    /// rejected with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads per pattern shard.
    pub workers_per_shard: usize,
    /// Most-recently-used pattern shards kept warm; the least recently
    /// used shard beyond this bound is drained and evicted.
    pub max_shards: usize,
    /// Observability plane switch (flight recorder, SLO burn rates,
    /// rolling windows). Disabled by default; enabling it also enables
    /// `mib-trace` process-wide, so the flight recorder has records to
    /// retain.
    pub obs: ObsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            workers_per_shard: 2,
            max_shards: 8,
            obs: ObsConfig::default(),
        }
    }
}

impl ServeConfig {
    fn validate(&self) {
        assert!(self.queue_capacity >= 1, "queue_capacity must be >= 1");
        assert!(
            self.workers_per_shard >= 1,
            "workers_per_shard must be >= 1"
        );
        assert!(self.max_shards >= 1, "max_shards must be >= 1");
    }

    fn shard(&self) -> ShardConfig {
        ShardConfig {
            queue_capacity: self.queue_capacity,
            workers: self.workers_per_shard,
        }
    }
}

/// Opaque handle to a registered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// A live shard plus its LRU stamp.
#[derive(Debug)]
struct ShardSlot {
    shard: Arc<Shard>,
    last_used: u64,
}

/// Registry state guarded by the server mutex. Held only for map
/// bookkeeping — never across a solve, an enqueue wait or a join.
#[derive(Debug)]
struct ServerState {
    tenants: HashMap<u64, Arc<Tenant>>,
    shards: HashMap<PatternKey, ShardSlot>,
    next_tenant: u64,
    /// Monotonic LRU clock, bumped on every shard touch.
    tick: u64,
    accepting: bool,
}

/// Multi-tenant QP serving runtime.
///
/// Tenants [`register`](QpServer::register) a template problem once
/// (paying solver setup), then [`submit`](QpServer::submit) parametric
/// requests against it. Requests are routed by structural
/// [`PatternKey`] onto warm worker shards, batched as they queue,
/// solved by the tenant's own solver (`Settings::algorithm`) with
/// deadline/cancellation observation, and answered through [`Ticket`]s.
///
/// Every `Solved` answer is bitwise-identical to a direct cold solve of
/// the same parametric problem — serving is an execution strategy, not a
/// numerical one.
#[derive(Debug)]
pub struct QpServer {
    config: ServeConfig,
    metrics: Arc<Metrics>,
    obs: Arc<ObsPlane>,
    state: Mutex<ServerState>,
}

impl Default for QpServer {
    fn default() -> Self {
        QpServer::new(ServeConfig::default())
    }
}

impl QpServer {
    /// Creates an idle server. Shards (and their worker threads) are
    /// created lazily, on first use of each pattern.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (any zero bound).
    pub fn new(config: ServeConfig) -> Self {
        config.validate();
        let metrics = Arc::new(Metrics::new());
        let obs = Arc::new(ObsPlane::new(config.obs.enabled, Arc::clone(&metrics)));
        if config.obs.enabled {
            // The flight recorder feeds on trace records; without spans
            // there is nothing to tail-sample. The solvers sample their
            // kernel spans, so always-on tracing prices a fraction of
            // the iterations.
            mib_trace::enable();
        }
        QpServer {
            config,
            metrics,
            obs,
            state: Mutex::new(ServerState {
                tenants: HashMap::new(),
                shards: HashMap::new(),
                next_tenant: 0,
                tick: 0,
                accepting: true,
            }),
        }
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// The observability plane (flight recorder, rolling windows, SLO
    /// state). Always present; inert unless
    /// [`ObsConfig::enabled`](crate::ObsConfig) was set.
    pub fn obs(&self) -> Arc<ObsPlane> {
        Arc::clone(&self.obs)
    }

    /// The server configuration (read-only; fixed at construction).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Live (warm) pattern shards.
    pub fn shard_count(&self) -> usize {
        self.state.lock().expect("server state lock").shards.len()
    }

    /// Registers a tenant: performs full solver setup (equilibration,
    /// ordering, factorization) on the template problem and warms the
    /// pattern shard so the first submission is served hot.
    ///
    /// # Errors
    ///
    /// [`RegisterError::Setup`] if the problem or settings are rejected,
    /// [`RegisterError::ShuttingDown`] after [`shutdown`](Self::shutdown).
    pub fn register(
        &self,
        problem: Problem,
        settings: Settings,
    ) -> Result<TenantId, RegisterError> {
        // Setup is the expensive part; do it outside the registry lock.
        let pattern = PatternKey::of(&problem, settings.backend, settings.algorithm);
        let template = Solver::new(problem.clone(), settings)?;
        let evicted;
        let id;
        {
            let mut st = self.state.lock().expect("server state lock");
            if !st.accepting {
                return Err(RegisterError::ShuttingDown);
            }
            id = st.next_tenant;
            st.next_tenant += 1;
            let tenant = Tenant {
                id,
                pattern: pattern.clone(),
                problem,
                template,
            };
            st.tenants.insert(id, Arc::new(tenant));
            evicted = self.touch_shard(&mut st, &pattern).1;
        }
        self.drain_evicted(evicted);
        Ok(TenantId(id))
    }

    /// Deregisters a tenant. In-flight and queued requests of the tenant
    /// still complete (workers hold their own `Arc<Tenant>`); new
    /// submissions fail with [`SubmitError::UnknownTenant`]. The pattern
    /// shard stays warm for other tenants until evicted.
    pub fn deregister(&self, tenant: TenantId) -> bool {
        self.state
            .lock()
            .expect("server state lock")
            .tenants
            .remove(&tenant.0)
            .is_some()
    }

    /// Submits a parametric request for `tenant`. Returns a [`Ticket`]
    /// on admission; rejects synchronously (backpressure) otherwise.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownTenant`], [`SubmitError::QueueFull`] when
    /// the shard's bounded queue is at capacity, or
    /// [`SubmitError::ShuttingDown`].
    pub fn submit(&self, tenant: TenantId, mut request: Request) -> Result<Ticket, SubmitError> {
        let owner = {
            let st = self.state.lock().expect("server state lock");
            if !st.accepting {
                self.metrics.inc(&self.metrics.counters.rejected_shutdown);
                return Err(SubmitError::ShuttingDown);
            }
            Arc::clone(
                st.tenants
                    .get(&tenant.0)
                    .ok_or(SubmitError::UnknownTenant)?,
            )
        };
        // A concurrent eviction can stop the shard between our lookup and
        // the enqueue; re-route (the touch re-creates the shard) a couple
        // of times before giving up. The rejected Pending travels back so
        // the request is moved, never cloned.
        for _ in 0..3 {
            let (shard, evicted) = {
                let mut st = self.state.lock().expect("server state lock");
                if !st.accepting {
                    self.metrics.inc(&self.metrics.counters.rejected_shutdown);
                    return Err(SubmitError::ShuttingDown);
                }
                self.touch_shard(&mut st, &owner.pattern)
            };
            self.drain_evicted(evicted);
            let now = Instant::now();
            let ticket = TicketShared::new();
            let pending = Pending {
                tenant: Arc::clone(&owner),
                deadline: request.deadline.map(|d| now + d),
                request,
                ticket: Arc::clone(&ticket),
                submitted_at: now,
            };
            match shard.enqueue(pending) {
                Ok(()) => return Ok(Ticket { shared: ticket }),
                // Shard was stopped by a concurrent eviction; retry.
                Err((SubmitError::ShuttingDown, rejected)) => request = rejected.request,
                Err((e, _)) => return Err(e),
            }
        }
        self.metrics.inc(&self.metrics.counters.rejected_shutdown);
        Err(SubmitError::ShuttingDown)
    }

    /// Stops accepting work, drains every shard queue and joins all
    /// worker threads. Every already-accepted ticket is fulfilled before
    /// this returns. Idempotent.
    pub fn shutdown(&self) {
        let shards: Vec<Arc<Shard>> = {
            let mut st = self.state.lock().expect("server state lock");
            st.accepting = false;
            st.shards.drain().map(|(_, slot)| slot.shard).collect()
        };
        for shard in &shards {
            shard.stop();
        }
        for shard in &shards {
            shard.join();
        }
    }

    /// Returns the (possibly new) shard for `pattern`, stamps its LRU
    /// tick, and hands back any shard evicted by the `max_shards` bound
    /// for the caller to drain outside the lock.
    fn touch_shard(
        &self,
        st: &mut ServerState,
        pattern: &PatternKey,
    ) -> (Arc<Shard>, Option<Arc<Shard>>) {
        st.tick += 1;
        let tick = st.tick;
        let c = &self.metrics.counters;
        if let Some(slot) = st.shards.get_mut(pattern) {
            self.metrics.inc(&c.shard_hits);
            slot.last_used = tick;
            return (Arc::clone(&slot.shard), None);
        }
        self.metrics.inc(&c.shard_misses);
        let shard = Shard::spawn(
            pattern.clone(),
            self.config.shard(),
            Arc::clone(&self.metrics),
            Arc::clone(&self.obs),
        );
        st.shards.insert(
            pattern.clone(),
            ShardSlot {
                shard: Arc::clone(&shard),
                last_used: tick,
            },
        );
        let evicted = if st.shards.len() > self.config.max_shards {
            let coldest = st
                .shards
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
                .expect("shards cannot be empty here");
            self.metrics.inc(&c.shard_evictions);
            st.shards.remove(&coldest).map(|slot| slot.shard)
        } else {
            None
        };
        (shard, evicted)
    }

    /// Gracefully drains an evicted shard: queued requests are still
    /// served and their tickets fulfilled, then the workers exit.
    fn drain_evicted(&self, evicted: Option<Arc<Shard>>) {
        if let Some(shard) = evicted {
            shard.stop();
            shard.join();
        }
    }
}

impl Drop for QpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
