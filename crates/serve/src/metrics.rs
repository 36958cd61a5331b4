//! Lock-free serving metrics: atomic counters plus fixed-bucket
//! histograms, with a text snapshot export.
//!
//! Every hot-path observation is a relaxed atomic increment — no locks,
//! no allocation — so the metrics layer cannot introduce contention into
//! the submit → queue → solve → complete pipeline it measures. The
//! exporter ([`Metrics::render`]) produces a stable, Prometheus-flavored
//! text snapshot (`mib_serve_*` lines) suitable for scraping or for the
//! trace reports under `results/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mib_qp::{Algorithm, ALGORITHM_COUNT};

/// Relaxed ordering everywhere: counters are statistics, not
/// synchronization.
const ORD: Ordering = Ordering::Relaxed;

/// Upper bucket bounds (inclusive) of the latency histograms, in
/// microseconds; the last bucket is unbounded. Powers of four cover
/// sub-microsecond solves up to multi-second stragglers in 11 buckets.
pub const LATENCY_BUCKETS_US: [u64; 10] =
    [1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144];

/// Upper bucket bounds (inclusive) of the queue-depth histogram; the last
/// bucket is unbounded.
pub const DEPTH_BUCKETS: [u64; 8] = [0, 1, 2, 4, 8, 16, 32, 64];

/// Upper bucket bounds (inclusive) of the wire-frame-size histogram,
/// bytes; the last bucket is unbounded. Powers of eight cover the
/// 18-byte cancel frame up to multi-megabyte warm-start payloads.
pub const FRAME_BYTES_BUCKETS: [u64; 8] = [
    32, 256, 2_048, 16_384, 131_072, 1_048_576, 8_388_608, 67_108_864,
];

/// Log-spaced (power-of-two) bucket bounds starting at 1: the preset
/// for small-count gauges (queue depths, batch sizes) whose interesting
/// range is 1..few-thousand — doubling buckets give constant relative
/// resolution where the fixed latency preset would waste buckets.
pub const fn log2_buckets<const B: usize>() -> [u64; B] {
    let mut bounds = [0u64; B];
    let mut i = 0;
    while i < B {
        bounds[i] = 1 << i;
        i += 1;
    }
    bounds
}

/// Upper bucket bounds (inclusive) of the micro-batch-size histogram:
/// log-spaced 1..=2048, the preset sized for batch/depth gauges.
pub const BATCH_SIZE_BUCKETS: [u64; 12] = log2_buckets();

/// A fixed-bucket histogram over `u64` samples (microseconds or queue
/// depths). `B` bounded buckets plus one overflow bucket, a running sum
/// and a count — everything atomic.
#[derive(Debug)]
pub struct Histogram<const B: usize> {
    bounds: [u64; B],
    buckets: [AtomicU64; B],
    overflow: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
}

impl<const B: usize> Histogram<B> {
    /// An empty histogram with the given inclusive upper bounds.
    pub fn new(bounds: [u64; B]) -> Self {
        Histogram {
            bounds,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn observe(&self, value: u64) {
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.buckets[i].fetch_add(1, ORD),
            None => self.overflow.fetch_add(1, ORD),
        };
        // The running sum saturates instead of wrapping: long-lived servers
        // feeding u64::MAX-saturated duration samples must never wrap the
        // sum back to a small value and report a bogus mean.
        let mut cur = self.sum.load(ORD);
        loop {
            let next = cur.saturating_add(value);
            match self.sum.compare_exchange_weak(cur, next, ORD, ORD) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.count.fetch_add(1, ORD);
    }

    /// Records a duration in microseconds (saturating).
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(ORD)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(ORD)
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Smallest bucket bound at or below which at least `q` (0..=1) of
    /// the samples fall — an upper estimate of the q-quantile. Overflow
    /// samples report `u64::MAX`.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // At least one sample must be covered: q = 0.0 reports the bucket
        // of the minimum sample, not the first (possibly empty) bound.
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(ORD);
            if seen >= target {
                return self.bounds[i];
            }
        }
        u64::MAX
    }

    /// A copy of the current state. Cells are read one at a time, so a
    /// copy taken while samples are still arriving may be torn across
    /// cells; take it at a quiet point.
    pub fn snapshot(&self) -> Self {
        Histogram {
            bounds: self.bounds,
            buckets: std::array::from_fn(|i| AtomicU64::new(self.buckets[i].load(ORD))),
            overflow: AtomicU64::new(self.overflow.load(ORD)),
            sum: AtomicU64::new(self.sum()),
            count: AtomicU64::new(self.count()),
        }
    }

    /// The samples recorded since `earlier` (a [`snapshot`](Self::snapshot)
    /// of this histogram), as a histogram of their own: what one phase of
    /// a run added to a long-lived registry.
    pub fn since(&self, earlier: &Self) -> Self {
        let delta = |now: &AtomicU64, then: &AtomicU64| {
            AtomicU64::new(now.load(ORD).saturating_sub(then.load(ORD)))
        };
        Histogram {
            bounds: self.bounds,
            buckets: std::array::from_fn(|i| delta(&self.buckets[i], &earlier.buckets[i])),
            overflow: delta(&self.overflow, &earlier.overflow),
            sum: delta(&self.sum, &earlier.sum),
            count: delta(&self.count, &earlier.count),
        }
    }

    /// Appends `name_bucket{le=...}` / `_sum` / `_count` lines.
    fn render_into(&self, name: &str, out: &mut String) {
        let mut cumulative = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(ORD);
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                self.bounds[i]
            );
        }
        cumulative += self.overflow.load(ORD);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

/// One named atomic counter of the registry.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Monotonic event counters of the serving pipeline.
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        impl Counters {
            fn render_into(&self, out: &mut String) {
                $(
                    let _ = writeln!(
                        out,
                        concat!("mib_serve_", stringify!($name), "_total {}"),
                        self.$name.load(ORD)
                    );
                )+
            }
        }
    };
}

counters! {
    /// Requests accepted into a shard queue.
    submitted,
    /// Requests that reached a terminal response.
    completed,
    /// Requests whose solve converged (`Status::Solved`).
    solved,
    /// Requests that hit the iteration limit.
    max_iterations,
    /// Requests whose solve detected primal/dual infeasibility.
    infeasible,
    /// Requests that hit their deadline inside the ADMM loop.
    timed_out,
    /// Requests cancelled inside the ADMM loop.
    cancelled,
    /// Requests whose deadline expired before the solve started.
    expired,
    /// Requests cancelled before the solve started.
    cancelled_before_start,
    /// Requests with invalid parametric data (update rejected).
    failed,
    /// Submissions rejected because the shard queue was full.
    rejected_queue_full,
    /// Submissions rejected because the server was shutting down.
    rejected_shutdown,
    /// Submissions routed to an already-warm pattern shard.
    shard_hits,
    /// Submissions (or registrations) that had to build a shard.
    shard_misses,
    /// Warm shards evicted by the LRU bound.
    shard_evictions,
    /// Solves served by an already-warm per-tenant solver.
    warm_hits,
    /// Solves that had to clone a tenant template first.
    warm_builds,
    /// Micro-batches drained by shard workers.
    batches,
    /// Requests served through micro-batches (sum of batch sizes).
    batched_requests,
    /// Portfolio submissions routed by the backend router and admitted.
    routed_portfolio,
    /// Shadow audits started (a sampled request re-solved on a second
    /// backend).
    shadow_audits,
    /// Shadow audits where both backends reached consistent answers.
    shadow_agreements,
    /// Shadow audits where the backends disagreed beyond tolerance.
    shadow_mismatches,
    /// Shadow audits with no verdict (either solve non-terminal).
    shadow_inconclusive,
    /// Requests admitted by the admission controller (all tenants).
    admitted,
    /// Requests shed by per-tenant token-bucket rate limiting.
    shed_rate_limited,
    /// Requests shed by weighted fair-share under congestion.
    shed_over_share,
    /// Queue-full sheds recorded by the admission controller (the
    /// explicit shed-frame counterpart of `rejected_queue_full`).
    shed_queue_full,
    /// TCP connections accepted by the networked front-end.
    net_connections_opened,
    /// TCP connections torn down (cleanly or on protocol error).
    net_connections_closed,
    /// Wire frames decoded from clients.
    net_frames_received,
    /// Wire frames sent to clients.
    net_frames_sent,
    /// Frames rejected by the decoder (bad magic/version/kind, torn
    /// length, oversized, malformed payload).
    net_frame_decode_errors,
    /// Connections dropped at the hello handshake (unknown token).
    net_auth_failures,
    /// Responses that met the SLO (within the latency objective and
    /// terminal by convergence). Only counted when the observability
    /// plane is enabled.
    slo_good,
    /// Responses that violated the SLO (too slow, expired, timed out or
    /// failed). Only counted when the observability plane is enabled.
    slo_bad,
    /// Anomalous requests retained by the flight recorder.
    flight_kept,
    /// Flight records evicted by the ring bound.
    flight_evicted,
}

/// Per-backend solve counters: every cell is keyed by
/// [`Algorithm::index`], and the rendered snapshot labels each line with
/// a `backend="..."` dimension
/// (`mib_serve_backend_solves_total{backend="admm"}`).
#[derive(Debug, Default)]
pub struct BackendCounters {
    solves: [AtomicU64; ALGORITHM_COUNT],
    solved: [AtomicU64; ALGORITHM_COUNT],
    iterations: [AtomicU64; ALGORITHM_COUNT],
    solve_micros: [AtomicU64; ALGORITHM_COUNT],
}

impl BackendCounters {
    /// Records one terminal solve served by `algorithm`.
    pub fn record(&self, algorithm: Algorithm, converged: bool, iterations: u64, micros: u64) {
        let i = algorithm.index();
        self.solves[i].fetch_add(1, ORD);
        if converged {
            self.solved[i].fetch_add(1, ORD);
        }
        self.iterations[i].fetch_add(iterations, ORD);
        self.solve_micros[i].fetch_add(micros, ORD);
    }

    /// Terminal solves served by `algorithm`.
    pub fn solves(&self, algorithm: Algorithm) -> u64 {
        self.solves[algorithm.index()].load(ORD)
    }

    /// Converged solves served by `algorithm`.
    pub fn solved(&self, algorithm: Algorithm) -> u64 {
        self.solved[algorithm.index()].load(ORD)
    }

    /// Total solver iterations spent by `algorithm`.
    pub fn iterations(&self, algorithm: Algorithm) -> u64 {
        self.iterations[algorithm.index()].load(ORD)
    }

    /// Total solve wall time spent by `algorithm`, µs.
    pub fn solve_micros(&self, algorithm: Algorithm) -> u64 {
        self.solve_micros[algorithm.index()].load(ORD)
    }

    fn render_into(&self, out: &mut String) {
        // Labelled series render in sorted label order within each
        // metric, independent of enum declaration order, so snapshot
        // diffs stay stable (`Algorithm::all()` happens to be sorted
        // today; don't rely on it).
        let mut algos: Vec<Algorithm> = Algorithm::all().to_vec();
        algos.sort_by_key(|a| a.name());
        for (name, cells) in [
            ("solves", &self.solves),
            ("solved", &self.solved),
            ("iterations", &self.iterations),
            ("solve_micros", &self.solve_micros),
        ] {
            for algo in &algos {
                let _ = writeln!(
                    out,
                    "mib_serve_backend_{name}_total{{backend=\"{}\"}} {}",
                    algo.name(),
                    cells[algo.index()].load(ORD)
                );
            }
        }
    }
}

/// Per-tenant admission counters, labelled by the tenant string in the
/// rendered snapshot
/// (`mib_serve_admission_admitted_total{tenant="..."}`). Handles are
/// shared `Arc`s: the admission controller caches one per tenant, so
/// hot-path decisions are plain atomic increments — the registry mutex
/// is touched only at registration and render time.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Requests admitted for the tenant.
    pub admitted: AtomicU64,
    /// Requests shed by the tenant's token bucket.
    pub shed_rate_limited: AtomicU64,
    /// Requests shed by fair share under congestion.
    pub shed_over_share: AtomicU64,
    /// Queue-full sheds attributed to the tenant.
    pub shed_queue_full: AtomicU64,
}

/// The serving metrics registry: counters plus latency/depth histograms.
///
/// Shared by reference (`Arc`) between the server, its shards and the
/// caller; every field is individually atomic.
#[derive(Debug)]
pub struct Metrics {
    /// Event counters.
    pub counters: Counters,
    /// Per-backend (algorithm-labelled) solve counters.
    pub backend: BackendCounters,
    /// Time from submission to the start of the solve, µs.
    pub queue_wait: Histogram<10>,
    /// Solve (service) time, µs.
    pub service: Histogram<10>,
    /// End-to-end latency (submission to terminal response), µs.
    pub e2e: Histogram<10>,
    /// Shard queue depth observed at each enqueue.
    pub queue_depth: Histogram<8>,
    /// Micro-batch sizes drained by shard workers (log-spaced buckets).
    pub batch_size: Histogram<12>,
    /// Wire-frame sizes (bytes) seen by the networked front-end, both
    /// directions.
    pub net_frame_bytes: Histogram<8>,
    /// Per-tenant admission counters, keyed by tenant label. `BTreeMap`
    /// so the rendered series are sorted by label regardless of
    /// registration order.
    tenant_admission: Mutex<BTreeMap<String, Arc<TenantCounters>>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: Counters::default(),
            backend: BackendCounters::default(),
            queue_wait: Histogram::new(LATENCY_BUCKETS_US),
            service: Histogram::new(LATENCY_BUCKETS_US),
            e2e: Histogram::new(LATENCY_BUCKETS_US),
            queue_depth: Histogram::new(DEPTH_BUCKETS),
            batch_size: Histogram::new(BATCH_SIZE_BUCKETS),
            net_frame_bytes: Histogram::new(FRAME_BYTES_BUCKETS),
            tenant_admission: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Bumps a counter by one. (Convenience for call sites holding only
    /// the registry.)
    pub fn inc(&self, counter: &AtomicU64) {
        counter.fetch_add(1, ORD);
    }

    /// The admission-counter handle for `label`, creating it on first
    /// use. The returned `Arc` is cached by callers (the admission
    /// controller) so decisions never re-enter the registry lock.
    pub fn tenant_admission(&self, label: &str) -> Arc<TenantCounters> {
        let mut registry = self
            .tenant_admission
            .lock()
            .expect("tenant admission registry lock");
        Arc::clone(registry.entry(label.to_string()).or_default())
    }

    /// Snapshot of every tenant's admission counters, sorted by label:
    /// `(label, admitted, shed_rate_limited, shed_over_share,
    /// shed_queue_full)`.
    pub fn tenant_admission_snapshot(&self) -> Vec<(String, u64, u64, u64, u64)> {
        let registry = self
            .tenant_admission
            .lock()
            .expect("tenant admission registry lock");
        registry
            .iter()
            .map(|(label, c)| {
                (
                    label.clone(),
                    c.admitted.load(ORD),
                    c.shed_rate_limited.load(ORD),
                    c.shed_over_share.load(ORD),
                    c.shed_queue_full.load(ORD),
                )
            })
            .collect()
    }

    /// Renders the whole registry as Prometheus-flavored text lines
    /// (`mib_serve_*`). Stable ordering — labelled series (backend,
    /// tenant) emit in sorted label order — so snapshots diff cleanly
    /// across runs and are suitable for golden files.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.counters.render_into(&mut out);
        self.backend.render_into(&mut out);
        let tenants = self.tenant_admission_snapshot();
        for (name, field) in [
            ("admitted", 0usize),
            ("shed_rate_limited", 1),
            ("shed_over_share", 2),
            ("shed_queue_full", 3),
        ] {
            for (label, admitted, rate_limited, over_share, queue_full) in &tenants {
                let value = [*admitted, *rate_limited, *over_share, *queue_full][field];
                let _ = writeln!(
                    out,
                    "mib_serve_admission_{name}_total{{tenant=\"{label}\"}} {value}"
                );
            }
        }
        self.queue_wait
            .render_into("mib_serve_queue_wait_micros", &mut out);
        self.service
            .render_into("mib_serve_service_micros", &mut out);
        self.e2e.render_into("mib_serve_e2e_micros", &mut out);
        self.queue_depth
            .render_into("mib_serve_queue_depth", &mut out);
        self.batch_size
            .render_into("mib_serve_batch_size", &mut out);
        self.net_frame_bytes
            .render_into("mib_serve_net_frame_bytes", &mut out);
        // Derived latency breakdown: where the end-to-end time goes
        // (queueing vs solving), as mean/p50/p99 summaries of the same
        // histograms — the text-report companion to the per-request
        // `request`/`solve_request` trace spans.
        for (name, h) in [
            ("queue_wait", &self.queue_wait),
            ("service", &self.service),
            ("e2e", &self.e2e),
        ] {
            let _ = writeln!(out, "mib_serve_{name}_micros_mean {:.3}", h.mean());
            for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
                let _ = writeln!(
                    out,
                    "mib_serve_{name}_micros_{label} {}",
                    h.quantile_bound(q)
                );
            }
        }
        // Span loss visibility: the trace layer's process-lifetime count
        // of records dropped by full thread buffers. Silent loss in the
        // flight recorder's source would otherwise be invisible.
        let _ = writeln!(
            out,
            "mib_trace_dropped_records_total {}",
            mib_trace::total_dropped()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h: Histogram<10> = Histogram::new(LATENCY_BUCKETS_US);
        for v in [1u64, 3, 10, 100, 1000, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 3 + 10 + 100 + 1000 + 1_000_000);
        // Half the samples are <= 16µs.
        assert!(h.quantile_bound(0.5) <= 16);
        // The overflow sample (1s) pushes the max quantile to +Inf.
        assert_eq!(h.quantile_bound(1.0), u64::MAX);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn since_holds_only_the_later_samples() {
        let h: Histogram<10> = Histogram::new(LATENCY_BUCKETS_US);
        for v in [2u64, 3, 1_000_000] {
            h.observe(v);
        }
        let before = h.snapshot();
        for v in [100u64, 200, 300] {
            h.observe(v);
        }
        let delta = h.since(&before);
        assert_eq!(delta.count(), 3);
        assert_eq!(delta.sum(), 600);
        assert_eq!(delta.quantile_bound(0.0), 256);
        assert_eq!(delta.quantile_bound(1.0), 1_024);
        assert_eq!(h.since(&h.snapshot()).count(), 0);
    }

    #[test]
    fn duration_observation_saturates_micros() {
        let h: Histogram<10> = Histogram::new(LATENCY_BUCKETS_US);
        h.observe_duration(Duration::from_micros(5));
        h.observe_duration(Duration::from_secs(10));
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn render_contains_every_counter_and_histogram() {
        let m = Metrics::new();
        m.inc(&m.counters.submitted);
        m.inc(&m.counters.solved);
        m.queue_wait.observe(3);
        m.queue_depth.observe(1);
        let text = m.render();
        assert!(text.contains("mib_serve_submitted_total 1"));
        assert!(text.contains("mib_serve_solved_total 1"));
        assert!(text.contains("mib_serve_completed_total 0"));
        assert!(text.contains("mib_serve_queue_wait_micros_count 1"));
        assert!(text.contains("mib_serve_queue_depth_bucket{le=\"1\"} 1"));
        assert!(text.contains("mib_serve_e2e_micros_bucket{le=\"+Inf\"} 0"));
    }

    #[test]
    fn backend_counters_render_with_a_backend_label() {
        let m = Metrics::new();
        m.backend.record(Algorithm::Admm, true, 75, 1200);
        m.backend.record(Algorithm::Admm, false, 4000, 9000);
        m.backend.record(Algorithm::Pdqp, true, 310, 800);
        assert_eq!(m.backend.solves(Algorithm::Admm), 2);
        assert_eq!(m.backend.solved(Algorithm::Admm), 1);
        assert_eq!(m.backend.iterations(Algorithm::Admm), 4075);
        assert_eq!(m.backend.solve_micros(Algorithm::Pdqp), 800);
        let text = m.render();
        assert!(text.contains("mib_serve_backend_solves_total{backend=\"admm\"} 2"));
        assert!(text.contains("mib_serve_backend_solves_total{backend=\"pdqp\"} 1"));
        assert!(text.contains("mib_serve_backend_solved_total{backend=\"pdqp\"} 1"));
        assert!(text.contains("mib_serve_backend_iterations_total{backend=\"admm\"} 4075"));
        assert!(text.contains("mib_serve_shadow_mismatches_total 0"));
        assert!(text.contains("mib_serve_routed_portfolio_total 0"));
    }

    #[test]
    fn labelled_series_render_sorted_regardless_of_registration_order() {
        let m = Metrics::new();
        // Register tenants in reverse-sorted order; the render must come
        // out sorted by label anyway.
        for label in ["zeta", "alpha", "mid"] {
            m.tenant_admission(label).admitted.fetch_add(1, ORD);
        }
        let text = m.render();
        let tenant_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("mib_serve_admission_admitted_total"))
            .collect();
        assert_eq!(tenant_lines.len(), 3);
        let mut sorted = tenant_lines.clone();
        sorted.sort_unstable();
        assert_eq!(tenant_lines, sorted, "tenant series must be sorted");
        let backend_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("mib_serve_backend_solves_total"))
            .collect();
        let mut sorted = backend_lines.clone();
        sorted.sort_unstable();
        assert_eq!(backend_lines, sorted, "backend series must be sorted");
        // Two renders of the same registry are identical.
        assert_eq!(text, m.render());
    }

    #[test]
    fn tenant_counters_are_shared_handles() {
        let m = Metrics::new();
        let h1 = m.tenant_admission("t");
        let h2 = m.tenant_admission("t");
        h1.shed_queue_full.fetch_add(2, ORD);
        assert_eq!(h2.shed_queue_full.load(ORD), 2);
        assert_eq!(
            m.tenant_admission_snapshot(),
            vec![("t".to_string(), 0, 0, 0, 2)]
        );
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h: Histogram<8> = Histogram::new(DEPTH_BUCKETS);
        assert_eq!(h.quantile_bound(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantile_edge_cases() {
        let h: Histogram<8> = Histogram::new(DEPTH_BUCKETS);
        // Empty: every quantile is 0, including the extremes.
        assert_eq!(h.quantile_bound(0.0), 0);
        assert_eq!(h.quantile_bound(1.0), 0);
        // One sample in the third bucket (value 2): q = 0.0 must cover at
        // least that sample, not report the empty first bound.
        h.observe(2);
        assert_eq!(h.quantile_bound(0.0), 2);
        assert_eq!(h.quantile_bound(0.5), 2);
        assert_eq!(h.quantile_bound(1.0), 2);
    }

    #[test]
    fn quantile_of_values_exactly_on_bucket_bounds() {
        // Bounds are inclusive: a sample equal to a bound lands in that
        // bucket, and the quantile reports the bound itself.
        let h: Histogram<8> = Histogram::new(DEPTH_BUCKETS);
        for &b in &DEPTH_BUCKETS {
            h.observe(b);
        }
        assert_eq!(h.count(), DEPTH_BUCKETS.len() as u64);
        assert_eq!(h.quantile_bound(0.0), 0);
        // 4 of 8 samples are <= 2 (bounds 0, 1, 2 plus... 0,1,2 are three);
        // the 0.5 quantile needs ceil(4) samples: bounds 0,1,2,4 → 4.
        assert_eq!(h.quantile_bound(0.5), 4);
        assert_eq!(h.quantile_bound(1.0), *DEPTH_BUCKETS.last().unwrap());
        // One more sample beyond every bound overflows: max quantile
        // becomes u64::MAX.
        h.observe(DEPTH_BUCKETS.last().unwrap() + 1);
        assert_eq!(h.quantile_bound(1.0), u64::MAX);
    }

    #[test]
    fn log2_preset_is_doubling_from_one() {
        assert_eq!(
            BATCH_SIZE_BUCKETS,
            [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
        );
        let small: [u64; 4] = log2_buckets();
        assert_eq!(small, [1, 2, 4, 8]);
    }

    #[test]
    fn log2_preset_quantile_round_trips_at_bucket_edges() {
        let h: Histogram<12> = Histogram::new(BATCH_SIZE_BUCKETS);
        // Empty: every quantile (including the extremes) is 0.
        assert_eq!(h.quantile_bound(0.0), 0);
        assert_eq!(h.quantile_bound(0.5), 0);
        assert_eq!(h.quantile_bound(1.0), 0);
        // Single sample exactly on a bucket edge: every quantile reports
        // that edge back.
        h.observe(16);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile_bound(q), 16);
        }
        // One sample on every edge: q=0 is the smallest edge, q=1 the
        // largest, q=0.5 the median edge.
        let h: Histogram<12> = Histogram::new(BATCH_SIZE_BUCKETS);
        for &b in &BATCH_SIZE_BUCKETS {
            h.observe(b);
        }
        assert_eq!(h.quantile_bound(0.0), 1);
        assert_eq!(h.quantile_bound(0.5), 32);
        assert_eq!(h.quantile_bound(1.0), 2048);
        // Beyond the last edge: overflow reports u64::MAX.
        h.observe(2049);
        assert_eq!(h.quantile_bound(1.0), u64::MAX);
    }

    #[test]
    fn render_exposes_batch_size_histogram_and_trace_drops() {
        let m = Metrics::new();
        m.batch_size.observe(4);
        let text = m.render();
        assert!(text.contains("mib_serve_batch_size_bucket{le=\"4\"} 1"));
        assert!(text.contains("mib_serve_batch_size_count 1"));
        let line = text
            .lines()
            .find(|l| l.starts_with("mib_trace_dropped_records_total"))
            .expect("render must expose the trace drop counter");
        let value: u64 = line
            .split_whitespace()
            .nth(1)
            .expect("counter line has a value")
            .parse()
            .expect("counter value is numeric");
        assert_eq!(value, mib_trace::total_dropped());
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h: Histogram<10> = Histogram::new(LATENCY_BUCKETS_US);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        h.observe(17);
        assert_eq!(h.sum(), u64::MAX, "sum must saturate, not wrap");
        assert_eq!(h.count(), 3);
        // The mean of a saturated sum is still a sane (huge) number.
        assert!(h.mean() > 0.0);
        assert!(h.mean().is_finite());
    }

    #[test]
    fn render_includes_latency_breakdown() {
        let m = Metrics::new();
        for v in [10u64, 20, 30] {
            m.queue_wait.observe(v);
            m.service.observe(v * 10);
            m.e2e.observe(v * 11);
        }
        let text = m.render();
        assert!(text.contains("mib_serve_queue_wait_micros_mean 20.000"));
        assert!(text.contains("mib_serve_queue_wait_micros_p50 "));
        assert!(text.contains("mib_serve_service_micros_p99 "));
        assert!(text.contains("mib_serve_e2e_micros_mean "));
    }
}
