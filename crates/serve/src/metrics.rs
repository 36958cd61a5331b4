//! Lock-free serving metrics: atomic counters plus log-linear
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

/// Relaxed ordering everywhere: counters are statistics, not
/// synchronization.
const ORD: Ordering = Ordering::Relaxed;

/// Bits below a value's leading one that pick its sub-bucket: each
/// octave `[2^k, 2^(k+1))` splits into `2^SUB_BITS` = 8 buckets.
const SUB_BITS: u32 = 3;

/// Buckets covering all of `u64`: one per value below 16, then 8 for each
/// of the 60 octaves from `2^4` up to `2^64`.
const BUCKETS: usize = (1 << (SUB_BITS + 1)) + 60 * (1 << SUB_BITS);

/// The bucket of `v`: its bit length and the next [`SUB_BITS`] bits.
/// Values below 16 are their own bucket.
fn bucket_of(v: u64) -> usize {
    let shift = (u64::BITS - SUB_BITS - 1).saturating_sub(v.leading_zeros());
    ((shift as usize) << SUB_BITS) + (v >> shift) as usize
}

/// Inclusive upper bound of bucket `i`. Every value in the bucket is at
/// least `8/9` of it, so the bound overstates a sample by at most 12.5 %.
fn bucket_top(i: usize) -> u64 {
    let sub = 1 << SUB_BITS;
    if i < sub {
        return i as u64;
    }
    let shift = i / sub - 1;
    let lead = (i % sub + sub) as u64;
    (lead << shift) | ((1u64 << shift) - 1)
}

/// A log-linear histogram over all of `u64` (microseconds, queue depths,
/// batch sizes, frame bytes): `BUCKETS` buckets of 8 per octave, exact
/// below 16, plus a running sum, a count and the largest sample —
/// everything atomic, so nothing overflows and an observation neither
/// locks nor allocates.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, ORD);
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
        if value > self.max.load(ORD) {
            self.max.fetch_max(value, ORD);
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

    /// An upper bound on the nearest-rank `q`-quantile (`q` in 0..=1):
    /// the top of the bucket holding it, capped at the largest sample. It
    /// is never below the exact quantile and at most 12.5 % above it; 0
    /// when empty.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // At least one sample must be covered: q = 0.0 reports the bucket
        // of the minimum sample, not the first (possibly empty) bucket.
        let target = ((q * total as f64).ceil() as u64).max(1);
        let max = self.max.load(ORD);
        let mut seen = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(ORD);
            if seen >= target {
                return bucket_top(i).min(max);
            }
        }
        max
    }

    /// The cell-wise combination of `self` and `other` under `op`, with
    /// `max` for the largest sample.
    fn combine(&self, other: &Self, op: fn(u64, u64) -> u64, max: u64) -> Self {
        let cell = |a: &AtomicU64, b: &AtomicU64| AtomicU64::new(op(a.load(ORD), b.load(ORD)));
        Histogram {
            buckets: std::array::from_fn(|i| cell(&self.buckets[i], &other.buckets[i])),
            sum: cell(&self.sum, &other.sum),
            count: cell(&self.count, &other.count),
            max: AtomicU64::new(max),
        }
    }

    /// The samples of `self` and `other` together, as one histogram.
    pub(crate) fn merged(&self, other: &Self) -> Self {
        let max = self.max.load(ORD).max(other.max.load(ORD));
        self.combine(other, u64::saturating_add, max)
    }

    /// A copy of the current state. Cells are read one at a time, so a
    /// copy taken while samples are still arriving may be torn across
    /// cells; take it at a quiet point.
    pub fn snapshot(&self) -> Self {
        self.merged(&Histogram::new())
    }

    /// The samples recorded since `earlier` (a [`snapshot`](Self::snapshot)
    /// of this histogram), as a histogram of their own: what one phase of
    /// a run added to a long-lived registry. Its largest sample is not
    /// known exactly; the top of its highest bucket stands in for it.
    pub fn since(&self, earlier: &Self) -> Self {
        let mut delta = self.combine(earlier, u64::saturating_sub, 0);
        let top = delta.buckets.iter().rposition(|b| b.load(ORD) > 0);
        let max = top.map_or(0, |i| bucket_top(i).min(self.max.load(ORD)));
        delta.max = AtomicU64::new(max);
        delta
    }

    /// Appends `name_bucket{le=...}` lines for the non-empty buckets, the
    /// `+Inf` bucket, and `_sum` / `_count`.
    fn render_into(&self, name: &str, out: &mut String) {
        let mut cumulative = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(ORD);
            if n > 0 {
                cumulative += n;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_top(i)
                );
            }
        }
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
#[derive(Debug, Default)]
pub struct Metrics {
    /// Event counters.
    pub counters: Counters,
    /// Time from submission to the start of the solve, µs.
    pub queue_wait: Histogram,
    /// Solve (service) time, µs.
    pub service: Histogram,
    /// End-to-end latency (submission to terminal response), µs; its
    /// count is the number of requests that reached a terminal response.
    pub e2e: Histogram,
    /// Shard queue depth observed at each enqueue; its count is the
    /// number of requests accepted into a shard queue.
    pub queue_depth: Histogram,
    /// Micro-batch sizes drained by shard workers: its count is the
    /// number of batches, its sum the requests served through them.
    pub batch_size: Histogram,
    /// Wire-frame sizes (bytes) seen by the networked front-end, both
    /// directions.
    pub net_frame_bytes: Histogram,
    /// Per-tenant admission counters, keyed by tenant label. `BTreeMap`
    /// so the rendered series are sorted by label regardless of
    /// registration order.
    tenant_admission: Mutex<BTreeMap<String, Arc<TenantCounters>>>,
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
    fn tenant_admission_snapshot(&self) -> Vec<(String, u64, u64, u64, u64)> {
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
    /// (`mib_serve_*`). Stable ordering — labelled series (tenant) emit
    /// in sorted label order — so snapshots diff cleanly
    /// across runs and are suitable for golden files.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.counters.render_into(&mut out);
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
        for (name, h) in [
            ("queue_wait_micros", &self.queue_wait),
            ("service_micros", &self.service),
            ("e2e_micros", &self.e2e),
            ("queue_depth", &self.queue_depth),
            ("batch_size", &self.batch_size),
            ("net_frame_bytes", &self.net_frame_bytes),
        ] {
            h.render_into(&format!("mib_serve_{name}"), &mut out);
        }
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 3, 10, 100, 1000, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 3 + 10 + 100 + 1000 + 1_000_000);
        // Values below 16 have buckets of their own: the median is exact.
        assert_eq!(h.quantile_bound(0.5), 10);
        // Nothing overflows: the top quantile is the largest sample.
        assert_eq!(h.quantile_bound(1.0), 1_000_000);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn quantile_bounds_are_within_an_eighth_of_the_exact_quantile() {
        let mut rng = StdRng::seed_from_u64(0x4157_0001);
        let mut samples: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..1u64 << 40)).collect();
        samples.extend([0, 1, 7, 8, u64::MAX]);
        for k in 1..64 {
            let p = 1u64 << k;
            samples.extend([p - 1, p, p + 1]);
        }
        let h = Histogram::new();
        for &v in &samples {
            h.observe(v);
        }
        samples.sort_unstable();
        let max = *samples.last().expect("samples");
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let bound = h.quantile_bound(q);
            assert!(bound >= exact, "q={q}: bound {bound} < exact {exact}");
            assert!(
                bound as f64 <= 1.125 * exact as f64,
                "q={q}: bound {bound} > 1.125 x exact {exact}"
            );
            assert!(bound <= max, "q={q}: bound {bound} > max {max}");
        }
        // The same contract sample by sample, at every edge.
        for &v in &samples {
            let one = Histogram::new();
            one.observe(v);
            let top = bucket_top(bucket_of(v));
            assert!(
                top >= v && top as f64 <= 1.125 * v as f64,
                "v={v}: top {top}"
            );
            assert_eq!(one.quantile_bound(0.5), v, "a lone sample is its own max");
        }
    }

    #[test]
    fn since_holds_only_the_later_samples() {
        let h = Histogram::new();
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
        // 100 lies in [96, 103] and 300 in [288, 319].
        assert_eq!(delta.quantile_bound(0.0), 103);
        assert_eq!(delta.quantile_bound(1.0), 319);
        assert_eq!(h.since(&h.snapshot()).count(), 0);
    }

    #[test]
    fn duration_observation_saturates_micros() {
        let h = Histogram::new();
        h.observe_duration(Duration::from_micros(5));
        h.observe_duration(Duration::from_secs(10));
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_bound(1.0), 10_000_000);
    }

    #[test]
    fn render_contains_every_counter_and_histogram() {
        let m = Metrics::new();
        m.inc(&m.counters.solved);
        m.queue_wait.observe(3);
        m.queue_depth.observe(1);
        let text = m.render();
        assert!(text.contains("mib_serve_solved_total 1"));
        assert!(text.contains("mib_serve_failed_total 0"));
        assert!(text.contains("mib_serve_queue_wait_micros_count 1"));
        assert!(text.contains("mib_serve_queue_depth_bucket{le=\"1\"} 1"));
        assert!(text.contains("mib_serve_e2e_micros_bucket{le=\"+Inf\"} 0"));
        // Only non-empty buckets render, plus +Inf.
        let buckets: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("mib_serve_queue_wait_micros_bucket"))
            .collect();
        assert_eq!(
            buckets,
            [
                "mib_serve_queue_wait_micros_bucket{le=\"3\"} 1",
                "mib_serve_queue_wait_micros_bucket{le=\"+Inf\"} 1"
            ]
        );
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
        let h = Histogram::new();
        assert_eq!(h.quantile_bound(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.since(&h.snapshot()).quantile_bound(1.0), 0);
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new();
        // Empty: every quantile is 0, including the extremes.
        assert_eq!(h.quantile_bound(0.0), 0);
        assert_eq!(h.quantile_bound(1.0), 0);
        // One sample (value 2): q = 0.0 must cover at least that sample,
        // not report the empty first bucket.
        h.observe(2);
        assert_eq!(h.quantile_bound(0.0), 2);
        assert_eq!(h.quantile_bound(0.5), 2);
        assert_eq!(h.quantile_bound(1.0), 2);
    }

    #[test]
    fn quantile_of_values_exactly_on_bucket_bounds() {
        // Bounds are inclusive: a sample equal to a bucket's top lands in
        // that bucket, and the quantile reports the top itself.
        let h = Histogram::new();
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_top(i)), i, "top of bucket {i}");
            h.observe(bucket_top(i));
        }
        assert_eq!(h.count(), BUCKETS as u64);
        assert_eq!(h.quantile_bound(0.0), 0);
        assert_eq!(h.quantile_bound(0.5), bucket_top(BUCKETS / 2 - 1));
        // The last bucket ends at u64::MAX: nothing lies beyond it.
        assert_eq!(h.quantile_bound(1.0), u64::MAX);
    }

    #[test]
    fn log2_preset_quantile_round_trips_at_bucket_edges() {
        // Batch sizes on the powers of two 1..=2048 (the edges of the old
        // log2 batch-size buckets) keep their quantiles: the extremes are
        // exact and the median is within 12.5 % above the exact value.
        let h = Histogram::new();
        h.observe(16);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile_bound(q), 16);
        }
        let h = Histogram::new();
        let edges: Vec<u64> = (0..12).map(|k| 1 << k).collect();
        for &b in &edges {
            h.observe(b);
        }
        assert_eq!(h.quantile_bound(0.0), 1);
        let median = h.quantile_bound(0.5);
        assert!((32..=36).contains(&median), "median bound {median}");
        assert_eq!(h.quantile_bound(1.0), 2048);
        // Past the last old edge the quantile stays finite and exact at
        // the top, where the old overflow bucket reported u64::MAX.
        h.observe(2049);
        assert_eq!(h.quantile_bound(1.0), 2049);
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
        let h = Histogram::new();
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
