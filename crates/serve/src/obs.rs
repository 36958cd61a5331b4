//! The serving observability plane: tail-sampled flight recorder,
//! rolling-window latency aggregation, and SLO burn-rate tracking.
//!
//! Everything here is optional and off by default
//! ([`ObsConfig::enabled`]). When disabled, the plane costs one relaxed
//! atomic load per call site and allocates nothing — the zero-allocation
//! proof over `solve_into` keeps holding with this module compiled in.
//! When enabled, the serving layer:
//!
//! * captures a [`mib_trace::cursor`] per request and moves the span
//!   records of *anomalous* requests (slow, deadline-missed, cancelled,
//!   failed, shed) into a bounded [`FlightRecorder`] ring — tail
//!   sampling: the traces an operator wants are exactly the ones that
//!   misbehaved, and the well-behaved majority never leaves the
//!   thread-local buffer;
//! * feeds every terminal response into rolling windows (per-phase and
//!   per-tenant), each a ring of [`Histogram`]s, from which
//!   counts, means and p50/p99 upper bounds are computed over the
//!   trailing window;
//! * classifies every eligible response as SLO-good or SLO-bad (within
//!   the latency objective and terminal-by-convergence) and exposes
//!   multi-window burn rates: `burn = bad_fraction / (1 - target)`,
//!   the standard error-budget consumption speed (burn 1.0 = exactly
//!   spending the budget; 14.4 over 1h exhausts a 30-day budget in 2h).
//!
//! The plane renders two text documents for the admin listener:
//! [`ObsPlane::render_slo`] (objectives, burn rates, rolling quantiles)
//! and [`ObsPlane::healthz`] (readiness from shed ratio + queue depth).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use mib_qp::Status;
use mib_trace::{FlightRecord, FlightRecorder, KeepReason, Record};

use crate::metrics::{Histogram, Metrics};
use crate::request::Outcome;

/// Relaxed ordering everywhere: observability is statistics, not
/// synchronization.
const ORD: Ordering = Ordering::Relaxed;

/// Histograms in the ring behind each rolling series: the long window is
/// split into this many sub-windows, and the oldest is recycled as the
/// clock moves on.
const SUB_WINDOWS: u64 = 10;

/// Most per-tenant rolling series kept; tenants beyond the bound are
/// aggregated into the phase series only (bounded memory under tenant
/// churn).
const MAX_TENANT_SERIES: usize = 256;

/// Bound of the flight-recorder ring; the oldest record is evicted first.
const FLIGHT_CAPACITY: usize = 256;

/// Service time above which a request is retained as
/// [`KeepReason::Slow`], µs.
const SLOW_US: u64 = 50_000;

/// SLO latency objective: an otherwise-good response slower than this
/// end to end is SLO-bad, µs.
const SLO_LATENCY_US: u64 = 10_000;

/// SLO target fraction of good responses (three nines).
const SLO_TARGET: f64 = 0.999;

/// Short burn-rate window (fast-burn alerting, and the `/healthz` shed
/// window), seconds.
const BURN_SHORT_SECS: u64 = 60;

/// Long burn-rate window (slow-burn alerting), seconds; also the
/// retention of every rolling series.
const BURN_LONG_SECS: u64 = 600;

/// `/healthz` turns unready when the shed fraction over the short window
/// exceeds this ratio.
const HEALTHZ_SHED_RATIO: f64 = 0.5;

/// Seconds each sub-window of a rolling series covers.
const SUB_WINDOW_SECS: u64 = BURN_LONG_SECS.div_ceil(SUB_WINDOWS);

/// Observability configuration, embedded in
/// [`ServeConfig`](crate::ServeConfig).
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsConfig {
    /// Master switch. When `false` (the default) the plane records
    /// nothing and the serving hot path pays one atomic load per
    /// request.
    pub enabled: bool,
}

/// One rolling latency series over the long window: a ring of
/// [`SUB_WINDOWS`] histograms, each holding the samples of
/// [`SUB_WINDOW_SECS`] consecutive seconds.
#[derive(Debug)]
struct Series {
    /// `(sub-window index, its samples)`; `u64::MAX` marks an unused slot.
    ring: Vec<(u64, Histogram)>,
}

impl Series {
    fn new() -> Series {
        Series {
            ring: (0..SUB_WINDOWS)
                .map(|_| (u64::MAX, Histogram::new()))
                .collect(),
        }
    }

    fn observe(&mut self, sec: u64, us: u64) {
        let sub = sec / SUB_WINDOW_SECS;
        let slot = &mut self.ring[(sub % SUB_WINDOWS) as usize];
        if slot.0 != sub {
            *slot = (sub, Histogram::new());
        }
        slot.1.observe(us);
    }

    /// The samples of every sub-window that starts inside the trailing
    /// long window ending at `now_sec`, so none is older than the window;
    /// a sample up to one sub-window younger may already be gone.
    fn window(&self, now_sec: u64) -> Histogram {
        self.ring
            .iter()
            .filter(|(sub, _)| {
                *sub != u64::MAX && {
                    let start = sub * SUB_WINDOW_SECS;
                    start <= now_sec && start + BURN_LONG_SECS > now_sec
                }
            })
            .fold(Histogram::new(), |acc, (_, h)| acc.merged(h))
    }
}

/// Appends the p50/p99 upper-bound lines of one rolling series.
fn write_quantiles(out: &mut String, kind: &str, label: &str, h: &Histogram) {
    for (name, q) in [("p50", 0.5), ("p99", 0.99)] {
        let _ = writeln!(
            out,
            "mib_obs_{kind}_{name}_us{{{label}}} {}",
            h.quantile_bound(q)
        );
    }
}

/// Per-second good/bad tallies behind the burn-rate computation (and,
/// reused with different semantics, the admitted/shed readiness window).
#[derive(Debug)]
struct TallyRing {
    slots: Vec<(u64, u64, u64)>, // (sec, a, b)
}

impl TallyRing {
    fn new() -> TallyRing {
        TallyRing {
            slots: vec![(u64::MAX, 0, 0); BURN_LONG_SECS as usize],
        }
    }

    fn add(&mut self, sec: u64, a: u64, b: u64) {
        let idx = (sec % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.0 != sec {
            *slot = (sec, 0, 0);
        }
        slot.1 += a;
        slot.2 += b;
    }

    fn window(&self, now_sec: u64, window_secs: u64) -> (u64, u64) {
        let oldest = now_sec.saturating_sub(window_secs.saturating_sub(1));
        let mut a = 0;
        let mut b = 0;
        for &(sec, sa, sb) in &self.slots {
            if sec >= oldest && sec <= now_sec {
                a += sa;
                b += sb;
            }
        }
        (a, b)
    }
}

/// Rolling aggregation state behind the plane's mutex: per-phase and
/// per-tenant latency series plus the SLO and shed tallies.
#[derive(Debug)]
struct RollingState {
    queue_wait: Series,
    service: Series,
    e2e: Series,
    tenant: BTreeMap<u64, Series>,
    slo: TallyRing,       // (good, bad)
    admission: TallyRing, // (admitted, shed)
}

impl RollingState {
    fn new() -> RollingState {
        RollingState {
            queue_wait: Series::new(),
            service: Series::new(),
            e2e: Series::new(),
            tenant: BTreeMap::new(),
            slo: TallyRing::new(),
            admission: TallyRing::new(),
        }
    }
}

/// One burn-rate window (see [`ObsPlane::burn_windows`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct BurnWindow {
    /// Window length, seconds.
    secs: u64,
    /// SLO-good responses inside the window.
    good: u64,
    /// SLO-bad responses inside the window.
    bad: u64,
    /// Error-budget burn rate: `bad_fraction / (1 - target)`; 0 when
    /// the window is empty.
    burn: f64,
}

/// The observability plane shared between the serving runtime, its
/// shards, the wire front-end and the admin listener.
#[derive(Debug)]
pub struct ObsPlane {
    metrics: Arc<Metrics>,
    flight: FlightRecorder,
    epoch: Instant,
    /// The rolling windows and tallies; `None` when the plane is disabled.
    state: Option<Mutex<RollingState>>,
    next_trace: AtomicU64,
}

impl ObsPlane {
    /// Builds the plane. A disabled plane holds no rolling state at all.
    pub(crate) fn new(enabled: bool, metrics: Arc<Metrics>) -> ObsPlane {
        ObsPlane {
            metrics,
            flight: FlightRecorder::new(if enabled { FLIGHT_CAPACITY } else { 0 }),
            epoch: Instant::now(),
            state: enabled.then(|| Mutex::new(RollingState::new())),
            next_trace: AtomicU64::new(1),
        }
    }

    /// The locked rolling state, or `None` when the plane is disabled.
    fn rolling(&self) -> Option<MutexGuard<'_, RollingState>> {
        let state = self.state.as_ref()?;
        Some(state.lock().expect("obs rolling state lock"))
    }

    /// Whether the plane records anything.
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }

    /// The flight-recorder ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// A fresh nonzero server-side trace id, assigned to requests the
    /// client did not stamp. The high half carries the process id so
    /// ids from different servers cannot collide in one trace store.
    pub fn next_trace_id(&self) -> u128 {
        let lo = self.next_trace.fetch_add(1, ORD);
        (u128::from(std::process::id()) << 64) | u128::from(lo)
    }

    /// Seconds since the plane was built (the rolling-window clock).
    fn sec(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.epoch).as_secs()
    }

    /// Classifies a finished request and, when it is worth a
    /// post-mortem, moves its records since `cursor` into the flight
    /// ring (prepending a synthetic queue-wait span covering
    /// `submitted_at..picked_up`). Uninteresting records are discarded.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn capture(
        &self,
        cursor: mib_trace::Cursor,
        trace_id: u128,
        outcome: &Outcome,
        service_us: u64,
        submitted_at: Instant,
        picked_up: Instant,
    ) {
        let reason = match outcome {
            Outcome::Expired => Some(KeepReason::DeadlineMissed),
            Outcome::Cancelled => Some(KeepReason::Cancelled),
            Outcome::Failed(_) => Some(KeepReason::Failed),
            Outcome::Finished(r) => match r.status {
                Status::TimedOut => Some(KeepReason::DeadlineMissed),
                Status::Cancelled => Some(KeepReason::Cancelled),
                _ if service_us > SLOW_US => Some(KeepReason::Slow),
                _ => None,
            },
        };
        let Some(reason) = reason else {
            // Not worth keeping: drop the request's records so the
            // thread buffer never fills with well-behaved traffic.
            drop(mib_trace::take_since(cursor));
            return;
        };
        let mut records = mib_trace::take_since(cursor);
        let span = mib_trace::fresh_span_id();
        let (name, cat) = ("queue_wait", mib_trace::Category::Serve);
        let at = |t, event| Record {
            ts_ns: mib_trace::timestamp_ns(t),
            span,
            event,
        };
        records.splice(
            0..0,
            [
                at(submitted_at, mib_trace::Event::Begin { name, cat }),
                at(picked_up, mib_trace::Event::End { name, cat }),
            ],
        );
        let (tid, thread) = mib_trace::thread_info();
        self.push_flight(FlightRecord {
            trace_id,
            reason,
            tid,
            thread,
            records,
        });
    }

    /// Retains a flight record and mirrors the ring's kept/evicted
    /// totals into the metrics counters.
    pub(crate) fn push_flight(&self, record: FlightRecord) {
        self.flight.push(record);
        let c = &self.metrics.counters;
        c.flight_kept.store(self.flight.kept(), ORD);
        c.flight_evicted.store(self.flight.evicted(), ORD);
    }

    /// Records a request shed before it ever reached a queue. When the
    /// client stamped a trace id, a minimal synthetic flight record
    /// (one `shed` span with the reason as a mark name) is retained so
    /// `/trace/<id>` can answer "what happened to my request" even for
    /// work the server refused. Unstamped sheds only feed the
    /// readiness window — a shed flood cannot fill the ring.
    pub fn record_shed(&self, trace_id: u128, reason: &'static str, now: Instant) {
        let Some(mut st) = self.rolling() else {
            return;
        };
        st.admission.add(self.sec(now), 0, 1);
        drop(st);
        if trace_id == 0 {
            return;
        }
        let span = mib_trace::fresh_span_id();
        let ts = mib_trace::timestamp_ns(now);
        let cat = mib_trace::Category::Serve;
        let records = [
            mib_trace::Event::Begin { name: "shed", cat },
            mib_trace::Event::Mark {
                name: reason,
                cat,
                value: 1.0,
            },
            mib_trace::Event::End { name: "shed", cat },
        ]
        .map(|event| Record {
            ts_ns: ts,
            span,
            event,
        })
        .to_vec();
        let (tid, thread) = mib_trace::thread_info();
        self.push_flight(FlightRecord {
            trace_id,
            reason: KeepReason::Shed,
            tid,
            thread,
            records,
        });
    }

    /// Feeds one admitted request into the readiness window.
    pub fn record_admitted(&self, now: Instant) {
        if let Some(mut st) = self.rolling() {
            st.admission.add(self.sec(now), 1, 0);
        }
    }

    /// Feeds one terminal response into the rolling windows and the SLO
    /// tally. `verdict` is `Some(good)` for SLO-eligible responses and
    /// `None` for client-cancelled ones (neither good nor bad — a
    /// client abort is not server error budget).
    pub(crate) fn record_response(
        &self,
        tenant_id: u64,
        queue_wait_us: u64,
        service_us: u64,
        e2e_us: u64,
        verdict: Option<bool>,
        now: Instant,
    ) {
        let Some(mut st) = self.rolling() else {
            return;
        };
        let sec = self.sec(now);
        st.queue_wait.observe(sec, queue_wait_us);
        st.service.observe(sec, service_us);
        st.e2e.observe(sec, e2e_us);
        if st.tenant.len() < MAX_TENANT_SERIES || st.tenant.contains_key(&tenant_id) {
            st.tenant
                .entry(tenant_id)
                .or_insert_with(Series::new)
                .observe(sec, e2e_us);
        }
        match verdict {
            Some(true) => st.slo.add(sec, 1, 0),
            Some(false) => st.slo.add(sec, 0, 1),
            None => {}
        }
        drop(st);
        let c = &self.metrics.counters;
        match verdict {
            Some(true) => self.metrics.inc(&c.slo_good),
            Some(false) => self.metrics.inc(&c.slo_bad),
            None => {}
        }
    }

    /// The SLO-eligibility verdict of one terminal response:
    /// `Some(good)` or `None` when the response does not count (client
    /// cancellations).
    pub(crate) fn slo_verdict(&self, outcome: &Outcome, e2e_us: u64) -> Option<bool> {
        match outcome {
            Outcome::Cancelled => None,
            Outcome::Finished(r) => match r.status {
                Status::Cancelled => None,
                Status::Solved
                | Status::MaxIterations
                | Status::PrimalInfeasible
                | Status::DualInfeasible => Some(e2e_us <= SLO_LATENCY_US),
                Status::TimedOut => Some(false),
            },
            Outcome::Expired | Outcome::Failed(_) => Some(false),
        }
    }

    /// The short and long burn-rate windows ending at `now`.
    fn burn_windows(&self, now: Instant) -> [BurnWindow; 2] {
        let sec = self.sec(now);
        let st = self.rolling();
        [BURN_SHORT_SECS, BURN_LONG_SECS].map(|secs| {
            let (good, bad) = st.as_ref().map_or((0, 0), |st| st.slo.window(sec, secs));
            let total = good + bad;
            let bad_fraction = if total == 0 {
                0.0
            } else {
                bad as f64 / total as f64
            };
            BurnWindow {
                secs,
                good,
                bad,
                burn: bad_fraction / (1.0 - SLO_TARGET),
            }
        })
    }

    /// Renders the `/slo` text document: objectives, burn-rate windows
    /// and rolling per-phase/per-tenant quantiles. Deterministic
    /// ordering.
    pub fn render_slo(&self, now: Instant) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "mib_slo_target {SLO_TARGET}");
        let _ = writeln!(out, "mib_slo_latency_objective_us {SLO_LATENCY_US}");
        for (label, w) in ["short", "long"].iter().zip(self.burn_windows(now)) {
            let _ = writeln!(
                out,
                "mib_slo_window_seconds{{window=\"{label}\"}} {}",
                w.secs
            );
            let _ = writeln!(out, "mib_slo_good{{window=\"{label}\"}} {}", w.good);
            let _ = writeln!(out, "mib_slo_bad{{window=\"{label}\"}} {}", w.bad);
            let _ = writeln!(out, "mib_slo_burn_rate{{window=\"{label}\"}} {:.6}", w.burn);
        }
        let sec = self.sec(now);
        if let Some(st) = self.rolling() {
            for (phase, series) in [
                ("queue_wait", &st.queue_wait),
                ("service", &st.service),
                ("e2e", &st.e2e),
            ] {
                let h = series.window(sec);
                let label = format!("phase=\"{phase}\"");
                let _ = writeln!(out, "mib_obs_phase_count{{{label}}} {}", h.count());
                let _ = writeln!(out, "mib_obs_phase_mean_us{{{label}}} {:.3}", h.mean());
                write_quantiles(&mut out, "phase", &label, &h);
            }
            for (id, series) in &st.tenant {
                let label = format!("tenant=\"tenant-{id}\"");
                write_quantiles(&mut out, "tenant", &label, &series.window(sec));
            }
        }
        out
    }

    /// Readiness verdict: `(ready, detail)`. Unready when the shed
    /// fraction over the short window exceeds `HEALTHZ_SHED_RATIO` —
    /// a load balancer should stop sending traffic here before the
    /// admission controller has to shed it.
    pub fn healthz(&self, now: Instant) -> (bool, String) {
        let sec = self.sec(now);
        let (admitted, shed) = self
            .rolling()
            .map_or((0, 0), |st| st.admission.window(sec, BURN_SHORT_SECS));
        let total = admitted + shed;
        let ratio = if total == 0 {
            0.0
        } else {
            shed as f64 / total as f64
        };
        let ready = ratio <= HEALTHZ_SHED_RATIO;
        let detail = format!(
            "{}\nadmitted {admitted}\nshed {shed}\nshed_ratio {ratio:.6}\nshed_ratio_threshold {HEALTHZ_SHED_RATIO}\n",
            if ready { "ok" } else { "shedding" },
        );
        (ready, detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn new_plane(enabled: bool) -> ObsPlane {
        ObsPlane::new(enabled, Arc::new(Metrics::new()))
    }

    #[test]
    fn disabled_plane_records_nothing() {
        let plane = new_plane(false);
        assert!(!plane.is_active());
        let now = plane.epoch;
        plane.record_shed(7, "rate_limited", now);
        plane.record_admitted(now);
        plane.record_response(0, 1, 2, 3, Some(true), now);
        assert!(plane.flight().is_empty());
        assert_eq!(plane.burn_windows(now)[0].good, 0);
        assert_eq!(plane.metrics.counters.slo_good.load(ORD), 0);
        assert!(plane.healthz(now).0);
        assert!(!plane.render_slo(now).contains("mib_obs_phase_count"));
    }

    #[test]
    fn disabled_plane_holds_no_rolling_storage() {
        assert!(new_plane(false).state.is_none());
        assert!(new_plane(true).state.is_some());
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let plane = new_plane(true);
        let now = plane.epoch;
        for _ in 0..8 {
            plane.record_response(0, 1, 2, 3, Some(true), now);
        }
        for _ in 0..2 {
            plane.record_response(0, 1, 2, 3, Some(false), now);
        }
        // 20% bad against a 0.1% budget: burning 200x.
        for w in plane.burn_windows(now) {
            assert_eq!(w.good, 8);
            assert_eq!(w.bad, 2);
            assert!((w.burn - 200.0).abs() < 1e-9, "burn {}", w.burn);
        }
        assert_eq!(plane.metrics.counters.slo_good.load(ORD), 8);
        assert_eq!(plane.metrics.counters.slo_bad.load(ORD), 2);
    }

    #[test]
    fn short_window_forgets_old_failures() {
        let plane = new_plane(true);
        let t0 = plane.epoch;
        plane.record_response(0, 1, 2, 3, Some(false), t0);
        // 2 minutes later the short (60s) window is clean, the long
        // (600s) window still remembers.
        let later = t0 + Duration::from_mins(2);
        plane.record_response(0, 1, 2, 3, Some(true), later);
        let [short, long] = plane.burn_windows(later);
        assert_eq!(short.bad, 0, "short window must forget");
        assert_eq!(short.good, 1);
        assert_eq!(long.bad, 1, "long window must remember");
    }

    #[test]
    fn rolling_quantiles_cover_observed_samples() {
        let plane = new_plane(true);
        let now = plane.epoch;
        for us in [10u64, 20, 30, 40, 1000] {
            plane.record_response(3, us, us, us, Some(true), now);
        }
        let slo = plane.render_slo(now);
        assert!(slo.contains("mib_obs_phase_count{phase=\"e2e\"} 5"));
        // 1000 µs lies in the bucket [960, 1023]; the largest sample caps
        // the bound.
        assert!(slo.contains("mib_obs_tenant_p99_us{tenant=\"tenant-3\"} 1000"));
        assert!(slo.contains("mib_obs_phase_p50_us{phase=\"e2e\"} 31"));
        assert!(slo.contains("mib_slo_burn_rate{window=\"short\"} 0.000000"));
        // Flight and trace-drop totals live in `/metrics` only.
        assert!(!slo.contains("flight") && !slo.contains("dropped"), "{slo}");
    }

    #[test]
    fn healthz_flips_on_shed_ratio() {
        let plane = new_plane(true);
        let now = plane.epoch;
        let (ready, detail) = plane.healthz(now);
        assert!(ready, "an idle server is ready: {detail}");
        plane.record_admitted(now);
        plane.record_shed(0, "queue_full", now);
        let (ready, detail) = plane.healthz(now);
        assert!(ready, "50% shed is at the threshold, not over it: {detail}");
        plane.record_shed(0, "queue_full", now);
        let (ready, detail) = plane.healthz(now);
        assert!(!ready, "67% shed over a 50% threshold: {detail}");
        assert!(detail.contains("shed 2"));
    }

    #[test]
    fn stamped_shed_leaves_a_flight_record() {
        let plane = new_plane(true);
        let now = plane.epoch;
        plane.record_shed(0, "rate_limited", now);
        assert!(plane.flight().is_empty(), "unstamped sheds keep nothing");
        plane.record_shed(42, "rate_limited", now);
        let rec = plane.flight().lookup(42).expect("stamped shed retained");
        assert_eq!(rec.reason, KeepReason::Shed);
        assert!(rec.to_chrome_json().contains("rate_limited"));
        assert_eq!(plane.metrics.counters.flight_kept.load(ORD), 1);
    }

    #[test]
    fn server_side_trace_ids_are_unique_and_nonzero() {
        let plane = new_plane(true);
        let a = plane.next_trace_id();
        let b = plane.next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_eq!(a >> 64, u128::from(std::process::id()));
    }

    #[test]
    fn slo_verdict_classification() {
        use mib_qp::SolveResult;
        let plane = new_plane(true);
        let finished = |status| {
            Outcome::Finished(SolveResult {
                status,
                algorithm: mib_qp::Algorithm::Admm,
                x: vec![],
                y: vec![],
                z: vec![],
                obj_val: 0.0,
                prim_res: 0.0,
                dual_res: 0.0,
                iterations: 0,
                profile: mib_qp::profile::Profile::default(),
                solve_time: Duration::ZERO,
                certificate: vec![],
            })
        };
        assert_eq!(plane.slo_verdict(&finished(Status::Solved), 1), Some(true));
        assert_eq!(
            plane.slo_verdict(&finished(Status::Solved), SLO_LATENCY_US + 1),
            Some(false)
        );
        assert_eq!(
            plane.slo_verdict(&finished(Status::TimedOut), 1),
            Some(false)
        );
        assert_eq!(plane.slo_verdict(&finished(Status::Cancelled), 1), None);
        assert_eq!(plane.slo_verdict(&Outcome::Cancelled, 1), None);
        assert_eq!(plane.slo_verdict(&Outcome::Expired, 1), Some(false));
    }

    #[test]
    fn rolling_quantiles_forget_samples_older_than_the_long_window() {
        let plane = new_plane(true);
        let long = BURN_LONG_SECS;
        let t0 = plane.epoch;
        plane.record_response(3, 5000, 5000, 5000, Some(true), t0);
        // One second inside the long window: still remembered.
        let inside = t0 + Duration::from_secs(long - 1);
        plane.record_response(3, 10, 10, 10, Some(true), inside);
        let slo = plane.render_slo(inside);
        assert!(
            slo.contains("mib_obs_phase_count{phase=\"e2e\"} 2"),
            "{slo}"
        );
        assert!(slo.contains("mib_obs_phase_p99_us{phase=\"e2e\"} 5000"));
        // A long window after the first sample it is gone from every
        // series; the later one stays.
        let later = t0 + Duration::from_secs(long);
        let slo = plane.render_slo(later);
        for line in [
            "mib_obs_phase_count{phase=\"e2e\"} 1",
            "mib_obs_phase_p99_us{phase=\"service\"} 10",
            "mib_obs_tenant_p99_us{tenant=\"tenant-3\"} 10",
        ] {
            assert!(slo.contains(line), "missing {line:?} in {slo}");
        }
        // And after another long window nothing is left.
        let slo = plane.render_slo(later + Duration::from_secs(long));
        assert!(slo.contains("mib_obs_phase_count{phase=\"e2e\"} 0"));
        assert!(slo.contains("mib_obs_phase_p99_us{phase=\"e2e\"} 0"));
    }

    #[test]
    fn log_bucket_edges() {
        // A window's bound covers the sample and overstates it by at most
        // an eighth, on both sides of every power of two, and stays
        // finite up to u64::MAX.
        for k in 0..64 {
            let p = 1u64 << k;
            for v in [p - 1, p, p + 1] {
                let mut series = Series::new();
                series.observe(0, v);
                series.observe(0, u64::MAX);
                let window = series.window(0);
                let bound = window.quantile_bound(0.5);
                assert!(
                    bound >= v && bound as f64 <= 1.125 * v as f64,
                    "v={v}: bound {bound}"
                );
                assert_eq!(window.quantile_bound(1.0), u64::MAX);
            }
        }
    }
}
