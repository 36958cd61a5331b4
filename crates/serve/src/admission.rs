//! Admission control ahead of the bounded shard queues: per-tenant
//! token-bucket rate limiting plus weighted fair-share admission under
//! congestion.
//!
//! The shard queues reject with [`SubmitError::QueueFull`] when they are
//! already full — a *backstop*, not a policy. This module is the policy
//! layer the networked front-end (`mib-net`) places in front of
//! [`QpServer::submit`]: every tenant carries a [`TenantPolicy`]
//! (refill rate, burst, fair-share weight), and each submission is
//! checked *before* it touches a queue:
//!
//! 1. **Rate limiting**: a classic token bucket per tenant. A tenant
//!    exceeding its sustained rate is answered with
//!    [`Verdict::RateLimited`] carrying the exact time until the next
//!    token — the retry-after hint of the shed frame.
//! 2. **Fair share**: while the system is *congested* (a shard queue
//!    rejected recently), a tenant is admitted only while its share of
//!    recently admitted requests stays within `share_slack ×` its weight
//!    fraction. Recent admissions decay exponentially with half-life
//!    [`AdmissionConfig::window`], so a tenant that backs off regains
//!    its share smoothly. Under no congestion the fair-share check is
//!    inert: spare capacity is never withheld.
//!
//! Every decision lands in the per-tenant labelled counters of
//! [`Metrics`] (`mib_serve_admission_*_total{tenant="..."}`; their sum
//! over tenants is the global total), so shed behavior is visible in the
//! same snapshot as the serving pipeline it protects.
//!
//! The controller is deliberately clock-explicit: every entry point
//! takes `now: Instant`, which makes the policy a pure function of its
//! call sequence — the unit tests replay deterministic timelines, and
//! callers cannot accidentally mix clocks.
//!
//! [`SubmitError::QueueFull`]: crate::SubmitError::QueueFull
//! [`QpServer::submit`]: crate::QpServer::submit

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{Metrics, TenantCounters};

/// Per-tenant admission policy.
#[derive(Debug, Clone, Copy)]
pub struct TenantPolicy {
    /// Sustained token-bucket refill rate, requests per second.
    /// `f64::INFINITY` disables rate limiting for the tenant.
    pub rate_per_sec: f64,
    /// Bucket capacity: the largest burst admitted at once.
    pub burst: f64,
    /// Fair-share weight: under congestion, tenants are kept near
    /// admission shares proportional to their weights.
    pub weight: f64,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            rate_per_sec: f64::INFINITY,
            burst: 1.0,
            weight: 1.0,
        }
    }
}

impl TenantPolicy {
    fn validate(&self) {
        assert!(
            self.rate_per_sec > 0.0,
            "rate_per_sec must be positive (INFINITY disables)"
        );
        assert!(
            self.burst >= 1.0 && self.burst.is_finite(),
            "burst must be finite and >= 1"
        );
        assert!(
            self.weight > 0.0 && self.weight.is_finite(),
            "weight must be finite and positive"
        );
    }
}

/// Controller-wide knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Half-life of the fair-share admission accounting, and the length
    /// of the congestion memory after a queue-full rejection.
    pub window: Duration,
    /// Slack multiplier over the exact weighted share before a congested
    /// tenant is shed (`>= 1`): `1.0` enforces shares exactly, larger
    /// values tolerate short bursts.
    pub share_slack: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            window: Duration::from_millis(100),
            share_slack: 1.25,
        }
    }
}

/// Outcome of one admission check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Pass the request on to `QpServer::submit`.
    Admit,
    /// The tenant's token bucket is empty.
    RateLimited {
        /// Time until the bucket refills one token.
        retry_after: Duration,
    },
    /// The system is congested and the tenant is over its weighted
    /// share of recent admissions.
    OverShare {
        /// Suggested backoff (a fraction of the fairness window).
        retry_after: Duration,
    },
}

/// Opaque index of a registered tenant within its controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSlot(usize);

#[derive(Debug)]
struct TenantState {
    policy: TenantPolicy,
    /// Token bucket level; starts full.
    tokens: f64,
    refilled_at: Instant,
    /// Exponentially decayed count of recent admissions.
    admitted_recent: f64,
    decayed_at: Instant,
    counters: Arc<TenantCounters>,
}

impl TenantState {
    /// Applies bucket refill and fair-share decay up to `now`.
    fn advance(&mut self, window: Duration, now: Instant) {
        let dt = now
            .saturating_duration_since(self.refilled_at)
            .as_secs_f64();
        if dt > 0.0 && self.policy.rate_per_sec.is_finite() {
            self.tokens = (self.tokens + dt * self.policy.rate_per_sec).min(self.policy.burst);
        }
        self.refilled_at = now;
        let dt = now.saturating_duration_since(self.decayed_at).as_secs_f64();
        if dt > 0.0 {
            let half_lives = dt / window.as_secs_f64().max(1e-9);
            self.admitted_recent *= 0.5f64.powf(half_lives);
        }
        self.decayed_at = now;
    }
}

#[derive(Debug)]
struct ControllerState {
    tenants: Vec<TenantState>,
    total_weight: f64,
    /// Congestion memory: set by queue-full rejections, arms the
    /// fair-share check until it expires.
    congested_until: Option<Instant>,
}

/// Per-tenant token-bucket rate limiting plus weighted fair-share
/// admission (see the module docs for the policy).
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    metrics: Arc<Metrics>,
    state: Mutex<ControllerState>,
}

impl AdmissionController {
    /// A controller publishing its decisions into `metrics`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate.
    pub fn new(cfg: AdmissionConfig, metrics: Arc<Metrics>) -> Self {
        assert!(!cfg.window.is_zero(), "window must be positive");
        assert!(
            cfg.share_slack >= 1.0 && cfg.share_slack.is_finite(),
            "share_slack must be finite and >= 1"
        );
        AdmissionController {
            cfg,
            metrics,
            state: Mutex::new(ControllerState {
                tenants: Vec::new(),
                total_weight: 0.0,
                congested_until: None,
            }),
        }
    }

    /// Registers a tenant under `label` (the metrics dimension) with the
    /// given policy; the returned slot indexes every later check.
    ///
    /// # Panics
    ///
    /// Panics if the policy is degenerate.
    pub fn register(&self, label: &str, policy: TenantPolicy, now: Instant) -> TenantSlot {
        policy.validate();
        let counters = self.metrics.tenant_admission(label);
        let mut st = self.state.lock().expect("admission state lock");
        st.total_weight += policy.weight;
        st.tenants.push(TenantState {
            policy,
            tokens: policy.burst,
            refilled_at: now,
            admitted_recent: 0.0,
            decayed_at: now,
            counters,
        });
        TenantSlot(st.tenants.len() - 1)
    }

    /// Checks (and on success consumes) one admission for `slot` at
    /// `now`, recording the decision in the metrics.
    pub fn admit(&self, slot: TenantSlot, now: Instant) -> Verdict {
        let mut st = self.state.lock().expect("admission state lock");
        let congested = st.congested_until.is_some_and(|until| now < until);
        let total_weight = st.total_weight;
        // Fair share compares this tenant against the decayed admission
        // total across all tenants; bring every account up to `now`.
        let mut total_recent = 0.0;
        for t in &mut st.tenants {
            t.advance(self.cfg.window, now);
            total_recent += t.admitted_recent;
        }
        let t = &mut st.tenants[slot.0];
        let rate_limited = t.policy.rate_per_sec.is_finite();
        if rate_limited && t.tokens < 1.0 {
            let deficit = 1.0 - t.tokens;
            let retry_after = Duration::from_secs_f64(deficit / t.policy.rate_per_sec);
            t.counters.shed_rate_limited.fetch_add(1, ord());
            return Verdict::RateLimited { retry_after };
        }
        if congested {
            // Would admitting this request push the tenant past
            // slack × its weight fraction of recent admissions? The
            // `+ 1.0` grace term keeps a cold account admissible (the
            // exact share bound is unsatisfiable from zero admissions)
            // while vanishing against any sustained hog.
            let weight_frac = self.cfg.share_slack * t.policy.weight / total_weight;
            let bound = weight_frac * (total_recent + 1.0) + 1.0;
            if t.admitted_recent + 1.0 > bound {
                t.counters.shed_over_share.fetch_add(1, ord());
                return Verdict::OverShare {
                    retry_after: self.cfg.window / 4,
                };
            }
        }
        if rate_limited {
            t.tokens -= 1.0;
        }
        t.admitted_recent += 1.0;
        t.counters.admitted.fetch_add(1, ord());
        Verdict::Admit
    }

    /// Records a queue-full rejection for `slot`: counts the shed and
    /// arms the congestion memory (fair-share checks stay active for one
    /// window past the last rejection).
    pub fn note_queue_full(&self, slot: TenantSlot, now: Instant) {
        let mut st = self.state.lock().expect("admission state lock");
        st.congested_until = Some(now + self.cfg.window);
        st.tenants[slot.0]
            .counters
            .shed_queue_full
            .fetch_add(1, ord());
    }
}

const fn ord() -> std::sync::atomic::Ordering {
    std::sync::atomic::Ordering::Relaxed
}

/// Retry-after hint for a queue-full shed: the expected time for the
/// rejecting queue to drain enough for a retry to land, from the depth
/// observed at rejection and the mean service time the workers are
/// currently sustaining. Clamped to `[1ms, 1s]` so a cold (or absurd)
/// mean can never produce a zero or unbounded hint.
pub fn queue_full_retry_after(depth: usize, workers: usize, mean_service: Duration) -> Duration {
    let per_worker = depth.div_ceil(workers.max(1)) as u32;
    let hint = mean_service.max(Duration::from_micros(100)) * per_worker;
    hint.clamp(Duration::from_millis(1), Duration::from_secs(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController::new(cfg, Arc::new(Metrics::new()))
    }

    /// Whether the congestion memory is armed at `now`.
    fn congested(c: &AdmissionController, now: Instant) -> bool {
        c.state
            .lock()
            .expect("admission state lock")
            .congested_until
            .is_some_and(|until| now < until)
    }

    #[test]
    fn unlimited_tenant_is_always_admitted() {
        let c = controller(AdmissionConfig::default());
        let t0 = Instant::now();
        let slot = c.register("a", TenantPolicy::default(), t0);
        for i in 0..1000 {
            assert_eq!(c.admit(slot, t0 + Duration::from_micros(i)), Verdict::Admit);
        }
    }

    #[test]
    fn token_bucket_limits_sustained_rate_and_reports_retry_after() {
        let c = controller(AdmissionConfig::default());
        let t0 = Instant::now();
        // 10 req/s, burst of 2.
        let slot = c.register(
            "a",
            TenantPolicy {
                rate_per_sec: 10.0,
                burst: 2.0,
                weight: 1.0,
            },
            t0,
        );
        assert_eq!(c.admit(slot, t0), Verdict::Admit);
        assert_eq!(c.admit(slot, t0), Verdict::Admit);
        let Verdict::RateLimited { retry_after } = c.admit(slot, t0) else {
            panic!("an empty bucket must rate-limit");
        };
        // One token at 10/s takes 100ms.
        assert!((retry_after.as_secs_f64() - 0.1).abs() < 1e-9);
        // After the hint elapses, exactly one more is admitted.
        let t1 = t0 + retry_after;
        assert_eq!(c.admit(slot, t1), Verdict::Admit);
        assert!(matches!(c.admit(slot, t1), Verdict::RateLimited { .. }));
    }

    #[test]
    fn bucket_refill_caps_at_burst() {
        let c = controller(AdmissionConfig::default());
        let t0 = Instant::now();
        let slot = c.register(
            "a",
            TenantPolicy {
                rate_per_sec: 1000.0,
                burst: 3.0,
                weight: 1.0,
            },
            t0,
        );
        // A long idle period must not accumulate more than `burst`.
        let t1 = t0 + Duration::from_mins(1);
        for _ in 0..3 {
            assert_eq!(c.admit(slot, t1), Verdict::Admit);
        }
        assert!(matches!(c.admit(slot, t1), Verdict::RateLimited { .. }));
    }

    #[test]
    fn fair_share_is_inert_without_congestion() {
        let c = controller(AdmissionConfig {
            share_slack: 1.0,
            ..AdmissionConfig::default()
        });
        let t0 = Instant::now();
        let a = c.register("a", TenantPolicy::default(), t0);
        let _b = c.register("b", TenantPolicy::default(), t0);
        // Tenant a takes everything: fine while nothing is congested.
        for _ in 0..100 {
            assert_eq!(c.admit(a, t0), Verdict::Admit);
        }
    }

    #[test]
    fn congestion_sheds_the_over_share_tenant_but_not_the_other() {
        let cfg = AdmissionConfig {
            window: Duration::from_millis(100),
            share_slack: 1.0,
        };
        let c = controller(cfg);
        let t0 = Instant::now();
        let a = c.register("a", TenantPolicy::default(), t0);
        let b = c.register("b", TenantPolicy::default(), t0);
        // a hogs admissions, then a queue rejection arms congestion.
        for _ in 0..50 {
            assert_eq!(c.admit(a, t0), Verdict::Admit);
        }
        c.note_queue_full(a, t0);
        assert!(congested(&c, t0));
        // a is far past its 50% share; b is under.
        assert!(matches!(c.admit(a, t0), Verdict::OverShare { .. }));
        assert_eq!(c.admit(b, t0), Verdict::Admit);
        // The decayed accounting lets a back in once its recent share
        // fades (5 half-lives) — congestion is re-armed to still be live.
        let t1 = t0 + Duration::from_millis(90);
        c.note_queue_full(b, t1);
        let t2 = t1 + Duration::from_millis(9);
        assert!(congested(&c, t2));
        // After ~1 half-life a's count halved but is still over-share...
        assert!(matches!(c.admit(a, t2), Verdict::OverShare { .. }));
        // ...and b can still get in.
        assert_eq!(c.admit(b, t2), Verdict::Admit);
    }

    #[test]
    fn congestion_expires_after_one_window() {
        let cfg = AdmissionConfig {
            window: Duration::from_millis(100),
            share_slack: 1.0,
        };
        let c = controller(cfg);
        let t0 = Instant::now();
        let a = c.register("a", TenantPolicy::default(), t0);
        let _b = c.register("b", TenantPolicy::default(), t0);
        for _ in 0..10 {
            assert_eq!(c.admit(a, t0), Verdict::Admit);
        }
        c.note_queue_full(a, t0);
        assert!(matches!(c.admit(a, t0), Verdict::OverShare { .. }));
        let t1 = t0 + Duration::from_millis(101);
        assert!(!congested(&c, t1));
        assert_eq!(c.admit(a, t1), Verdict::Admit);
    }

    #[test]
    fn weights_shift_the_congested_shares() {
        let cfg = AdmissionConfig {
            window: Duration::from_hours(1), // effectively no decay
            share_slack: 1.0,
        };
        let c = controller(cfg);
        let t0 = Instant::now();
        let heavy = c.register(
            "heavy",
            TenantPolicy {
                weight: 3.0,
                ..TenantPolicy::default()
            },
            t0,
        );
        let light = c.register("light", TenantPolicy::default(), t0);
        c.note_queue_full(light, t0);
        // Alternating attempts: heavy should land ~3x light's admissions.
        let mut admitted = [0u32; 2];
        for _ in 0..100 {
            if c.admit(heavy, t0) == Verdict::Admit {
                admitted[0] += 1;
            }
            if c.admit(light, t0) == Verdict::Admit {
                admitted[1] += 1;
            }
            // Keep the congestion memory armed across the whole loop
            // (zero wall time passes, but stay explicit).
            c.note_queue_full(light, t0);
        }
        assert!(
            admitted[0] >= 2 * admitted[1] && admitted[1] > 0,
            "weighted shares must hold under congestion: {admitted:?}"
        );
    }

    #[test]
    fn decisions_land_in_the_labelled_metrics() {
        let metrics = Arc::new(Metrics::new());
        let c = AdmissionController::new(AdmissionConfig::default(), Arc::clone(&metrics));
        let t0 = Instant::now();
        let slot = c.register(
            "tenant-x",
            TenantPolicy {
                rate_per_sec: 1.0,
                burst: 1.0,
                weight: 1.0,
            },
            t0,
        );
        assert_eq!(c.admit(slot, t0), Verdict::Admit);
        assert!(matches!(c.admit(slot, t0), Verdict::RateLimited { .. }));
        c.note_queue_full(slot, t0);
        let text = metrics.render();
        assert!(text.contains("mib_serve_admission_admitted_total{tenant=\"tenant-x\"} 1"));
        assert!(text.contains("mib_serve_admission_shed_rate_limited_total{tenant=\"tenant-x\"} 1"));
        assert!(text.contains("mib_serve_admission_shed_queue_full_total{tenant=\"tenant-x\"} 1"));
        // One count per event: no unlabelled total repeats the series.
        assert!(!text.contains("mib_serve_admitted_total"));
        assert!(!text.contains("mib_serve_shed_rate_limited_total"));
    }

    #[test]
    fn queue_full_retry_hint_is_clamped_and_scales_with_depth() {
        let hint = queue_full_retry_after(8, 2, Duration::from_millis(2));
        assert_eq!(hint, Duration::from_millis(8));
        // Zero/absurd inputs clamp instead of degenerating.
        assert_eq!(
            queue_full_retry_after(0, 2, Duration::ZERO),
            Duration::from_millis(1)
        );
        assert_eq!(
            queue_full_retry_after(1_000_000, 1, Duration::from_secs(5)),
            Duration::from_secs(1)
        );
    }
}
