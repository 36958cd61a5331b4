//! Tail-sampling flight recorder: a bounded ring of per-request span
//! trees, retained only for requests worth a post-mortem.
//!
//! Head sampling (keep every Nth trace) is cheap but blind — the traces
//! an operator actually wants are precisely the anomalous ones. The
//! flight recorder inverts this: the serving layer captures a
//! [`cursor`](crate::cursor) when a request starts, and after the
//! request finishes it decides whether the records since the cursor are
//! interesting (slow, shed, cancelled, deadline-missed). Only then are
//! they moved into the ring; everything else is discarded without ever
//! leaving the thread-local buffer. The ring is bounded with
//! drop-oldest eviction and an eviction counter, mirroring the
//! drop-new-and-count policy of the thread buffers themselves: memory
//! is bounded, loss is visible.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{Record, ThreadTrace, Trace};

/// Why a request's span tree was retained by the tail sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// Service time exceeded the configured slow threshold.
    Slow,
    /// The request missed its deadline (expired in queue or timed out
    /// inside the solver loop).
    DeadlineMissed,
    /// The request was cancelled (queued or mid-solve).
    Cancelled,
    /// The parametric data was rejected.
    Failed,
    /// The request was shed at admission or by a full queue.
    Shed,
}

impl KeepReason {
    /// Stable lowercase name used in exports and the admin plane.
    pub fn as_str(self) -> &'static str {
        match self {
            KeepReason::Slow => "slow",
            KeepReason::DeadlineMissed => "deadline_missed",
            KeepReason::Cancelled => "cancelled",
            KeepReason::Failed => "failed",
            KeepReason::Shed => "shed",
        }
    }
}

/// One retained request: its wire trace id, the keep reason, and the
/// span records captured on the thread that served it.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// 128-bit trace id (client-supplied over the wire, or generated
    /// server-side when the client sent none).
    pub trace_id: u128,
    /// Why the tail sampler kept this request.
    pub reason: KeepReason,
    /// Trace-local id of the thread that served the request.
    pub tid: u64,
    /// Name of the thread that served the request.
    pub thread: String,
    /// The request's records, in recording order (synthetic queue-wait
    /// span first when the serving layer prepends one).
    pub records: Vec<Record>,
}

impl FlightRecord {
    /// Exports this record as a standalone Chrome trace-event JSON
    /// document (loadable in Perfetto or `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        let trace = Trace {
            threads: vec![ThreadTrace {
                tid: self.tid,
                name: self.thread.clone(),
                records: self.records.clone(),
                dropped: 0,
            }],
        };
        trace.to_chrome_json()
    }
}

/// A bounded ring of [`FlightRecord`]s with drop-oldest eviction and an
/// eviction counter. Shared by reference between serving workers
/// (push) and the admin plane (lookup/export).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<FlightRecord>>,
    kept: AtomicU64,
    evicted: AtomicU64,
}

impl FlightRecorder {
    /// An empty recorder retaining at most `capacity` records. A
    /// capacity of 0 keeps nothing (every push counts as evicted).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            kept: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Retains `record`, evicting the oldest entries past the bound.
    pub fn push(&self, record: FlightRecord) {
        let mut ring = self.ring.lock().expect("flight ring lock");
        if self.capacity == 0 {
            drop(ring);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        while ring.len() >= self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
        drop(ring);
        self.kept.fetch_add(1, Ordering::Relaxed);
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring lock").len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever retained (monotonic).
    pub fn kept(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }

    /// Total records evicted by the ring bound (monotonic).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// The newest retained record with `trace_id`, if any.
    pub fn lookup(&self, trace_id: u128) -> Option<FlightRecord> {
        self.ring
            .lock()
            .expect("flight ring lock")
            .iter()
            .rev()
            .find(|r| r.trace_id == trace_id)
            .cloned()
    }

    /// `(trace_id, reason, record_count)` of every retained record,
    /// oldest first.
    pub fn index(&self) -> Vec<(u128, KeepReason, usize)> {
        self.ring
            .lock()
            .expect("flight ring lock")
            .iter()
            .map(|r| (r.trace_id, r.reason, r.records.len()))
            .collect()
    }
}

/// Formats a 128-bit trace id as 32 lowercase hex digits (the wire and
/// admin-plane representation).
pub fn format_trace_id(id: u128) -> String {
    format!("{id:032x}")
}

/// Parses the 32-hex-digit representation back (case-insensitive).
/// `None` for anything of the wrong length or with non-hex digits.
pub fn parse_trace_id(s: &str) -> Option<u128> {
    if s.len() != 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, Event};

    fn record_with(trace_id: u128, n: usize) -> FlightRecord {
        let span = trace_id as u64 + 1;
        let records = (0..n)
            .map(|i| Record {
                ts_ns: i as u64 * 10,
                span,
                event: if i == 0 {
                    Event::Begin {
                        name: "request",
                        cat: Category::Serve,
                    }
                } else if i == n - 1 {
                    Event::End {
                        name: "request",
                        cat: Category::Serve,
                    }
                } else {
                    Event::Mark {
                        name: "queue_wait_us",
                        cat: Category::Serve,
                        value: 42.0,
                    }
                },
            })
            .collect();
        FlightRecord {
            trace_id,
            reason: KeepReason::Slow,
            tid: 7,
            thread: "mib-serve-test-0".into(),
            records,
        }
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let rec = FlightRecorder::new(3);
        for id in 0..5u128 {
            rec.push(record_with(id, 3));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.kept(), 5);
        assert_eq!(rec.evicted(), 2);
        // The two oldest are gone, the three newest remain.
        assert!(rec.lookup(0).is_none());
        assert!(rec.lookup(1).is_none());
        for id in 2..5u128 {
            assert_eq!(rec.lookup(id).expect("retained").trace_id, id);
        }
        let index = rec.index();
        assert_eq!(index.len(), 3);
        assert_eq!(index[0].0, 2);
        assert_eq!(index[2].0, 4);
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let rec = FlightRecorder::new(0);
        rec.push(record_with(1, 2));
        assert!(rec.is_empty());
        assert_eq!(rec.kept(), 0);
        assert_eq!(rec.evicted(), 1);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let rec = record_with(0xdead_beef, 4);
        let json = rec.to_chrome_json();
        crate::validate_json(&json).expect("flight export must be valid JSON");
        assert!(json.contains("mib-serve-test-0"));
        assert!(json.contains("queue_wait_us"));
    }

    #[test]
    fn trace_id_format_round_trips() {
        for id in [0u128, 1, 0xdead_beef, u128::MAX, 1 << 127] {
            let s = format_trace_id(id);
            assert_eq!(s.len(), 32);
            assert_eq!(parse_trace_id(&s), Some(id));
            assert_eq!(parse_trace_id(&s.to_uppercase()), Some(id));
        }
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id(&"f".repeat(31)), None);
        assert_eq!(parse_trace_id(&"g".repeat(32)), None);
    }
}
