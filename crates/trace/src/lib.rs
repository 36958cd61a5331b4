//! **mib-trace** — zero-cost-when-disabled structured tracing for the
//! MIB stack.
//!
//! The recorder is a set of thread-local bounded buffers of
//! `(monotonic_ts, span_id, event)` records behind a single process-wide
//! atomic enable flag:
//!
//! * **Disabled** (the default), every instrumentation site costs exactly
//!   one `Relaxed` atomic load and touches neither thread-local storage
//!   nor the heap — the solver's zero-allocation `solve_into` guarantee
//!   survives instrumentation (pinned by the workspace counting-allocator
//!   test).
//! * **Enabled**, [`span`] hands out a [`SpanGuard`] whose `Drop` closes
//!   the span, and point events ([`Event::Iteration`],
//!   [`Event::CacheAccess`], ...) are appended to the current thread's
//!   buffer. Buffers are bounded ([`BUFFER_CAPACITY`] records per
//!   thread); overflow drops new records and counts them, it never blocks
//!   or reallocates past the bound.
//!
//! [`take`] drains every thread's buffer into a [`Trace`], which exports
//! to Chrome trace-event JSON ([`Trace::to_chrome_json`], loadable in
//! Perfetto or `chrome://tracing`) or a human text summary
//! ([`Trace::summary`]).
//!
//! ```
//! use mib_trace::Category;
//!
//! mib_trace::enable();
//! {
//!     let _solve = mib_trace::span("solve", Category::Solver);
//!     mib_trace::mark("residual", Category::Solver, 1e-5);
//! }
//! let trace = mib_trace::take();
//! mib_trace::disable();
//! assert_eq!(trace.len(), 3); // Begin, Mark, End
//! let json = trace.to_chrome_json();
//! assert!(mib_trace::validate_json(&json).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod flight;
pub mod json;
mod summary;

pub use chrome::to_chrome_json;
pub use event::{Category, Event, Record};
pub use flight::{format_trace_id, parse_trace_id, FlightRecord, FlightRecorder, KeepReason};
pub use json::validate_json;
pub use summary::summarize;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum records held per thread; further records are dropped (and
/// counted in [`ThreadTrace::dropped`]) until the buffer is drained.
pub const BUFFER_CAPACITY: usize = 1 << 16;

/// The single flag every instrumentation site checks.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Opt-in flag for high-frequency per-stage kernel spans
/// ([`Category::Kernel`]): these fire several times per solver iteration,
/// so they stay off even when tracing is otherwise enabled.
static KERNEL_SPANS: AtomicBool = AtomicBool::new(false);
/// Iteration stride for per-iteration kernel detail (1 = every
/// iteration; see [`set_kernel_span_stride`]).
static KERNEL_STRIDE: AtomicU32 = AtomicU32::new(1);
/// Process-unique span ids (0 is reserved for "no enclosing span").
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
/// Trace-local thread ids, assigned at first use per thread.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Epoch all timestamps are measured from (set once, at first need).
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Every live (or drained-pending) thread buffer, so [`take`] can see
/// records from threads other than the caller, including exited ones.
static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
/// Process-lifetime count of records lost to buffer overflow. Unlike the
/// per-drain [`ThreadTrace::dropped`] counters this one is never reset by
/// [`take`] — it is the monotonic series metrics exporters scrape.
static TOTAL_DROPPED: AtomicU64 = AtomicU64::new(0);

/// One thread's bounded record buffer, shared between the owning thread
/// (push) and [`take`] (drain).
struct ThreadBuf {
    tid: u64,
    name: String,
    records: Mutex<Vec<Record>>,
    dropped: AtomicU64,
}

impl ThreadBuf {
    fn push(&self, record: Record) {
        let mut records = self.records.lock().expect("trace buffer lock");
        if records.len() < BUFFER_CAPACITY {
            records.push(record);
        } else {
            drop(records);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            TOTAL_DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

thread_local! {
    /// This thread's buffer, registered on first traced event.
    static LOCAL: Arc<ThreadBuf> = {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            name: std::thread::current().name().unwrap_or("unnamed").to_owned(),
            records: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        });
        REGISTRY
            .lock()
            .expect("trace registry lock")
            .push(Arc::clone(&buf));
        buf
    };
    /// Innermost open span on this thread (0 at top level).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// Turns tracing on process-wide. Idempotent; the timestamp epoch is
/// pinned by the first call of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns tracing off process-wide. Records already buffered stay
/// available to [`take`]. Spans currently open keep their guards working
/// (their `End` is still recorded) so traces stay balanced.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether tracing is enabled — one `Relaxed` atomic load. Callers with
/// per-event payload computation hoist this once per hot region.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opts in to per-stage kernel spans ([`Category::Kernel`]). They still
/// only record while tracing itself is [`enable`]d.
pub fn enable_kernel_spans() {
    KERNEL_SPANS.store(true, Ordering::SeqCst);
}

/// Whether kernel spans should record: tracing enabled *and* kernel
/// spans opted in. Hot loops hoist this once per solve/iteration, like
/// [`enabled`].
#[inline]
pub fn kernel_spans() -> bool {
    enabled() && KERNEL_SPANS.load(Ordering::Relaxed)
}

/// Sets the kernel-detail stride: with stride `n`, instrumented solver
/// loops record their per-iteration kernel detail (stage spans and KKT
/// timing) only on iteration 1 and every `n`-th iteration thereafter.
///
/// Stride 1 — the default — records every iteration and is what the
/// offline attribution harnesses rely on for exact stage totals. The
/// serving plane raises the stride so always-on tracing prices a
/// *sample* of iterations instead of timestamping every one; retained
/// flight traces still carry representative kernel spans. `0` is
/// coerced to 1.
pub fn set_kernel_span_stride(stride: u32) {
    KERNEL_STRIDE.store(stride.max(1), Ordering::SeqCst);
}

/// The current kernel-detail stride (see [`set_kernel_span_stride`]).
/// Hot loops hoist this once per solve.
#[inline]
pub fn kernel_span_stride() -> u32 {
    KERNEL_STRIDE.load(Ordering::Relaxed).max(1)
}

/// Nanoseconds since the trace epoch.
fn now_ns() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records lost to buffer overflow over the whole process lifetime.
/// Monotonic — [`take`] resets the per-drain counters but not this one —
/// so it renders directly as a Prometheus-style `_total` series.
pub fn total_dropped() -> u64 {
    TOTAL_DROPPED.load(Ordering::Relaxed)
}

/// Converts an [`Instant`] into nanoseconds since the trace epoch
/// (saturating at 0 for instants before the epoch). Lets callers build
/// synthetic [`Record`]s — e.g. a queue-wait span whose begin predates
/// the worker picking the request up — on the same clock as live spans.
pub fn timestamp_ns(at: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Allocates a process-unique span id without opening a span — for
/// synthetic records built by hand (see [`timestamp_ns`]).
pub fn fresh_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// The calling thread's trace-local id and registered name.
pub fn thread_info() -> (u64, String) {
    LOCAL.with(|buf| (buf.tid, buf.name.clone()))
}

/// A position in the calling thread's record buffer (see [`cursor`]).
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    len: usize,
}

/// Marks the current end of the calling thread's buffer. Pair with
/// [`take_since`] to extract exactly the records this thread appended in
/// between — the tail-sampling primitive: cheap to capture per request,
/// and the records are only materialized for requests worth keeping.
pub fn cursor() -> Cursor {
    LOCAL.with(|buf| Cursor {
        len: buf.records.lock().expect("trace buffer lock").len(),
    })
}

/// Removes and returns the calling thread's records appended since
/// `cursor`. Only touches this thread's own buffer; a concurrent global
/// [`take`] may have already drained them, in which case the result is
/// simply shorter (the position is clamped, never out of bounds).
pub fn take_since(cursor: Cursor) -> Vec<Record> {
    LOCAL.with(|buf| {
        let mut records = buf.records.lock().expect("trace buffer lock");
        let at = cursor.len.min(records.len());
        records.split_off(at)
    })
}

/// Discards every record currently in the calling thread's buffer
/// without counting them as dropped. Housekeeping for long-lived worker
/// threads that consume their own records per request ([`take_since`])
/// and must not let ambient records (batch envelopes, marks recorded
/// between requests) accumulate to the buffer bound.
pub fn discard_local() {
    LOCAL.with(|buf| buf.records.lock().expect("trace buffer lock").clear());
}

/// Appends `record` to the current thread's buffer.
fn push(record: Record) {
    LOCAL.with(|buf| buf.push(record));
}

/// Records a point event under the innermost open span, if tracing is
/// enabled (one atomic load otherwise).
#[inline]
pub fn record(event: Event) {
    if !enabled() {
        return;
    }
    push(Record {
        ts_ns: now_ns(),
        span: CURRENT_SPAN.get(),
        event,
    });
}

/// Records a named scalar observation ([`Event::Mark`]).
#[inline]
pub fn mark(name: &'static str, cat: Category, value: f64) {
    record(Event::Mark { name, cat, value });
}

/// Opens a span; the returned guard records the matching end when
/// dropped. When tracing is disabled this is exactly one atomic load and
/// the guard's drop is free (a plain bool test, no atomics).
#[inline]
pub fn span(name: &'static str, cat: Category) -> SpanGuard {
    span_if(enabled(), name, cat)
}

/// Like [`span`], but gated on a caller-hoisted enable flag instead of
/// re-reading the global one: a hot region does `let tracing =
/// mib_trace::enabled();` once and opens all its spans through
/// `span_if(tracing, ...)` — zero further atomic loads when disabled.
/// With `active == true` the span records unconditionally (the caller
/// owns the staleness window, which only affects whether a final
/// span/event lands in the buffer).
#[inline]
pub fn span_if(active: bool, name: &'static str, cat: Category) -> SpanGuard {
    if !active {
        return SpanGuard {
            active: false,
            name,
            cat,
            id: 0,
            parent: 0,
        };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT_SPAN.replace(id);
    push(Record {
        ts_ns: now_ns(),
        span: id,
        event: Event::Begin { name, cat },
    });
    SpanGuard {
        active: true,
        name,
        cat,
        id,
        parent,
    }
}

/// Like [`record`], but gated on a caller-hoisted flag (see [`span_if`]).
#[inline]
pub fn record_if(active: bool, event: Event) {
    if active {
        push(Record {
            ts_ns: now_ns(),
            span: CURRENT_SPAN.get(),
            event,
        });
    }
}

/// Guard for an open span (see [`span`]). Must stay on the thread that
/// opened it — spans delimit per-thread regions.
#[must_use = "dropping the guard immediately closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
    name: &'static str,
    cat: Category,
    id: u64,
    parent: u64,
}

impl SpanGuard {
    /// The span's process-unique id (0 when tracing was disabled at
    /// creation).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            CURRENT_SPAN.set(self.parent);
            push(Record {
                ts_ns: now_ns(),
                span: self.id,
                event: Event::End {
                    name: self.name,
                    cat: self.cat,
                },
            });
        }
    }
}

/// All records drained from one thread's buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTrace {
    /// Trace-local thread id (dense, assigned at first traced event).
    pub tid: u64,
    /// The thread's name at registration ("unnamed" if none).
    pub name: String,
    /// Drained records, in recording order.
    pub records: Vec<Record>,
    /// Records lost to buffer overflow since the previous drain.
    pub dropped: u64,
}

/// A drained trace: every thread's records since the previous drain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Per-thread record sequences, sorted by thread id.
    pub threads: Vec<ThreadTrace>,
}

impl Trace {
    /// Total number of records across all threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.records.len()).sum()
    }

    /// `true` when no thread recorded anything.
    pub fn is_empty(&self) -> bool {
        self.threads.iter().all(|t| t.records.is_empty())
    }

    /// Total records lost to buffer overflow.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Iterates every record (thread by thread, recording order within a
    /// thread).
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.threads.iter().flat_map(|t| t.records.iter())
    }

    /// Exports to Chrome trace-event JSON (see [`to_chrome_json`]).
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }

    /// Renders the human-readable text summary (see [`summarize`]).
    pub fn summary(&self) -> String {
        summary::summarize(self)
    }

    /// Merges another trace's threads into this one (thread ids are
    /// process-unique, so entries for the same tid are concatenated).
    pub fn merge(&mut self, other: Trace) {
        for thread in other.threads {
            if let Some(mine) = self.threads.iter_mut().find(|t| t.tid == thread.tid) {
                mine.records.extend(thread.records);
                mine.dropped += thread.dropped;
            } else {
                self.threads.push(thread);
            }
        }
        self.threads.sort_by_key(|t| t.tid);
    }
}

/// Drains every thread's buffer into a [`Trace`] and resets the overflow
/// counters. Buffers of threads that have exited are drained one last
/// time and then forgotten. Threads with nothing to report are omitted.
pub fn take() -> Trace {
    let mut registry = REGISTRY.lock().expect("trace registry lock");
    let mut threads = Vec::new();
    for buf in registry.iter() {
        let records = std::mem::take(&mut *buf.records.lock().expect("trace buffer lock"));
        let dropped = buf.dropped.swap(0, Ordering::Relaxed);
        if !records.is_empty() || dropped > 0 {
            threads.push(ThreadTrace {
                tid: buf.tid,
                name: buf.name.clone(),
                records,
                dropped,
            });
        }
    }
    // A strong count of 1 means the owning thread's TLS slot is gone —
    // the thread exited; its records were just drained, so let it go.
    registry.retain(|buf| Arc::strong_count(buf) > 1);
    drop(registry);
    threads.sort_by_key(|t| t.tid);
    Trace { threads }
}

/// Discards everything buffered so far (equivalent to dropping
/// [`take`]'s result).
pub fn clear() {
    let _ = take();
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Tests that enable tracing serialize on this so the process-wide
    /// flag never leaks between concurrently running `#[test]` threads.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _guard = test_lock::hold();
        disable();
        clear();
        let s = span("quiet", Category::Other);
        assert_eq!(s.id(), 0);
        record(Event::CacheAccess {
            name: "c",
            hit: true,
        });
        mark("m", Category::Other, 1.0);
        drop(s);
        assert!(take().is_empty());
    }

    #[test]
    fn span_nesting_and_point_event_attribution() {
        let _guard = test_lock::hold();
        clear();
        enable();
        let outer = span("outer", Category::Serve);
        let outer_id = outer.id();
        let inner = span("inner", Category::Solver);
        let inner_id = inner.id();
        mark("inside_inner", Category::Solver, 1.0);
        drop(inner);
        mark("inside_outer", Category::Serve, 2.0);
        drop(outer);
        mark("top_level", Category::Other, 3.0);
        disable();
        let trace = take();

        assert!(outer_id > 0 && inner_id > outer_id);
        let my_tid = std::thread::current().name().map(str::to_owned);
        let t = &trace.threads[0];
        assert_eq!(Some(t.name.clone()), my_tid);
        let spans: Vec<u64> = t.records.iter().map(|r| r.span).collect();
        // Begin(outer) Begin(inner) Mark Mark End(inner) Mark End(outer)
        // ordered: Bo Bi Mi Ei Mo Eo Mt
        assert_eq!(
            spans,
            vec![outer_id, inner_id, inner_id, inner_id, outer_id, outer_id, 0]
        );
        assert_eq!(t.records[2].event.name(), "inside_inner");
        assert_eq!(t.records[6].event.name(), "top_level");
        // Timestamps are monotonic within the thread.
        for pair in t.records.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
    }

    #[test]
    fn buffer_overflow_drops_and_counts() {
        let _guard = test_lock::hold();
        clear();
        enable();
        for i in 0..(BUFFER_CAPACITY + 7) {
            mark("flood", Category::Other, i as f64);
        }
        disable();
        let trace = take();
        assert_eq!(trace.len(), BUFFER_CAPACITY);
        assert_eq!(trace.dropped(), 7);
        // The buffer is usable again after the drain.
        enable();
        mark("after", Category::Other, 0.0);
        disable();
        assert_eq!(take().len(), 1);
    }

    #[test]
    fn take_collects_other_threads() {
        let _guard = test_lock::hold();
        clear();
        enable();
        mark("from_main", Category::Other, 0.0);
        std::thread::Builder::new()
            .name("trace-test-worker".into())
            .spawn(|| {
                let _s = span("worker_span", Category::Other);
                mark("from_worker", Category::Other, 1.0);
            })
            .expect("spawn")
            .join()
            .expect("worker");
        disable();
        let trace = take();
        assert_eq!(trace.threads.len(), 2);
        assert_eq!(trace.len(), 4);
        let worker = trace
            .threads
            .iter()
            .find(|t| t.name == "trace-test-worker")
            .expect("worker thread present");
        assert_eq!(worker.records.len(), 3);
        // Thread ids are sorted and unique.
        assert!(trace.threads[0].tid < trace.threads[1].tid);
    }

    #[test]
    fn kernel_spans_require_both_flags() {
        let _guard = test_lock::hold();
        disable();
        KERNEL_SPANS.store(false, Ordering::SeqCst);
        clear();
        // Off by default, even with tracing enabled.
        enable();
        assert!(!kernel_spans());
        drop(span_if(kernel_spans(), "stage_x", Category::Kernel));
        assert!(take().is_empty());
        // Opted in: records while tracing is on ...
        enable_kernel_spans();
        assert!(kernel_spans());
        drop(span_if(kernel_spans(), "stage_x", Category::Kernel));
        assert_eq!(take().len(), 2);
        // ... but not once tracing itself is off.
        disable();
        assert!(!kernel_spans());
        KERNEL_SPANS.store(false, Ordering::SeqCst);
    }

    #[test]
    fn total_dropped_is_cumulative_across_drains() {
        let _guard = test_lock::hold();
        clear();
        enable();
        let before = total_dropped();
        for i in 0..(BUFFER_CAPACITY + 3) {
            mark("flood", Category::Other, i as f64);
        }
        disable();
        let trace = take();
        assert_eq!(trace.dropped(), 3, "per-drain counter sees this overflow");
        assert_eq!(
            total_dropped() - before,
            3,
            "process-lifetime counter advances with it"
        );
        // A second drain resets nothing: the cumulative count survives.
        let _ = take();
        assert_eq!(total_dropped() - before, 3);
    }

    #[test]
    fn cursor_take_since_extracts_only_the_tail() {
        let _guard = test_lock::hold();
        clear();
        enable();
        mark("before", Category::Other, 0.0);
        let cur = cursor();
        mark("after_a", Category::Other, 1.0);
        mark("after_b", Category::Other, 2.0);
        let tail = take_since(cur);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].event.name(), "after_a");
        assert_eq!(tail[1].event.name(), "after_b");
        // The prefix is still in the buffer for the global drain.
        disable();
        let trace = take();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.records().next().unwrap().event.name(), "before");
    }

    #[test]
    fn stale_cursor_after_global_drain_is_clamped() {
        let _guard = test_lock::hold();
        clear();
        enable();
        mark("a", Category::Other, 0.0);
        mark("b", Category::Other, 1.0);
        let cur = cursor();
        let _ = take(); // concurrent drain invalidates the position
        mark("c", Category::Other, 2.0);
        let tail = take_since(cur);
        // Position 2 is clamped to the buffer length (1): nothing panics,
        // and the result is at worst short, never wrong-thread data.
        assert!(tail.len() <= 1);
        disable();
        clear();
    }

    #[test]
    fn synthetic_timestamps_share_the_epoch() {
        let _guard = test_lock::hold();
        clear();
        enable();
        let before = Instant::now();
        mark("live", Category::Other, 0.0);
        let live_ts = take().records().next().unwrap().ts_ns;
        assert!(timestamp_ns(before) <= live_ts);
        assert!(fresh_span_id() > 0);
        let (tid, _name) = thread_info();
        assert!(tid > 0);
        disable();
    }

    #[test]
    fn merge_concatenates_per_thread() {
        let _guard = test_lock::hold();
        clear();
        enable();
        mark("a", Category::Other, 1.0);
        let mut first = take();
        mark("b", Category::Other, 2.0);
        let second = take();
        disable();
        first.merge(second);
        assert_eq!(first.len(), 2);
        assert_eq!(first.threads.len(), 1);
        assert_eq!(first.threads[0].records[1].event.name(), "b");
    }
}
