//! The harness's own span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer, kept in memory and written out when the workload ends. A
//! disabled recorder costs one branch per call and reads no clock, so the
//! untraced run that produces the end-to-end metrics pays nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name of the call the span brackets.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    parent: u32,
    /// The workload op this span belongs to (the shared identifier).
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store of one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Chrome `tid` the spans are written under.
    pub tid: u32,
}

impl Recorder {
    /// A recorder that ignores every call.
    pub fn disabled() -> Self {
        Recorder {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            tid: 0,
        }
    }

    /// A recording recorder with room for `capacity` spans; all recorders
    /// of one run share `origin` so their timestamps line up.
    pub fn enabled(origin: Instant, capacity: usize, tid: u32) -> Self {
        Recorder {
            origin,
            enabled: true,
            spans: Vec::with_capacity(capacity),
            tid,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: usize) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            op: op as u32,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id.0 as usize].end_ns = now;
        }
    }

    /// Records an interval measured elsewhere (a server-reported queue
    /// wait, say), starting at `start_ns`.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: usize,
        start_ns: u64,
        dur_ns: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + dur_ns,
                parent: parent.map_or(NO_PARENT, |p| p.0),
                op: op as u32,
            });
        }
    }

    /// Start of a span, for placing [`Recorder::push`]ed children.
    pub fn start_ns(&self, id: SpanId) -> u64 {
        if self.enabled {
            self.spans[id.0 as usize].start_ns
        } else {
            0
        }
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children are
    /// counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if b > a {
                    children[s.parent as usize].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }
}

/// Per-name totals over any number of recorders.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Sums spans by name.
pub fn totals(recorders: &[&Recorder]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for rec in recorders {
        for (s, self_ns) in rec.spans.iter().zip(rec.self_times_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
    }
    out
}

/// The timing rule applied to one span name: each op's time is the quiet
/// time of that op's spans (one per round), in µs, in op order.
pub fn quiet_us_by_op(recorders: &[&Recorder], name: &str) -> Vec<(usize, f64)> {
    let mut by_op: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for rec in recorders {
        for s in rec.spans.iter().filter(|s| s.name == name) {
            by_op.entry(s.op).or_default().push(s.dur_ns() as f64 / 1e3);
        }
    }
    by_op
        .into_iter()
        .map(|(op, mut v)| (op as usize, stats::quiet_low(&mut v)))
        .collect()
}

/// [`quiet_us_by_op`] without the op ids.
pub fn quiet_us(recorders: &[&Recorder], name: &str) -> Vec<f64> {
    quiet_us_by_op(recorders, name)
        .into_iter()
        .map(|(_, us)| us)
        .collect()
}

/// Renders the per-name table the traced run prints.
pub fn render_table(recorders: &[&Recorder]) -> String {
    let mut out = format!(
        "{:<24} {:>9} {:>12} {:>12} {:>10}\n",
        "span", "count", "total ms", "self ms", "mean us"
    );
    for (name, t) in totals(recorders) {
        let _ = writeln!(
            out,
            "{name:<24} {:>9} {:>12.2} {:>12.2} {:>10.2}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.total_ns as f64 / 1e3 / t.count as f64
        );
    }
    out
}

/// Chrome trace-event JSON of at most `limit` spans per recorder (a run
/// records hundreds of thousands; the first rounds show the structure).
pub fn chrome_json(recorders: &[&Recorder], limit: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for rec in recorders {
        for s in rec.spans.iter().take(limit) {
            if !first {
                out.push(',');
            }
            first = false;
            // Span names are identifiers from this crate: no escaping needed.
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                rec.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec_with(spans: &[(&'static str, u64, u64, Option<u32>, u32)]) -> Recorder {
        let mut r = Recorder::enabled(Instant::now(), spans.len(), 0);
        for &(name, start_ns, end_ns, parent, op) in spans {
            r.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: parent.unwrap_or(NO_PARENT),
                op,
            });
        }
        r
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        let r = rec_with(&[
            ("op", 0, 100, None, 0),
            ("a", 10, 30, Some(0), 0),
            ("b", 40, 90, Some(0), 0),
        ]);
        assert_eq!(r.self_times_ns(), vec![30, 20, 50]);
    }

    #[test]
    fn self_time_with_nested_children() {
        // op ⊃ wait ⊃ {queue, service}: only direct children subtract.
        let r = rec_with(&[
            ("op", 0, 100, None, 0),
            ("wait", 20, 100, Some(0), 0),
            ("queue", 25, 55, Some(1), 0),
            ("service", 55, 95, Some(1), 0),
        ]);
        assert_eq!(r.self_times_ns(), vec![20, 10, 30, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let r = rec_with(&[
            ("op", 10, 60, None, 0),
            ("a", 0, 30, Some(0), 0),  // overhangs the start: 10..30 counts
            ("b", 20, 40, Some(0), 0), // overlaps a: only 30..40 is new
            ("c", 55, 80, Some(0), 0), // overhangs the end: 55..60 counts
        ]);
        assert_eq!(r.self_times_ns()[0], 50 - 20 - 10 - 5);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        let id = r.begin("op", None, 0);
        r.push("x", Some(id), 0, 0, 5);
        r.end(id);
        assert!(r.spans.is_empty());
        assert_eq!(r.start_ns(id), 0);
    }

    #[test]
    fn begin_end_nest() {
        let mut r = Recorder::enabled(Instant::now(), 4, 0);
        let op = r.begin("op", None, 3);
        let child = r.begin("qp.solve", Some(op), 3);
        r.end(child);
        r.end(op);
        let s = &r.spans;
        assert_eq!(s.len(), 2);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].op, 3);
        let t = totals(&[&r]);
        assert_eq!(t["op"].count, 1);
        assert_eq!(t["op"].self_ns, s[0].dur_ns() - s[1].dur_ns());
    }

    #[test]
    fn quiet_time_is_per_op() {
        // Op 0 in four rounds, op 1 in two.
        let r = rec_with(&[
            ("k", 0, 9_000, None, 0),
            ("k", 0, 3_000, None, 0),
            ("k", 0, 3_500, None, 0),
            ("k", 0, 7_000, None, 0),
            ("k", 0, 2_000, None, 1),
            ("k", 0, 1_000, None, 1),
            ("other", 0, 50, None, 1),
        ]);
        assert_eq!(quiet_us_by_op(&[&r], "k"), vec![(0, 3.0), (1, 1.0)]);
        assert!(quiet_us_by_op(&[&r], "missing").is_empty());
    }

    #[test]
    fn chrome_json_is_bounded_and_well_formed() {
        let r = rec_with(&[("qp.solve", 1_000, 3_500, None, 7), ("op", 0, 10, None, 8)]);
        let json = chrome_json(&[&r], 1);
        assert!(json.contains("\"name\":\"qp.solve\""));
        assert!(json.contains("\"cat\":\"qp\""));
        assert!(json.contains("\"ts\":1.000,\"dur\":2.500"));
        assert!(!json.contains("\"op\":8"));
        assert_eq!(mib_trace::validate_json(&json), Ok(()));
    }
}
