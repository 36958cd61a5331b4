//! Chrome trace-event JSON exporter.
//!
//! Emits the JSON Object Format understood by `chrome://tracing` and
//! Perfetto: a `traceEvents` array of `B`/`E` duration events (spans),
//! `i` instant events (point events), `C` counter events (per-iteration
//! residual tracks) and `M` metadata events (thread names). Written with
//! plain `std::fmt` — the workspace has no serde.
//!
//! ["JSON Object Format"]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write;

use crate::event::{Event, Record};
use crate::json::{write_f64, write_str};
use crate::Trace;

/// Serializes the trace to Chrome trace-event JSON. The output is one
/// self-contained JSON object; [`crate::validate_json`] accepts it by
/// construction (pinned by tests).
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(128 + trace.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for thread in &trace.threads {
        write_meta(&mut out, &mut first, thread.tid, &thread.name);
        for record in &thread.records {
            write_record(&mut out, &mut first, thread.tid, record);
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Writes the `thread_name` metadata event for one thread.
fn write_meta(out: &mut String, first: &mut bool, tid: u64, name: &str) {
    sep(out, first);
    out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
    let _ = write!(out, "{tid}");
    out.push_str(",\"args\":{\"name\":");
    write_str(out, name);
    out.push_str("}}");
}

fn write_record(out: &mut String, first: &mut bool, tid: u64, record: &Record) {
    match record.event {
        Event::Begin { name, cat } => {
            event_head(out, first, name, cat.as_str(), 'B', tid, record.ts_ns);
            let _ = write!(out, ",\"args\":{{\"span\":{}}}}}", record.span);
        }
        Event::End { name, cat } => {
            event_head(out, first, name, cat.as_str(), 'E', tid, record.ts_ns);
            let _ = write!(out, ",\"args\":{{\"span\":{}}}}}", record.span);
        }
        Event::Mark { name, cat, value } => {
            event_head(out, first, name, cat.as_str(), 'i', tid, record.ts_ns);
            out.push_str(",\"s\":\"t\",\"args\":{\"value\":");
            write_f64(out, value);
            out.push_str("}}");
        }
        Event::Iteration {
            algo,
            iter,
            prim_res,
            dual_res,
            rho,
            pcg_iters,
        } => {
            // A counter event draws the residual tracks...
            event_head(out, first, "residuals", "solver", 'C', tid, record.ts_ns);
            out.push_str(",\"args\":{\"prim_res\":");
            write_f64(out, prim_res);
            out.push_str(",\"dual_res\":");
            write_f64(out, dual_res);
            out.push_str(",\"rho\":");
            write_f64(out, rho);
            out.push_str("}}");
            // ... and an instant event carries the full payload.
            event_head(out, first, "iteration", "solver", 'i', tid, record.ts_ns);
            let _ = write!(
                out,
                ",\"s\":\"t\",\"args\":{{\"algo\":\"{algo}\",\"iter\":{iter},\
                 \"pcg_iters\":{pcg_iters}}}}}"
            );
        }
        Event::RhoUpdate {
            iter,
            rho_old,
            rho_new,
        } => {
            event_head(out, first, "rho_update", "solver", 'i', tid, record.ts_ns);
            let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"iter\":{iter},\"rho_old\":");
            write_f64(out, rho_old);
            out.push_str(",\"rho_new\":");
            write_f64(out, rho_new);
            out.push_str("}}");
        }
    }
}

/// Writes the common `{"name":…,"cat":…,"ph":…,"ts":…,"pid":1,"tid":…`
/// prefix (the event stays open for `args`).
fn event_head(
    out: &mut String,
    first: &mut bool,
    name: &str,
    cat: &str,
    ph: char,
    tid: u64,
    ts_ns: u64,
) {
    sep(out, first);
    out.push_str("{\"name\":");
    write_str(out, name);
    let _ = write!(
        out,
        ",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{tid}",
        ts_ns / 1000,
        ts_ns % 1000
    );
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;
    use crate::ThreadTrace;

    fn sample_trace() -> Trace {
        let records = vec![
            Record {
                ts_ns: 1000,
                span: 1,
                event: Event::Begin {
                    name: "solve",
                    cat: Category::Solver,
                },
            },
            Record {
                ts_ns: 1500,
                span: 1,
                event: Event::Iteration {
                    algo: "admm",
                    iter: 25,
                    prim_res: 1.25e-3,
                    dual_res: 3.0,
                    rho: 0.1,
                    pcg_iters: 12,
                },
            },
            Record {
                ts_ns: 1600,
                span: 1,
                event: Event::RhoUpdate {
                    iter: 25,
                    rho_old: 0.1,
                    rho_new: 0.7,
                },
            },
            Record {
                ts_ns: 1900,
                span: 1,
                event: Event::Mark {
                    name: "weird \"name\"\n",
                    cat: Category::Other,
                    value: f64::INFINITY,
                },
            },
            Record {
                ts_ns: 2000,
                span: 1,
                event: Event::End {
                    name: "solve",
                    cat: Category::Solver,
                },
            },
        ];
        Trace {
            threads: vec![ThreadTrace {
                tid: 1,
                name: "main".into(),
                records,
                dropped: 0,
            }],
        }
    }

    #[test]
    fn exporter_output_is_valid_json() {
        let json = to_chrome_json(&sample_trace());
        crate::validate_json(&json).expect("chrome export must be valid JSON");
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"rho_new\":0.7"));
        assert!(json.contains("\"algo\":\"admm\""));
        // Non-finite values become null, not invalid tokens.
        assert!(json.contains("\"value\":null"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = to_chrome_json(&Trace::default());
        crate::validate_json(&json).expect("empty export must be valid JSON");
        assert!(json.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn floats_round_trip_through_display() {
        for v in [1.25e-3, 3.0, 0.1, f64::MIN_POSITIVE, 1.0 / 3.0, -2.5e300] {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back: f64 = s.parse().expect("parseable");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s}");
        }
    }

    #[test]
    fn string_escaping() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
