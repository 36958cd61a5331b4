//! Serde-free structured export of serving benchmark runs:
//! `results/BENCH_serve.json`.
//!
//! Two binaries feed the same document — `serve_bench` (the in-process
//! trace replay, mode `"inprocess"`) and `load_bench` (the socket-level
//! load harness, modes `"net-closed"` / `"net-open"`). Each writes its
//! own run object and must not clobber the others', so the writer
//! *merges*: it re-reads the existing document, splits the `"runs"`
//! array into its top-level objects with a brace/string-aware scanner
//! (no JSON parser in the dependency tree), replaces any run of the
//! same mode, and rewrites the whole document. Every write is validated
//! with [`mib_trace::validate_json`] before it hits the filesystem.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::json_f64;

/// One latency series summary (mean plus bucketed quantile bounds, µs).
#[derive(Debug, Clone)]
pub struct LatencySummary {
    /// Series name (`queue_wait`, `service`, `e2e`, ...).
    pub name: String,
    /// Mean, µs.
    pub mean_us: f64,
    /// Bucketed p50 upper bound, µs.
    pub p50_us: u64,
    /// Bucketed p99 upper bound, µs.
    pub p99_us: u64,
}

/// One benchmark run of the serving stack, in-process or over sockets.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Distinguishes runs in the shared document: `"inprocess"`,
    /// `"net-closed"` or `"net-open"`. A new run replaces the previous
    /// run of the same mode.
    pub mode: String,
    /// Terminal answers received (sheds excluded).
    pub requests: u64,
    /// Client threads (or connections) driving the run.
    pub clients: u64,
    /// Distinct tenants in the mix.
    pub tenants: u64,
    /// Wall-clock seconds of the replay.
    pub wall_seconds: f64,
    /// Requests per second over the wall clock.
    pub throughput_rps: f64,
    /// Answers re-derived by a direct solve and compared bitwise.
    pub verified_bitwise: u64,
    /// Outcome tallies, e.g. `("solved", 9931)`.
    pub outcomes: Vec<(String, u64)>,
    /// Shed tallies by reason, e.g. `("rate_limited", 412)`.
    pub sheds: Vec<(String, u64)>,
    /// Latency series summaries.
    pub latency: Vec<LatencySummary>,
    /// Closed-loop throughput cost of the full observability plane
    /// (tracing + tail sampling + rolling windows + a live scraper), as
    /// a percentage of the obs-disabled rate. Only the `net-closed` run
    /// measures this; `None` elsewhere.
    pub obs_overhead_pct: Option<f64>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl ServeRun {
    /// Renders this run as one JSON object.
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("    {\n");
        let _ = writeln!(o, "      \"mode\": {},", json_str(&self.mode));
        let _ = writeln!(o, "      \"requests\": {},", self.requests);
        let _ = writeln!(o, "      \"clients\": {},", self.clients);
        let _ = writeln!(o, "      \"tenants\": {},", self.tenants);
        let _ = writeln!(
            o,
            "      \"wall_seconds\": {},",
            json_f64(self.wall_seconds)
        );
        let _ = writeln!(
            o,
            "      \"throughput_rps\": {},",
            json_f64(self.throughput_rps)
        );
        let _ = writeln!(o, "      \"verified_bitwise\": {},", self.verified_bitwise);
        if let Some(pct) = self.obs_overhead_pct {
            let _ = writeln!(o, "      \"obs_overhead_pct\": {},", json_f64(pct));
        }
        o.push_str("      \"outcomes\": {");
        for (i, (name, count)) in self.outcomes.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            let _ = write!(o, "{}: {count}", json_str(name));
        }
        o.push_str("},\n      \"sheds\": {");
        for (i, (name, count)) in self.sheds.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            let _ = write!(o, "{}: {count}", json_str(name));
        }
        o.push_str("},\n      \"latency_us\": [\n");
        for (i, l) in self.latency.iter().enumerate() {
            let _ = write!(
                o,
                "        {{\"series\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}}}",
                json_str(&l.name),
                json_f64(l.mean_us),
                l.p50_us,
                l.p99_us
            );
            o.push_str(if i + 1 < self.latency.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        o.push_str("      ]\n    }");
        o
    }
}

/// Splits the `"runs"` array of an existing document into its top-level
/// run objects (raw JSON text, one string per run). Returns an empty
/// list for anything that does not look like a serve document.
fn split_runs(doc: &str) -> Vec<String> {
    let Some(key) = doc.find("\"runs\"") else {
        return Vec::new();
    };
    let Some(open) = doc[key..].find('[') else {
        return Vec::new();
    };
    let body = &doc[key + open + 1..];
    let mut runs = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        runs.push(body[s..=i].to_string());
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    runs
}

/// Extracts the `"mode"` value of a rendered run object.
fn run_mode(obj: &str) -> Option<String> {
    let key = obj.find("\"mode\"")?;
    let rest = &obj[key + 6..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

/// Renders the full document from pre-rendered run objects.
fn render_document(runs: &[String]) -> String {
    let mut doc = String::new();
    doc.push_str("{\n  \"bench\": \"serve\",\n  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        // Re-indent merged runs that were captured without their leading
        // whitespace.
        if run.starts_with('{') {
            doc.push_str("    ");
        }
        doc.push_str(run);
        doc.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    doc.push_str("  ]\n}\n");
    doc
}

/// Merges `run` into `results/BENCH_serve.json`: existing runs of other
/// modes are preserved, a previous run of the same mode is replaced.
/// Returns the path written.
///
/// # Errors
///
/// Filesystem errors creating `results/` or writing the file.
///
/// # Panics
///
/// Panics if the rendered document fails JSON validation — a bug in
/// this module, not an environment condition.
pub fn merge_bench_serve(run: &ServeRun) -> std::io::Result<PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_serve.json");
    let mut runs: Vec<String> = match std::fs::read_to_string(&path) {
        Ok(existing) => split_runs(&existing)
            .into_iter()
            .filter(|r| run_mode(r).as_deref() != Some(run.mode.as_str()))
            .collect(),
        Err(_) => Vec::new(),
    };
    runs.push(run.to_json());
    // Deterministic document order regardless of which binary ran last.
    runs.sort_by_key(|r| run_mode(r).unwrap_or_default());
    let doc = render_document(&runs);
    mib_trace::validate_json(&doc).expect("BENCH_serve.json must be valid JSON");
    std::fs::write(&path, doc)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(mode: &str, requests: u64) -> ServeRun {
        ServeRun {
            mode: mode.to_string(),
            requests,
            clients: 4,
            tenants: 10,
            wall_seconds: 1.5,
            throughput_rps: requests as f64 / 1.5,
            verified_bitwise: requests / 100,
            outcomes: vec![("solved".into(), requests - 3), ("cancelled".into(), 3)],
            sheds: vec![("rate_limited".into(), 7), ("queue_full".into(), 2)],
            latency: vec![
                LatencySummary {
                    name: "e2e".into(),
                    mean_us: 1834.5,
                    p50_us: 1024,
                    p99_us: 16384,
                },
                LatencySummary {
                    name: "service".into(),
                    mean_us: 900.0,
                    p50_us: 512,
                    p99_us: 4096,
                },
            ],
            obs_overhead_pct: (mode == "net-closed").then_some(1.25),
        }
    }

    #[test]
    fn run_objects_are_valid_json() {
        let doc = render_document(&[sample("inprocess", 600).to_json()]);
        mib_trace::validate_json(&doc).expect("document must validate");
        assert!(doc.contains("\"mode\": \"inprocess\""));
        assert!(doc.contains("\"throughput_rps\": 400.0"));
    }

    #[test]
    fn split_recovers_each_run_and_mode() {
        let doc = render_document(&[
            sample("inprocess", 600).to_json(),
            sample("net-closed", 1_000_000).to_json(),
        ]);
        let runs = split_runs(&doc);
        assert_eq!(runs.len(), 2);
        assert_eq!(run_mode(&runs[0]).as_deref(), Some("inprocess"));
        assert_eq!(run_mode(&runs[1]).as_deref(), Some("net-closed"));
        assert!(runs[1].contains("\"requests\": 1000000"));
    }

    #[test]
    fn same_mode_replaces_other_modes_survive() {
        let first = render_document(&[
            sample("inprocess", 600).to_json(),
            sample("net-closed", 500).to_json(),
        ]);
        // Simulate the merge path without touching the filesystem.
        let mut runs: Vec<String> = split_runs(&first)
            .into_iter()
            .filter(|r| run_mode(r).as_deref() != Some("net-closed"))
            .collect();
        runs.push(sample("net-closed", 1_000_000).to_json());
        runs.sort_by_key(|r| run_mode(r).unwrap_or_default());
        let merged = render_document(&runs);
        mib_trace::validate_json(&merged).expect("merged document must validate");
        assert!(merged.contains("\"requests\": 600"), "other mode survives");
        assert!(merged.contains("\"requests\": 1000000"), "new run present");
        assert!(!merged.contains("\"requests\": 500"), "old run replaced");
    }

    #[test]
    fn scanner_survives_braces_inside_strings() {
        let tricky = r#"{ "bench": "serve", "runs": [ {"mode": "a{}[]\"x", "requests": 1} ] }"#;
        let runs = split_runs(tricky);
        assert_eq!(runs.len(), 1);
        assert_eq!(run_mode(&runs[0]).as_deref(), Some("a{}[]\\"));
    }
}
