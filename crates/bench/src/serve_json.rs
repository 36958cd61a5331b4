//! Serde-free structured export of the serving benchmark:
//! `results/BENCH_serve.json`. `load_bench` renders the whole document
//! once, one run object per transport and loop mode (`inprocess`,
//! `net-closed`, `net-open`), and writes it with [`crate::publish`].

use std::fmt::Write as _;

use mib_serve::Histogram;
use mib_trace::json::{write_f64, write_str};

/// One latency series summary (mean plus histogram quantile bounds, µs).
#[derive(Debug, Clone)]
pub struct LatencySummary {
    /// Series name (`queue_wait`, `service`, `e2e_client`, ...).
    pub name: String,
    /// Mean, µs.
    pub mean_us: f64,
    /// p50 upper bound, µs (at most 12.5 % above the exact quantile).
    pub p50_us: u64,
    /// p99 upper bound, µs (at most 12.5 % above the exact quantile).
    pub p99_us: u64,
}

impl LatencySummary {
    /// The summary of the samples in `h`.
    pub fn of(name: &str, h: &Histogram) -> Self {
        LatencySummary {
            name: name.to_string(),
            mean_us: h.mean(),
            p50_us: h.quantile_bound(0.5),
            p99_us: h.quantile_bound(0.99),
        }
    }
}

/// One benchmark run of the serving stack, in-process or over sockets.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Identifies the run in the document: `"inprocess"`,
    /// `"net-closed"` or `"net-open"`.
    pub mode: String,
    /// Terminal answers received (sheds excluded).
    pub requests: u64,
    /// Client threads (or connections) driving the run.
    pub clients: u64,
    /// Distinct tenants in the mix.
    pub tenants: u64,
    /// Wall-clock seconds of the run.
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

/// Appends `"name": {"k": n, ...}` for a list of tallies.
fn write_tallies(o: &mut String, name: &str, tallies: &[(String, u64)]) {
    let _ = write!(o, "      \"{name}\": {{");
    for (i, (key, count)) in tallies.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        write_str(o, key);
        let _ = write!(o, ": {count}");
    }
    o.push_str("},\n");
}

impl ServeRun {
    /// Appends this run as one JSON object.
    fn write_json(&self, o: &mut String) {
        o.push_str("    {\n      \"mode\": ");
        write_str(o, &self.mode);
        let _ = write!(
            o,
            ",\n      \"requests\": {},\n      \"clients\": {},\n      \"tenants\": {},\n      \
             \"wall_seconds\": ",
            self.requests, self.clients, self.tenants
        );
        write_f64(o, self.wall_seconds);
        o.push_str(",\n      \"throughput_rps\": ");
        write_f64(o, self.throughput_rps);
        let _ = writeln!(
            o,
            ",\n      \"verified_bitwise\": {},",
            self.verified_bitwise
        );
        if let Some(pct) = self.obs_overhead_pct {
            o.push_str("      \"obs_overhead_pct\": ");
            write_f64(o, pct);
            o.push_str(",\n");
        }
        write_tallies(o, "outcomes", &self.outcomes);
        write_tallies(o, "sheds", &self.sheds);
        o.push_str("      \"latency_us\": [\n");
        for (i, l) in self.latency.iter().enumerate() {
            o.push_str("        {\"series\": ");
            write_str(o, &l.name);
            o.push_str(", \"mean\": ");
            write_f64(o, l.mean_us);
            let _ = write!(o, ", \"p50\": {}, \"p99\": {}}}", l.p50_us, l.p99_us);
            o.push_str(if i + 1 < self.latency.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        o.push_str("      ]\n    }");
    }
}

/// Renders the full document, the bytes of `results/BENCH_serve.json`.
pub fn render_document(runs: &[ServeRun]) -> String {
    let mut doc = String::from("{\n  \"bench\": \"serve\",\n  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        run.write_json(&mut doc);
        doc.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    doc.push_str("  ]\n}\n");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_trace::json::Json;

    fn sample(mode: &str, requests: u64) -> ServeRun {
        let latency = Histogram::new();
        for us in [40, 959, 1834] {
            latency.observe(us);
        }
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
                LatencySummary::of("e2e", &latency),
                LatencySummary::of("service", &latency),
            ],
            obs_overhead_pct: (mode == "net-closed").then_some(1.25),
        }
    }

    #[test]
    fn run_objects_are_valid_json() {
        let doc = render_document(&[sample("inprocess", 600), sample("net-closed", 1_000_000)]);
        let parsed = Json::parse(&doc).expect("document must parse");
        assert!(doc.contains("\"mode\": \"inprocess\""));
        assert!(doc.contains("\"throughput_rps\": 400.0"));
        let runs = parsed.get("runs").map_or(&[][..], Json::items);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("requests").and_then(Json::as_f64), Some(1e6));
        assert_eq!(
            runs[1].get("obs_overhead_pct").and_then(Json::as_f64),
            Some(1.25)
        );
        assert!(runs[0].get("obs_overhead_pct").is_none());
        let e2e = &runs[0].get("latency_us").map_or(&[][..], Json::items)[0];
        assert_eq!(e2e.get("p50").and_then(Json::as_f64), Some(959.0));
        assert_eq!(e2e.get("p99").and_then(Json::as_f64), Some(1834.0));
    }

    #[test]
    fn split_recovers_each_run_and_mode() {
        // The document is written whole; reading it back run by run gives
        // each mode with its own numbers, in the order written.
        let doc = render_document(&[
            sample("inprocess", 600),
            sample("net-closed", 1_000_000),
            sample("net-open", 750),
        ]);
        let parsed = Json::parse(&doc).expect("document must parse");
        assert_eq!(parsed.get("bench").and_then(Json::as_str), Some("serve"));
        let runs = parsed.get("runs").map_or(&[][..], Json::items);
        let recovered: Vec<(&str, f64)> = runs
            .iter()
            .map(|r| {
                let mode = r.get("mode").and_then(Json::as_str).unwrap_or_default();
                let requests = r.get("requests").and_then(Json::as_f64).unwrap_or(-1.0);
                (mode, requests)
            })
            .collect();
        assert_eq!(
            recovered,
            [
                ("inprocess", 600.0),
                ("net-closed", 1e6),
                ("net-open", 750.0)
            ]
        );
    }
}
