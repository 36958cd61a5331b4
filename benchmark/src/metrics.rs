//! The metric tables (`BENCHMARK.json` lists exactly these) and the
//! result line a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// What a user of the system sees; printed by the untraced run of every
/// workload. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    hi("ops_per_s", "1/s"),
    lo("op_us_p50", "us"),
    lo("op_us_p99", "us"),
    hi("slo_ok_share", "ratio"),
    lo("peak_rss_mb", "MB"),
];

/// Single-layer metrics; printed by the traced run of every workload. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    lo("problems.generate_us_p50", "us"),
    lo("sparse.spmv_ns_per_nnz", "ns"),
    lo("sparse.ldl_solve_ns_per_lnnz", "ns"),
    lo("sparse.order_us_p50", "us"),
    lo("sparse.symbolic_us_p50", "us"),
    lo("sparse.factor_us_p50", "us"),
    lo("sparse.refactor_us_p50", "us"),
    lo("sparse.l_nnz_per_kkt_nnz", "ratio"),
    lo("qp.setup_us_p50", "us"),
    lo("qp.setup_share", "ratio"),
    lo("qp.scaling_us_p50", "us"),
    lo("qp.kkt_assemble_us_p50", "us"),
    lo("qp.setup_unattributed_share", "ratio"),
    lo("qp.update_us_p50", "us"),
    lo("qp.solve_us_p50", "us"),
    lo("qp.solve_us_p99", "us"),
    lo("qp.iters_per_solve", "count"),
    lo("qp.flops_per_solve", "count"),
    lo("qp.admm_direct.us_per_iter", "us"),
    lo("qp.admm_indirect.us_per_iter", "us"),
    lo("qp.pdqp.us_per_iter", "us"),
    lo("qp.admm_direct.time_share", "ratio"),
    lo("qp.admm_indirect.time_share", "ratio"),
    lo("qp.pdqp.time_share", "ratio"),
    lo("qp.clone_us_p50", "us"),
    lo("qp.unsolved_count", "count"),
    lo("serve.register_us_p50", "us"),
    lo("serve.pattern_key_us_p50", "us"),
    lo("serve.admit_ns_p50", "ns"),
    lo("serve.inproc_us_p50", "us"),
    lo("serve.queue_wait_us_p50", "us"),
    lo("serve.queue_wait_us_p99", "us"),
    lo("serve.service_us_p50", "us"),
    lo("serve.service_us_p99", "us"),
    lo("serve.sat_queue_wait_us_p50", "us"),
    hi("serve.sat_batch_size_mean", "count"),
    lo("serve.shed_count", "count"),
    lo("serve.expired_count", "count"),
    lo("net.encode_submit_ns_p50", "ns"),
    lo("net.decode_submit_ns_p50", "ns"),
    lo("net.encode_reply_ns_p50", "ns"),
    lo("net.decode_reply_ns_p50", "ns"),
    lo("net.submit_bytes_mean", "bytes"),
    lo("net.reply_bytes_mean", "bytes"),
    lo("net.overhead_us_p50", "us"),
    lo("net.overhead_us_p99", "us"),
    lo("net.overhead_share", "ratio"),
    lo("net.unattributed_share", "ratio"),
    lo("net.connect_us_p50", "us"),
    lo("net.lat_cpu_us_per_op", "us"),
    lo("net.sat_cpu_us_per_op", "us"),
    lo("obs.sat_overhead_pct", "%"),
    lo("obs.scrape_us_p50", "us"),
    lo("trace.span_ns_p50", "ns"),
    lo("compiler.lower_miss_ms_p50", "ms"),
    lo("compiler.lower_hit_us_p50", "us"),
    lo("compiler.miss_time_share", "ratio"),
    lo("compiler.slots_per_program", "count"),
    hi("compiler.busy_slot_share", "ratio"),
    lo("compiler.forced_appends", "count"),
    lo("compiler.static_cost_us_p50", "us"),
    lo("core.run_ns_per_cycle", "ns"),
    lo("core.exec_cycles_per_op", "cycles"),
    lo("core.stall_cycles", "cycles"),
    hi("core.utilization", "ratio"),
    lo("core.sim_cycles_per_op", "cycles"),
    lo("verify.predict_us_p50", "us"),
    lo("verify.predict_mismatch_count", "count"),
    hi("verify.critical_path_share", "ratio"),
    hi("platforms.speedup_vs_cpu_geomean", "ratio"),
    hi("bench.rounds", "count"),
    lo("bench.raw_op_us_p50", "us"),
    lo("bench.raw_op_us_p99", "us"),
    lo("bench.round_rate_iqr_pct", "%"),
    lo("bench.cpu_steal_pct", "%"),
    hi("bench.machine_speed", "ratio"),
    lo("bench.trace_overhead_pct", "%"),
    hi("bench.ok_share", "ratio"),
];

/// What one run of one workload found.
#[derive(Debug)]
pub struct Report {
    /// Ops attempted in all timed rounds and levels.
    pub attempted: u64,
    /// Ops that were shed, errored, did not solve or failed a check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
        }
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table lists, or a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is in neither table"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// A metric set earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Whether every op was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: every metric of `table`, by name with its unit. A
    /// metric of `table` never set reads 0 (a layer the workload does not
    /// exercise).
    pub fn to_json(&self, table: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, d) in table.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.get(d.name).unwrap_or(0.0);
            // `{}` prints the shortest text that reads back bit-exactly:
            // the number as measured, with all its digits.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A table for people, on stderr.
    pub fn to_text(&self, workload: &str, table: &[MetricDef]) -> String {
        let mut out = format!(
            "== {workload}: {} attempted, {} failed, ok_share {} ==\n",
            self.attempted,
            self.failed,
            (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
        );
        for d in table {
            let _ = writeln!(
                out,
                "  {:<34} {:>16.4} {}",
                d.name,
                self.get(d.name).unwrap_or(0.0),
                d.unit
            );
        }
        out
    }
}

/// Every string that follows `"key": ` in `text`, in order.
pub fn strings_after(text: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(at, _)| {
            let s = &text[at + pat.len()..];
            s[..s.find('"').unwrap_or(s.len())].to_string()
        })
        .collect()
}

/// Every number that follows `"key": ` in `text`, in order.
pub fn numbers_after(text: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\": ");
    text.match_indices(&pat)
        .filter_map(|(at, _)| {
            let s = &text[at + pat.len()..];
            let end = s.find([',', '}', ']', '\n']).unwrap_or(s.len());
            s[..end].trim().parse().ok()
        })
        .collect()
}

/// The `[...]` array that follows `"key":` in `BENCHMARK.json`'s text
/// (its arrays hold flat objects, so the first `]` closes it).
pub fn section<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let start = text.find(&format!("\"{key}\":"))?;
    let open = start + text[start..].find('[')?;
    let close = open + text[open..].find(']')?;
    Some(&text[open..close])
}

/// Reads `(name, value)` pairs back out of a result line printed by
/// [`Report::to_json`].
pub fn parse_result_line(line: &str) -> Vec<(String, f64)> {
    strings_before_values(line)
        .into_iter()
        .zip(numbers_after(line, "value"))
        .collect()
}

fn strings_before_values(line: &str) -> Vec<String> {
    line.match_indices("\": {\"value\": ")
        .map(|(at, _)| {
            let start = line[..at].rfind('"').map_or(0, |q| q + 1);
            line[start..at].to_string()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    fn check_table(section_name: &str, table: &[MetricDef]) {
        let text = manifest();
        let sec = section(&text, section_name).expect("section present");
        let names: Vec<&str> = table.iter().map(|d| d.name).collect();
        assert_eq!(strings_after(sec, "name"), names, "{section_name} names");
        let units: Vec<&str> = table.iter().map(|d| d.unit).collect();
        assert_eq!(strings_after(sec, "unit"), units, "{section_name} units");
        let better: Vec<&str> = table.iter().map(|d| d.better.word()).collect();
        assert_eq!(
            strings_after(sec, "better"),
            better,
            "{section_name} better"
        );
    }

    #[test]
    fn tables_list_exactly_what_benchmark_json_lists() {
        check_table("end_to_end", END_TO_END);
        check_table("per_layer", PER_LAYER);
        let text = manifest();
        assert_eq!(
            strings_after(section(&text, "workloads").expect("workloads"), "name"),
            crate::WORKLOADS
        );
        assert_eq!(mib_trace::validate_json(&text), Ok(()));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn emitted_json_lists_exactly_the_table() {
        let mut r = Report::new();
        r.attempted = 10;
        r.set("ops_per_s", 1234.5678);
        r.set("setup_s", 0.25);
        for (table, n) in [(END_TO_END, END_TO_END.len()), (PER_LAYER, PER_LAYER.len())] {
            let line = r.to_json(table);
            assert_eq!(mib_trace::validate_json(&line), Ok(()));
            let parsed = parse_result_line(&line);
            let names: Vec<&str> = parsed.iter().map(|(n, _)| n.as_str()).collect();
            let want: Vec<&str> = table.iter().map(|d| d.name).collect();
            assert_eq!(names, want);
            assert_eq!(parsed.len(), n);
        }
        let line = r.to_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = Report::new();
        r.attempted = 5;
        r.failed = 1;
        assert!(r.to_json(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "neither table")]
    fn unknown_names_are_refused() {
        Report::new().set("made_up", 1.0);
    }
}
