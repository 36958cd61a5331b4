//! Benchmark regression detection: compares a committed benchmark
//! document (`results/BENCH_<name>.json`) against a baseline copy of the
//! same file, under the document's [`Spec`]. [`DOCUMENTS`] lists every
//! guarded document, with tolerances tuned for the noisy single-core
//! runners this repository measures on.
//!
//! The comparison is structural, not textual: the workspace's one JSON
//! parser ([`mib_trace::json`]) loads both documents, each baseline row is
//! matched to the current row with the same identity, and each listed
//! value is checked against its [`Rule`]. A row present in the baseline
//! but missing from the current document is itself a failure — losing
//! coverage must not pass silently.

use std::fmt::Write as _;

use mib_trace::json::Json;

/// How one document is compared.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The document's name: its file is `BENCH_<name>.json`, and every
    /// metric it yields starts with it.
    pub name: &'static str,
    /// The key of the document's array of rows.
    pub rows: &'static str,
    /// A row's identity: each `{field}` stands for the row's value of that
    /// field (a string as is, a number in its shortest form). Rows with
    /// equal identities are matched; a row lacking a field has none and is
    /// not compared.
    pub row_id: &'static str,
    /// The values compared in every matched row, in report order.
    pub fields: &'static [(Field, Rule)],
    /// The values compared at the top level of the document.
    pub totals: &'static [(Field, Rule)],
}

/// Where a compared value sits in its row (or document).
#[derive(Debug, Clone, Copy)]
pub enum Field {
    /// The number or boolean under this key (`true` reads as 1, `false`
    /// as 0).
    Key(&'static str),
    /// The `p50` of the `latency_us` series of this name, reported as
    /// `<name>.p50_us`.
    P50(&'static str),
}

impl Field {
    fn label(self) -> String {
        match self {
            Field::Key(key) => key.to_string(),
            Field::P50(series) => format!("{series}.p50_us"),
        }
    }

    fn read(self, row: &Json) -> Option<f64> {
        let value = match self {
            Field::Key(key) => row.get(key)?,
            Field::P50(series) => row
                .get("latency_us")?
                .items()
                .iter()
                .find(|l| l.get("series").and_then(Json::as_str) == Some(series))?
                .get("p50")?,
        };
        match value {
            Json::Bool(b) => Some(f64::from(u8::from(*b))),
            other => other.as_f64(),
        }
    }
}

/// The condition a current value must meet. A relative rule compares
/// with the baseline value and is skipped when the baseline lacks it
/// (there is nothing to regress against); a current value that is
/// missing then fails.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// At least this multiple of the baseline.
    AtLeastTimes(f64),
    /// At most this multiple of the baseline.
    AtMostTimes(f64),
    /// No rise above the baseline at all.
    NoRise,
    /// Equal to the baseline.
    Equal,
    /// A baseline `true` stays `true`; the text names the property.
    StaysTrue(&'static str),
    /// Below this bound whatever the baseline measured, and still
    /// present if the baseline has it.
    Below(f64),
    /// Exactly zero, whatever the baseline.
    Zero,
    /// At least the current document's top-level value of this key.
    AtLeast(&'static str),
    /// Listed beside the others when either side has it; never fails.
    Reported,
}

impl Rule {
    /// The finding for one value, or `None` when there is nothing to
    /// judge.
    fn judge(
        self,
        metric: String,
        baseline: Option<f64>,
        current: Option<f64>,
        current_doc: &Json,
    ) -> Option<Finding> {
        let (b, c) = (baseline.unwrap_or(f64::NAN), current.unwrap_or(f64::NAN));
        let (rule, ok) = match self {
            Rule::AtLeastTimes(k) => (format!(">= {k}x baseline"), c >= baseline? * k),
            Rule::AtMostTimes(k) => (format!("<= {k}x baseline"), c <= baseline? * k),
            Rule::NoRise => ("<= baseline".into(), c <= baseline?),
            Rule::Equal => ("== baseline".into(), c == baseline?),
            Rule::StaysTrue(what) => {
                if baseline? != 1.0 {
                    return None;
                }
                (what.into(), c == 1.0)
            }
            Rule::Below(_) if current.is_none() => {
                baseline?;
                ("metric present".into(), false)
            }
            Rule::Below(bound) => (format!("< {bound} absolute"), c < bound),
            Rule::Zero => ("== 0".into(), c == 0.0),
            Rule::AtLeast(key) => {
                let floor = Field::Key(key).read(current_doc).unwrap_or(f64::NAN);
                (format!(">= {key} ({floor})"), c >= floor)
            }
            Rule::Reported => {
                if baseline.is_none() && current.is_none() {
                    return None;
                }
                ("reported, not gated".into(), true)
            }
        };
        Some(Finding {
            metric,
            baseline: b,
            current: c,
            rule,
            ok,
        })
    }
}

/// Every guarded document, in report order. The serve and kernel
/// tolerances absorb run-to-run noise on a shared single core; every
/// count is deterministic, so any rise comes from a change to an
/// algorithm, the compiler or the cycle model. Wall-clock fields are not
/// compared.
pub const DOCUMENTS: &[Spec] = &[BENCH_SERVE, BENCH_KERNELS, BENCH_BACKENDS, BENCH_VERIFY];

/// `BENCH_serve.json`: one run per transport and loop mode.
pub const BENCH_SERVE: Spec = Spec {
    name: "serve",
    rows: "runs",
    row_id: "{mode}",
    fields: &[
        // Closed/open-loop rates jitter by tens of percent run to run.
        (Field::Key("throughput_rps"), Rule::AtLeastTimes(0.65)),
        // A slow run's median solve can take several times a quiet run's.
        (Field::P50("service"), Rule::AtMostTimes(4.0)),
        // The observability plane must cost under 5% of closed-loop
        // throughput, whatever the baseline measured.
        (Field::Key("obs_overhead_pct"), Rule::Below(5.0)),
    ],
    totals: &[],
};

/// `BENCH_kernels.json`: one row per kernel and size.
pub const BENCH_KERNELS: Spec = Spec {
    name: "kernels",
    rows: "kernels",
    row_id: "{group}/{kernel}/n={n}",
    fields: &[(Field::Key("ns_per_call"), Rule::AtMostTimes(2.5))],
    totals: &[],
};

/// `BENCH_backends.json`: one cold solve per domain, instance and
/// backend. The checks and `ρ` updates that explain an iteration change
/// are printed, never gated: more of them may well buy fewer iterations.
pub const BENCH_BACKENDS: Spec = Spec {
    name: "backends",
    rows: "runs",
    row_id: "{domain}/{index}/{backend}",
    fields: &[
        (Field::Key("converged"), Rule::StaysTrue("stays converged")),
        (Field::Key("iterations"), Rule::NoRise),
        (Field::Key("pcg_iters"), Rule::NoRise),
        (Field::Key("checks"), Rule::Reported),
        (Field::Key("rho_updates"), Rule::Reported),
    ],
    totals: &[],
};

/// `BENCH_verify.json`: one row per compiled program.
pub const BENCH_VERIFY: Spec = Spec {
    name: "verify",
    rows: "runs",
    row_id: "{program}",
    fields: &[
        (Field::Key("agree"), Rule::StaysTrue("stays in agreement")),
        (Field::Key("stall_cycles"), Rule::Zero),
        (Field::Key("slots"), Rule::NoRise),
        (Field::Key("predicted_cycles"), Rule::NoRise),
    ],
    totals: &[
        (Field::Key("agreement"), Rule::AtLeast("programs")),
        (Field::Key("forced_appends"), Rule::NoRise),
    ],
};

/// One compared metric: its identity, both values, the applied rule and
/// the verdict.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Metric identity, e.g. `serve[net-closed].throughput_rps`.
    pub metric: String,
    /// Baseline value (`NaN` when absent in the baseline).
    pub baseline: f64,
    /// Current value (`NaN` when absent in the current document).
    pub current: f64,
    /// Human-readable rule, e.g. `>= 0.65x baseline`.
    pub rule: String,
    /// `false` = regression.
    pub ok: bool,
}

/// Compares `current` against `baseline`, two copies of the document
/// `spec` describes: every baseline row must have a current row of the
/// same identity, whose values then meet their rules, and so must the
/// document's totals.
///
/// # Errors
///
/// Returns parse errors for either document.
pub fn diff(spec: &Spec, baseline: &str, current: &str) -> Result<Vec<Finding>, String> {
    let name = spec.name;
    let base = Json::parse(baseline).map_err(|e| format!("baseline {name}: {e}"))?;
    let cur = Json::parse(current).map_err(|e| format!("current {name}: {e}"))?;
    let cur_rows = cur.get(spec.rows).map_or(&[][..], Json::items);
    let mut findings = Vec::new();
    for row in base.get(spec.rows).map_or(&[][..], Json::items) {
        let Some(id) = identity(spec.row_id, row) else {
            continue;
        };
        let label = format!("{name}[{id}]");
        match cur_rows
            .iter()
            .find(|r| identity(spec.row_id, r).as_ref() == Some(&id))
        {
            Some(cur_row) => judge(&mut findings, &label, spec.fields, row, cur_row, &cur),
            None => findings.push(Finding {
                metric: label,
                baseline: f64::NAN,
                current: f64::NAN,
                rule: "row present".into(),
                ok: false,
            }),
        }
    }
    judge(&mut findings, name, spec.totals, &base, &cur, &cur);
    Ok(findings)
}

/// Appends the findings of `checks` on one baseline/current pair.
fn judge(
    findings: &mut Vec<Finding>,
    prefix: &str,
    checks: &[(Field, Rule)],
    base: &Json,
    cur: &Json,
    cur_doc: &Json,
) {
    findings.extend(checks.iter().filter_map(|&(field, rule)| {
        let metric = format!("{prefix}.{}", field.label());
        rule.judge(metric, field.read(base), field.read(cur), cur_doc)
    }));
}

/// `template` with each `{field}` replaced by `row`'s value of it;
/// `None` when a field is missing or neither a string nor a number.
fn identity(template: &str, row: &Json) -> Option<String> {
    let mut out = String::new();
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        let close = open + rest[open..].find('}')?;
        out.push_str(&rest[..open]);
        match row.get(&rest[open + 1..close])? {
            Json::Str(s) => out.push_str(s),
            Json::Num(v) => {
                let _ = write!(out, "{v}");
            }
            _ => return None,
        }
        rest = &rest[close + 1..];
    }
    out.push_str(rest);
    Some(out)
}

/// Renders findings as an aligned report; the final line is `PASS` or
/// `FAIL (<n> regressions)`.
pub fn render_findings(findings: &[Finding]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:>14} {:>14}  {:<22} verdict",
        "metric", "baseline", "current", "rule"
    );
    for f in findings {
        let _ = writeln!(
            out,
            "{:<52} {:>14.3} {:>14.3}  {:<22} {}",
            f.metric,
            f.baseline,
            f.current,
            f.rule,
            if f.ok { "ok" } else { "REGRESSION" }
        );
    }
    let bad = findings.iter().filter(|f| !f.ok).count();
    if bad == 0 {
        out.push_str("PASS\n");
    } else {
        let _ = writeln!(out, "FAIL ({bad} regressions)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVE: &str = r#"{
      "bench": "serve",
      "runs": [
        {"mode": "net-closed", "throughput_rps": 4000.0,
         "obs_overhead_pct": 1.5,
         "latency_us": [{"series": "service", "mean": 700.0, "p50": 256, "p99": 65536}]},
        {"mode": "net-open", "throughput_rps": 2800.0,
         "latency_us": [{"series": "service", "mean": 700.0, "p50": 256, "p99": 65536}]}
      ]
    }"#;

    fn with(serve: &str, from: &str, to: &str) -> String {
        assert!(serve.contains(from), "fixture must contain {from}");
        serve.replace(from, to)
    }

    #[test]
    fn parser_round_trips_real_documents() {
        let doc = Json::parse(SERVE).expect("fixture parses");
        assert_eq!(
            doc.get("runs").expect("runs").items()[0]
                .get("mode")
                .and_then(Json::as_str),
            Some("net-closed")
        );
        for bad in ["{", "[1,]", "{\"a\" 1}", "nul", "{} trailing"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Escapes and unicode survive.
        let s = Json::parse(r#"{"k": "a{}\"\\\nμs"}"#).expect("escapes parse");
        assert_eq!(s.get("k").and_then(Json::as_str), Some("a{}\"\\\nμs"));
    }

    #[test]
    fn identical_documents_pass() {
        let findings = diff(&BENCH_SERVE, SERVE, SERVE).expect("diff runs");
        assert!(findings.iter().all(|f| f.ok), "{findings:?}");
        assert!(render_findings(&findings).ends_with("PASS\n"));
    }

    #[test]
    fn throughput_regression_is_flagged_within_tolerance_is_not() {
        // 30% slower: inside the 0.65x bound, still ok.
        let slower = with(
            SERVE,
            "\"throughput_rps\": 4000.0",
            "\"throughput_rps\": 2800.0",
        );
        assert!(diff(&BENCH_SERVE, SERVE, &slower)
            .expect("diff runs")
            .iter()
            .all(|f| f.ok));
        // 50% slower: regression.
        let halved = with(
            SERVE,
            "\"throughput_rps\": 4000.0",
            "\"throughput_rps\": 2000.0",
        );
        let findings = diff(&BENCH_SERVE, SERVE, &halved).expect("diff runs");
        let bad: Vec<_> = findings.iter().filter(|f| !f.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "serve[net-closed].throughput_rps");
        assert!(render_findings(&findings).contains("FAIL (1 regressions)"));
    }

    #[test]
    fn obs_overhead_ceiling_is_absolute_and_presence_checked() {
        // Breaching the 5% ceiling fails even if the baseline was worse.
        let bad = with(
            SERVE,
            "\"obs_overhead_pct\": 1.5",
            "\"obs_overhead_pct\": 6.5",
        );
        let findings = diff(&BENCH_SERVE, &bad, &bad).expect("diff runs");
        assert!(findings
            .iter()
            .any(|f| !f.ok && f.metric.contains("obs_overhead_pct")));
        // Dropping the metric entirely fails too.
        let missing = with(SERVE, "\"obs_overhead_pct\": 1.5,\n         ", "");
        let findings = diff(&BENCH_SERVE, SERVE, &missing).expect("diff runs");
        assert!(findings
            .iter()
            .any(|f| !f.ok && f.metric.contains("obs_overhead_pct")));
    }

    #[test]
    fn missing_run_and_kernel_rows_fail() {
        let open_only =
            r#"{"bench": "serve", "runs": [{"mode": "net-open", "throughput_rps": 2800.0}]}"#;
        let findings = diff(&BENCH_SERVE, SERVE, open_only).expect("diff runs");
        assert!(findings
            .iter()
            .any(|f| !f.ok && f.metric == "serve[net-closed]"));

        let kernels = r#"{"kernels": [{"group": "vector", "kernel": "dot", "n": 1000, "ns_per_call": 150.0}]}"#;
        let empty = r#"{"kernels": []}"#;
        let findings = diff(&BENCH_KERNELS, kernels, empty).expect("diff runs");
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].ok);
    }

    #[test]
    fn kernel_slowdowns_respect_the_ratio() {
        let kernels = r#"{"kernels": [{"group": "vector", "kernel": "dot", "n": 1000, "ns_per_call": 150.0}]}"#;
        let doubled = kernels.replace("150.0", "300.0");
        assert!(diff(&BENCH_KERNELS, kernels, &doubled)
            .expect("diff runs")
            .iter()
            .all(|f| f.ok));
        let tripled = kernels.replace("150.0", "450.0");
        assert!(diff(&BENCH_KERNELS, kernels, &tripled)
            .expect("diff runs")
            .iter()
            .any(|f| !f.ok));
    }

    #[test]
    fn backend_rows_lost_unconverged_or_slower_fail() {
        let backends = r#"{"bench": "backends", "runs": [
          {"domain": "lasso", "index": 0, "backend": "admm-indirect",
           "converged": true, "iterations": 100, "pcg_iters": 400,
           "solve_time_us": 90},
          {"domain": "lasso", "index": 0, "backend": "pdqp",
           "converged": true, "iterations": 300, "solve_time_us": 80}
        ]}"#;
        // Identical or falling counts pass, whatever the timing.
        let within = backends
            .replace("\"iterations\": 100", "\"iterations\": 90")
            .replace("\"pcg_iters\": 400", "\"pcg_iters\": 399")
            .replace("\"solve_time_us\": 90", "\"solve_time_us\": 900");
        for current in [backends, within.as_str()] {
            let findings = diff(&BENCH_BACKENDS, backends, current).expect("diff runs");
            assert_eq!(findings.len(), 5);
            assert!(findings.iter().all(|f| f.ok), "{findings:?}");
        }
        let failing = |current: &str, metric: &str| {
            let findings = diff(&BENCH_BACKENDS, backends, current).expect("diff runs");
            let bad: Vec<_> = findings.iter().filter(|f| !f.ok).collect();
            assert_eq!(bad.len(), 1, "{findings:?}");
            assert_eq!(bad[0].metric, metric);
        };
        failing(
            &backends.replace("\"iterations\": 100", "\"iterations\": 101"),
            "backends[lasso/0/admm-indirect].iterations",
        );
        failing(
            &backends.replace("\"pcg_iters\": 400", "\"pcg_iters\": 401"),
            "backends[lasso/0/admm-indirect].pcg_iters",
        );
        failing(
            &backends.replace(
                "\"converged\": true, \"iterations\": 300",
                "\"converged\": false, \"iterations\": 300",
            ),
            "backends[lasso/0/pdqp].converged",
        );
        failing(
            &backends.replace("\"backend\": \"pdqp\"", "\"backend\": \"osqp\""),
            "backends[lasso/0/pdqp]",
        );
    }

    #[test]
    fn backend_checks_and_rho_updates_are_reported_not_gated() {
        let backends = r#"{"bench": "backends", "runs": [
          {"domain": "svm", "index": 0, "backend": "admm-indirect",
           "converged": true, "iterations": 115, "pcg_iters": 409,
           "checks": 6, "rho_updates": 0}
        ]}"#;
        let current = backends
            .replace("\"iterations\": 115", "\"iterations\": 55")
            .replace("\"checks\": 6", "\"checks\": 11")
            .replace("\"rho_updates\": 0", "\"rho_updates\": 1");
        let findings = diff(&BENCH_BACKENDS, backends, &current).expect("diff runs");
        assert!(findings.iter().all(|f| f.ok), "{findings:?}");
        let reported = |metric: &str| {
            let f = findings
                .iter()
                .find(|f| f.metric == metric)
                .unwrap_or_else(|| panic!("{metric} missing: {findings:?}"));
            (f.baseline, f.current)
        };
        assert_eq!(
            reported("backends[svm/0/admm-indirect].checks"),
            (6.0, 11.0)
        );
        assert_eq!(
            reported("backends[svm/0/admm-indirect].rho_updates"),
            (0.0, 1.0)
        );
        // A baseline written before the fields existed still diffs.
        let old = backends.replace(", \"checks\": 6, \"rho_updates\": 0", "");
        let findings = diff(&BENCH_BACKENDS, &old, &current).expect("diff runs");
        assert!(findings.iter().all(|f| f.ok), "{findings:?}");
        assert_eq!(findings.len(), 5);
    }

    #[test]
    fn verify_rows_lost_disagreeing_stalling_or_longer_fail() {
        let verify = r#"{"bench": "verify", "programs": 2, "agreement": 2,
          "forced_appends": 0, "analysis_us": 100, "runs": [
          {"program": "lasso[0]/Direct/setup", "slots": 40,
           "predicted_cycles": 47, "stall_cycles": 0, "agree": true},
          {"program": "lasso[0]/Direct/check", "slots": 10,
           "predicted_cycles": 17, "stall_cycles": 0, "agree": true}
        ]}"#;
        // Identical counts and fewer slots and cycles pass, whatever the
        // timing.
        let shorter = verify
            .replace("\"slots\": 40", "\"slots\": 39")
            .replace("\"predicted_cycles\": 47", "\"predicted_cycles\": 46")
            .replace("\"analysis_us\": 100", "\"analysis_us\": 900");
        for current in [verify, shorter.as_str()] {
            let findings = diff(&BENCH_VERIFY, verify, current).expect("diff runs");
            assert_eq!(findings.len(), 10);
            assert!(findings.iter().all(|f| f.ok), "{findings:?}");
        }
        let failing = |current: &str, metric: &str| {
            let findings = diff(&BENCH_VERIFY, verify, current).expect("diff runs");
            let bad: Vec<_> = findings.iter().filter(|f| !f.ok).collect();
            assert_eq!(bad.len(), 1, "{findings:?}");
            assert_eq!(bad[0].metric, metric);
        };
        failing(
            &verify.replace("\"slots\": 40", "\"slots\": 41"),
            "verify[lasso[0]/Direct/setup].slots",
        );
        failing(
            &verify.replace("\"predicted_cycles\": 17", "\"predicted_cycles\": 18"),
            "verify[lasso[0]/Direct/check].predicted_cycles",
        );
        failing(
            &verify.replace(
                "\"predicted_cycles\": 47, \"stall_cycles\": 0",
                "\"predicted_cycles\": 47, \"stall_cycles\": 3",
            ),
            "verify[lasso[0]/Direct/setup].stall_cycles",
        );
        failing(
            &verify.replace(
                "\"stall_cycles\": 0, \"agree\": true}\n        ]",
                "\"stall_cycles\": 0, \"agree\": false}\n        ]",
            ),
            "verify[lasso[0]/Direct/check].agree",
        );
        failing(
            &verify.replace("Direct/check", "Indirect/check"),
            "verify[lasso[0]/Direct/check]",
        );
        failing(
            &verify.replace("\"agreement\": 2", "\"agreement\": 1"),
            "verify.agreement",
        );
        failing(
            &verify.replace("\"forced_appends\": 0", "\"forced_appends\": 1"),
            "verify.forced_appends",
        );
    }
}
