//! Benchmark regression detection: diffs the committed benchmark
//! documents (`results/BENCH_serve.json`, `results/BENCH_kernels.json`,
//! `results/BENCH_backends.json`, `results/BENCH_verify.json`) against a
//! baseline revision of the same files, with per-metric tolerances tuned for the noisy single-core
//! runners this repository measures on.
//!
//! The comparison is structural, not textual: the workspace's one JSON
//! parser ([`mib_trace::json`]) loads both documents, matched entries
//! are located by their identity keys (`mode` for serve runs;
//! `group`/`kernel`/`n` for kernel rows; `domain`/`index`/`backend` for
//! backend runs; `program` for verify runs), and each tracked metric is
//! checked against its tolerance. An entry present in the
//! baseline but missing from the current document is itself a failure —
//! losing coverage must not pass silently.

use std::fmt::Write as _;

use mib_trace::json::Json;

/// Serve-run throughput may drop to this fraction of baseline before it
/// counts as a regression (closed/open-loop rates on a shared single
/// core jitter by tens of percent run to run).
const SERVE_THROUGHPUT_MIN_RATIO: f64 = 0.65;

/// Serve-run service-time p50 may grow by this factor before it counts
/// as a regression: run-to-run noise on a shared single core, where a
/// slow run's median solve can take several times a quiet run's.
const SERVE_SERVICE_P50_MAX_RATIO: f64 = 4.0;

/// Absolute ceiling on `obs_overhead_pct` wherever it is recorded: the
/// observability plane must stay under 5% of closed-loop throughput
/// regardless of what the baseline measured.
const OBS_OVERHEAD_MAX_PCT: f64 = 5.0;

/// Kernel `ns_per_call` may grow by this factor before it counts as a
/// regression.
const KERNEL_NS_MAX_RATIO: f64 = 2.5;

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

impl Finding {
    fn ratio(metric: String, baseline: f64, current: f64, rule: String, ok: bool) -> Finding {
        Finding {
            metric,
            baseline,
            current,
            rule,
            ok,
        }
    }
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

/// Locates a serve run by mode.
fn serve_run<'a>(doc: &'a Json, mode: &str) -> Option<&'a Json> {
    doc.get("runs")?
        .items()
        .iter()
        .find(|r| r.get("mode").and_then(Json::as_str) == Some(mode))
}

/// The p50 of a named latency series of a serve run.
fn latency_p50(run: &Json, series: &str) -> Option<f64> {
    run.get("latency_us")?
        .items()
        .iter()
        .find(|l| l.get("series").and_then(Json::as_str) == Some(series))?
        .get("p50")
        .and_then(Json::as_f64)
}

/// Diffs two `BENCH_serve.json` documents.
///
/// # Errors
///
/// Returns parse errors for either document.
pub fn diff_serve(baseline: &str, current: &str) -> Result<Vec<Finding>, String> {
    let base = Json::parse(baseline).map_err(|e| format!("baseline serve: {e}"))?;
    let cur = Json::parse(current).map_err(|e| format!("current serve: {e}"))?;
    let mut findings = Vec::new();
    for run in base.get("runs").map_or(&[][..], Json::items) {
        let Some(mode) = run.get("mode").and_then(Json::as_str) else {
            continue;
        };
        let cur_run = serve_run(&cur, mode);
        if cur_run.is_none() {
            findings.push(Finding::ratio(
                format!("serve[{mode}]"),
                f64::NAN,
                f64::NAN,
                "run present".into(),
                false,
            ));
            continue;
        }
        let cur_run = cur_run.expect("checked above");
        if let Some(base_rps) = run.get("throughput_rps").and_then(Json::as_f64) {
            let cur_rps = cur_run
                .get("throughput_rps")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            findings.push(Finding::ratio(
                format!("serve[{mode}].throughput_rps"),
                base_rps,
                cur_rps,
                format!(">= {SERVE_THROUGHPUT_MIN_RATIO}x baseline"),
                cur_rps >= base_rps * SERVE_THROUGHPUT_MIN_RATIO,
            ));
        }
        if let Some(base_p50) = latency_p50(run, "service") {
            let cur_p50 = latency_p50(cur_run, "service").unwrap_or(f64::NAN);
            findings.push(Finding::ratio(
                format!("serve[{mode}].service.p50_us"),
                base_p50,
                cur_p50,
                format!("<= {SERVE_SERVICE_P50_MAX_RATIO}x baseline"),
                cur_p50 <= base_p50 * SERVE_SERVICE_P50_MAX_RATIO,
            ));
        }
        // The obs-overhead bound is absolute: whatever the baseline
        // measured, the current document must stay under the ceiling.
        if let Some(cur_pct) = cur_run.get("obs_overhead_pct").and_then(Json::as_f64) {
            let base_pct = run
                .get("obs_overhead_pct")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            findings.push(Finding::ratio(
                format!("serve[{mode}].obs_overhead_pct"),
                base_pct,
                cur_pct,
                format!("< {OBS_OVERHEAD_MAX_PCT} absolute"),
                cur_pct < OBS_OVERHEAD_MAX_PCT,
            ));
        } else if run.get("obs_overhead_pct").is_some() {
            findings.push(Finding::ratio(
                format!("serve[{mode}].obs_overhead_pct"),
                run.get("obs_overhead_pct")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
                f64::NAN,
                "metric present".into(),
                false,
            ));
        }
    }
    Ok(findings)
}

/// Diffs two `BENCH_kernels.json` documents over `ns_per_call` of every
/// baseline kernel row (matched on `group`/`kernel`/`n`).
///
/// # Errors
///
/// Returns parse errors for either document.
pub fn diff_kernels(baseline: &str, current: &str) -> Result<Vec<Finding>, String> {
    let base = Json::parse(baseline).map_err(|e| format!("baseline kernels: {e}"))?;
    let cur = Json::parse(current).map_err(|e| format!("current kernels: {e}"))?;
    let identity = |row: &Json| -> Option<(String, String, u64)> {
        Some((
            row.get("group")?.as_str()?.to_string(),
            row.get("kernel")?.as_str()?.to_string(),
            row.get("n")?.as_f64()? as u64,
        ))
    };
    let mut findings = Vec::new();
    for row in base.get("kernels").map_or(&[][..], Json::items) {
        let Some(key) = identity(row) else { continue };
        let Some(base_ns) = row.get("ns_per_call").and_then(Json::as_f64) else {
            continue;
        };
        let label = format!("kernels[{}/{}/n={}].ns_per_call", key.0, key.1, key.2);
        let cur_ns = cur
            .get("kernels")
            .map_or(&[][..], Json::items)
            .iter()
            .find(|r| identity(r).as_ref() == Some(&key))
            .and_then(|r| r.get("ns_per_call"))
            .and_then(Json::as_f64);
        match cur_ns {
            Some(cur_ns) => findings.push(Finding::ratio(
                label,
                base_ns,
                cur_ns,
                format!("<= {KERNEL_NS_MAX_RATIO}x baseline"),
                cur_ns <= base_ns * KERNEL_NS_MAX_RATIO,
            )),
            None => findings.push(Finding::ratio(
                label,
                base_ns,
                f64::NAN,
                "row present".into(),
                false,
            )),
        }
    }
    Ok(findings)
}

/// Diffs two `BENCH_backends.json` documents over every baseline run
/// (matched on `domain`/`index`/`backend`): the run must still be there,
/// a converged run must stay converged, and neither its `iterations` nor
/// its `pcg_iters` may rise at all. The counts are deterministic, so any
/// rise comes from a change to an algorithm, not from noise.
///
/// # Errors
///
/// Returns parse errors for either document.
pub fn diff_backends(baseline: &str, current: &str) -> Result<Vec<Finding>, String> {
    let base = Json::parse(baseline).map_err(|e| format!("baseline backends: {e}"))?;
    let cur = Json::parse(current).map_err(|e| format!("current backends: {e}"))?;
    let identity = |run: &Json| -> Option<(String, u64, String)> {
        Some((
            run.get("domain")?.as_str()?.to_string(),
            run.get("index")?.as_f64()? as u64,
            run.get("backend")?.as_str()?.to_string(),
        ))
    };
    let converged = |run: &Json| matches!(run.get("converged"), Some(Json::Bool(true)));
    let mut findings = Vec::new();
    for run in base.get("runs").map_or(&[][..], Json::items) {
        let Some(key) = identity(run) else { continue };
        let label = format!("backends[{}/{}/{}]", key.0, key.1, key.2);
        let Some(cur_run) = cur
            .get("runs")
            .map_or(&[][..], Json::items)
            .iter()
            .find(|r| identity(r).as_ref() == Some(&key))
        else {
            findings.push(Finding::ratio(
                label,
                f64::NAN,
                f64::NAN,
                "row present".into(),
                false,
            ));
            continue;
        };
        if converged(run) {
            let still = converged(cur_run);
            findings.push(Finding::ratio(
                format!("{label}.converged"),
                1.0,
                if still { 1.0 } else { 0.0 },
                "stays converged".into(),
                still,
            ));
        }
        for count in ["iterations", "pcg_iters"] {
            let Some(base_count) = run.get(count).and_then(Json::as_f64) else {
                continue;
            };
            let cur_count = cur_run
                .get(count)
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            findings.push(Finding::ratio(
                format!("{label}.{count}"),
                base_count,
                cur_count,
                "<= baseline".into(),
                cur_count <= base_count,
            ));
        }
    }
    Ok(findings)
}

/// Diffs two `BENCH_verify.json` documents. Every baseline run (matched
/// on `program`) must still be there, a run whose prediction agreed with
/// the simulator must still agree, no run may stall, and `slots` and
/// `predicted_cycles` may not rise at all: the counts are exact, so any
/// rise is a change to the compiler or the cycle model. Document-wide,
/// `agreement` must equal `programs` and `forced_appends` may not rise.
/// Wall-clock fields are not compared.
///
/// # Errors
///
/// Returns parse errors for either document.
pub fn diff_verify(baseline: &str, current: &str) -> Result<Vec<Finding>, String> {
    let base = Json::parse(baseline).map_err(|e| format!("baseline verify: {e}"))?;
    let cur = Json::parse(current).map_err(|e| format!("current verify: {e}"))?;
    let program = |run: &Json| {
        run.get("program")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let count = |doc: &Json, field: &str| doc.get(field).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let agrees = |run: &Json| matches!(run.get("agree"), Some(Json::Bool(true)));
    let mut findings = Vec::new();
    for run in base.get("runs").map_or(&[][..], Json::items) {
        let Some(key) = program(run) else { continue };
        let label = format!("verify[{key}]");
        let Some(cur_run) = cur
            .get("runs")
            .map_or(&[][..], Json::items)
            .iter()
            .find(|r| program(r).as_ref() == Some(&key))
        else {
            findings.push(Finding::ratio(
                label,
                f64::NAN,
                f64::NAN,
                "row present".into(),
                false,
            ));
            continue;
        };
        if agrees(run) {
            let still = agrees(cur_run);
            findings.push(Finding::ratio(
                format!("{label}.agree"),
                1.0,
                if still { 1.0 } else { 0.0 },
                "stays in agreement".into(),
                still,
            ));
        }
        let stalls = count(cur_run, "stall_cycles");
        findings.push(Finding::ratio(
            format!("{label}.stall_cycles"),
            count(run, "stall_cycles"),
            stalls,
            "== 0".into(),
            stalls == 0.0,
        ));
        for field in ["slots", "predicted_cycles"] {
            let (was, now) = (count(run, field), count(cur_run, field));
            findings.push(Finding::ratio(
                format!("{label}.{field}"),
                was,
                now,
                "<= baseline".into(),
                now <= was,
            ));
        }
    }
    let (programs, agreement) = (count(&cur, "programs"), count(&cur, "agreement"));
    findings.push(Finding::ratio(
        "verify.agreement".into(),
        count(&base, "agreement"),
        agreement,
        format!(">= programs ({programs})"),
        agreement >= programs,
    ));
    let (was, now) = (
        count(&base, "forced_appends"),
        count(&cur, "forced_appends"),
    );
    findings.push(Finding::ratio(
        "verify.forced_appends".into(),
        was,
        now,
        "<= baseline".into(),
        now <= was,
    ));
    Ok(findings)
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
        let findings = diff_serve(SERVE, SERVE).expect("diff runs");
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
        assert!(diff_serve(SERVE, &slower)
            .expect("diff runs")
            .iter()
            .all(|f| f.ok));
        // 50% slower: regression.
        let halved = with(
            SERVE,
            "\"throughput_rps\": 4000.0",
            "\"throughput_rps\": 2000.0",
        );
        let findings = diff_serve(SERVE, &halved).expect("diff runs");
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
        let findings = diff_serve(&bad, &bad).expect("diff runs");
        assert!(findings
            .iter()
            .any(|f| !f.ok && f.metric.contains("obs_overhead_pct")));
        // Dropping the metric entirely fails too.
        let missing = with(SERVE, "\"obs_overhead_pct\": 1.5,\n         ", "");
        let findings = diff_serve(SERVE, &missing).expect("diff runs");
        assert!(findings
            .iter()
            .any(|f| !f.ok && f.metric.contains("obs_overhead_pct")));
    }

    #[test]
    fn missing_run_and_kernel_rows_fail() {
        let open_only =
            r#"{"bench": "serve", "runs": [{"mode": "net-open", "throughput_rps": 2800.0}]}"#;
        let findings = diff_serve(SERVE, open_only).expect("diff runs");
        assert!(findings
            .iter()
            .any(|f| !f.ok && f.metric == "serve[net-closed]"));

        let kernels = r#"{"kernels": [{"group": "vector", "kernel": "dot", "n": 1000, "ns_per_call": 150.0}]}"#;
        let empty = r#"{"kernels": []}"#;
        let findings = diff_kernels(kernels, empty).expect("diff runs");
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].ok);
    }

    #[test]
    fn kernel_slowdowns_respect_the_ratio() {
        let kernels = r#"{"kernels": [{"group": "vector", "kernel": "dot", "n": 1000, "ns_per_call": 150.0}]}"#;
        let doubled = kernels.replace("150.0", "300.0");
        assert!(diff_kernels(kernels, &doubled)
            .expect("diff runs")
            .iter()
            .all(|f| f.ok));
        let tripled = kernels.replace("150.0", "450.0");
        assert!(diff_kernels(kernels, &tripled)
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
            let findings = diff_backends(backends, current).expect("diff runs");
            assert_eq!(findings.len(), 5);
            assert!(findings.iter().all(|f| f.ok), "{findings:?}");
        }
        let failing = |current: &str, metric: &str| {
            let findings = diff_backends(backends, current).expect("diff runs");
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
            let findings = diff_verify(verify, current).expect("diff runs");
            assert_eq!(findings.len(), 10);
            assert!(findings.iter().all(|f| f.ok), "{findings:?}");
        }
        let failing = |current: &str, metric: &str| {
            let findings = diff_verify(verify, current).expect("diff runs");
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
