//! Benchmark regression detection: diffs the committed benchmark
//! documents (`results/BENCH_serve.json`, `results/BENCH_kernels.json`)
//! against a baseline revision of the same files, with per-metric
//! tolerances tuned for the noisy single-core runners this repository
//! measures on.
//!
//! The comparison is structural, not textual: a tiny recursive-descent
//! JSON parser (no serde in the dependency tree) loads both documents,
//! matched entries are located by their identity keys (`mode` for serve
//! runs; `group`/`kernel`/`n` for kernel rows), and each tracked
//! metric is checked against its tolerance. An entry present in the
//! baseline but missing from the current document is itself a failure —
//! losing coverage must not pass silently.

use std::fmt::Write as _;

/// Serve-run throughput may drop to this fraction of baseline before it
/// counts as a regression (closed/open-loop rates on a shared single
/// core jitter by tens of percent run to run).
pub const SERVE_THROUGHPUT_MIN_RATIO: f64 = 0.65;

/// Serve-run service-time p50 may grow by this factor before it counts
/// as a regression. The p50 is a log₂ bucket upper bound, so 4.0 allows
/// two buckets of drift.
pub const SERVE_SERVICE_P50_MAX_RATIO: f64 = 4.0;

/// Absolute ceiling on `obs_overhead_pct` wherever it is recorded: the
/// observability plane must stay under 5% of closed-loop throughput
/// regardless of what the baseline measured.
pub const OBS_OVERHEAD_MAX_PCT: f64 = 5.0;

/// Kernel `ns_per_call` may grow by this factor before it counts as a
/// regression.
pub const KERNEL_NS_MAX_RATIO: f64 = 2.5;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input or
    /// trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value (`None` for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements (empty slice for non-arrays).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match c {
        b'{' => parse_object(bytes, pos),
        b'[' => parse_array(bytes, pos),
        b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(format!("unexpected byte {other:#04x} at {pos}", pos = *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("invalid \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogate pairs do not occur in these documents;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("invalid escape {other:#04x}")),
                }
            }
            _ => {
                // Collect the full UTF-8 sequence starting at c.
                let width = utf8_width(c);
                let start = *pos - 1;
                *pos = start + width;
                let chunk = bytes
                    .get(start..*pos)
                    .and_then(|b| std::str::from_utf8(b).ok())
                    .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(chunk);
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

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
}
