//! Static certification and exact-timing sweep over the benchmark suite.
//!
//! Lowers every sampled instance of the five application domains for both
//! KKT variants, runs the `mib-verify` static verifier over each compiled
//! program (load / setup / iteration / pcg / check), and differentially
//! checks the static timing predictor: `timing::predict` must reproduce
//! `Machine::run_with_timeline` **bitwise** — total cycles, every
//! `ExecStats` counter, and the per-kind issue/stall timeline buckets.
//! Prints one certificate line per program and exits non-zero if any
//! program carries an error-severity finding, any prediction disagrees
//! with the simulator, or total forced appends regress above the
//! committed baseline — this is the gate `scripts/verify_schedules.sh`
//! enforces.
//!
//! Modes:
//! - default: three-instance sample per domain (the 120-program suite);
//! - `--full` / `MIB_VERIFY_FULL=1`: all 20 instances per domain;
//! - `--smoke`: one instance per domain (the `scripts/check.sh` timing
//!   gate), each program's slots, predicted cycles and stall cycles held
//!   to the row of the same label in the committed
//!   `results/BENCH_verify.json` — any difference fails, so a change that
//!   moves the cycle model must regenerate that file with `--timing`;
//! - `--timing`: additionally rewrite `results/BENCH_verify.json` with
//!   per-program predicted cycles, lower bound
//!   ([`mib_compiler::lower_bound`]) and gap (cycles above the bound), the
//!   agreement tally, and the analysis-vs-simulation wall-clock speedup
//!   (skipped under `--smoke`, which only gates).
//!
//! Every mode also fails if a program runs in fewer cycles than its lower
//! bound.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mib_bench::eval_settings;
use mib_compiler::lower::lower;
use mib_compiler::verify_schedule;
use mib_core::hbm::HbmStream;
use mib_core::machine::{HazardPolicy, Machine};
use mib_core::MibConfig;
use mib_problems::{instance, Domain, INSTANCES_PER_DOMAIN};
use mib_qp::KktBackend;
use mib_trace::json::{write_f64, Json};
use mib_verify::timing;

/// Committed baseline: total scheduler give-ups (instructions appended
/// because the placement probe limit was exhausted) across the default
/// three-instance sample. The first-fit packer currently places every
/// logical instruction within the probe limit; a count above this means
/// schedule quality regressed and the sweep fails.
const FORCED_APPENDS_BASELINE: usize = 0;

/// The committed timing record `--timing` writes and `--smoke` gates on.
const TIMING_BASELINE: &str = "results/BENCH_verify.json";

/// One certified program's timing record (for the JSON report).
struct Row {
    label: String,
    slots: u64,
    predicted_cycles: u64,
    stall_cycles: u64,
    /// No packing of the program's instructions runs faster.
    lower_bound: u64,
    agree: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full") || std::env::var_os("MIB_VERIFY_FULL").is_some();
    let smoke = args.iter().any(|a| a == "--smoke");
    let timing_report = args.iter().any(|a| a == "--timing");
    let indices: Vec<usize> = if smoke {
        vec![0]
    } else if full {
        (0..INSTANCES_PER_DOMAIN).collect()
    } else {
        vec![0, 9, INSTANCES_PER_DOMAIN - 1]
    };
    let config = MibConfig::c32();

    let mut programs = 0usize;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut forced_appends = 0usize;
    let mut disagreements = 0usize;
    let mut unbounded = 0usize;
    let mut analysis_time = Duration::ZERO;
    let mut sim_time = Duration::ZERO;
    let mut machine = Machine::new(config);
    let mut rows: Vec<Row> = Vec::new();

    println!("== Static schedule certification (C = {}) ==", config.width);
    for domain in Domain::all() {
        for &index in &indices {
            let inst = instance(domain, index);
            for backend in [KktBackend::Direct, KktBackend::Indirect] {
                let settings = eval_settings(backend);
                let lowered =
                    lower(&inst.problem, &settings, config).expect("benchmark instance lowers");
                let schedules = [
                    ("load", &lowered.load),
                    ("setup", &lowered.setup),
                    ("iteration", &lowered.iteration),
                    ("pcg", &lowered.pcg_iteration),
                    ("check", &lowered.check),
                ];
                for (name, s) in schedules {
                    if s.program.is_empty() {
                        continue;
                    }
                    let label = format!("{domain}[{index}]/{backend:?}/{name}");
                    let report = verify_schedule(&label, s, &config);
                    let cert = report.certificate();
                    programs += 1;
                    warnings += cert.warnings;
                    forced_appends += s.forced_appends;
                    if cert.errors > 0 {
                        errors += cert.errors;
                        println!("{report}");
                    } else {
                        println!("{cert}");
                    }

                    // Differential timing check: the static predictor must
                    // reproduce the simulator bitwise — stats AND timeline.
                    // Each side is timed on the program alone: one machine
                    // serves every run (register values move no count
                    // compared here) and the stream is built before the
                    // clock starts.
                    let t0 = Instant::now();
                    let predicted =
                        timing::predict(&s.program, s.hbm.len(), &config, HazardPolicy::Strict);
                    analysis_time += t0.elapsed();
                    let mut hbm = HbmStream::new(s.hbm.clone());
                    let t1 = Instant::now();
                    let simulated =
                        machine.run_with_timeline(&s.program, &mut hbm, HazardPolicy::Strict);
                    sim_time += t1.elapsed();
                    let (agree, slots, cycles, stalls) = match (&predicted, &simulated) {
                        (Ok(p), Ok((stats, tl))) => (
                            p.stats == *stats && p.timeline == *tl,
                            p.stats.slots,
                            p.stats.cycles,
                            p.stats.stall_cycles,
                        ),
                        _ => (false, 0, 0, 0),
                    };
                    if !agree {
                        disagreements += 1;
                        println!(
                            "TIMING DISAGREEMENT {label}: predicted {predicted:?} vs simulated {simulated:?}"
                        );
                    }
                    let lower_bound = mib_compiler::lower_bound(s, &config);
                    if lower_bound > cycles {
                        unbounded += 1;
                        println!("BOUND ABOVE CYCLES {label}: {lower_bound} > {cycles}");
                    }
                    rows.push(Row {
                        label,
                        slots,
                        predicted_cycles: cycles,
                        stall_cycles: stalls,
                        lower_bound,
                        agree,
                    });
                }
            }
        }
    }

    #[allow(clippy::cast_precision_loss)]
    let speedup = sim_time.as_secs_f64() / analysis_time.as_secs_f64().max(1e-12);
    println!(
        "\n{programs} programs verified: {errors} errors, {warnings} warnings, \
         {forced_appends} forced appends (baseline {FORCED_APPENDS_BASELINE}), \
         timing agreement {}/{programs} ({speedup:.1}x analysis speedup)",
        programs - disagreements
    );

    if timing_report && !smoke {
        let mode = if full { "full" } else { "sample" };
        let mut json = String::from("{\"bench\":\"verify\",");
        let _ = write!(
            json,
            "\"mode\":\"{mode}\",\"width\":{},\"programs\":{programs},\
             \"agreement\":{},\"forced_appends\":{forced_appends},\
             \"analysis_us\":{},\"simulation_us\":{},\"speedup\":",
            config.width,
            programs - disagreements,
            analysis_time.as_micros(),
            sim_time.as_micros(),
        );
        write_f64(&mut json, speedup);
        json.push_str(",\"runs\":[");
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"program\":\"{}\",\"slots\":{},\"predicted_cycles\":{},\
                 \"stall_cycles\":{},\"agree\":{},\"lower_bound\":{},\"gap\":{}}}",
                r.label,
                r.slots,
                r.predicted_cycles,
                r.stall_cycles,
                r.agree,
                r.lower_bound,
                r.predicted_cycles.saturating_sub(r.lower_bound)
            );
        }
        json.push_str("]}");
        mib_trace::validate_json(&json).expect("verify report must be valid JSON");
        let dir = std::path::Path::new("results");
        if std::fs::create_dir_all(dir).is_ok() {
            if let Err(e) = std::fs::write(TIMING_BASELINE, &json) {
                eprintln!("warning: could not write {TIMING_BASELINE}: {e}");
            } else {
                eprintln!("(written to {TIMING_BASELINE})");
            }
        }
    }

    let mut failed = false;
    if smoke {
        let drift = match std::fs::read_to_string(TIMING_BASELINE)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
        {
            Ok(baseline) => baseline_drift(&rows, &baseline),
            Err(e) => vec![format!("cannot read {TIMING_BASELINE}: {e}")],
        };
        for d in &drift {
            println!("TIMING DRIFT {d}");
        }
        if !drift.is_empty() {
            println!(
                "FAIL: {} programs differ from {TIMING_BASELINE} (regenerate it with --timing if the cycle model moved on purpose)",
                drift.len()
            );
            failed = true;
        }
    }
    if errors > 0 {
        println!("FAIL: error-severity findings present");
        failed = true;
    }
    if disagreements > 0 {
        println!("FAIL: static timing prediction disagrees with the simulator");
        failed = true;
    }
    if unbounded > 0 {
        println!("FAIL: {unbounded} programs run in fewer cycles than their lower bound");
        failed = true;
    }
    if forced_appends > FORCED_APPENDS_BASELINE {
        println!(
            "FAIL: forced appends regressed ({forced_appends} > baseline {FORCED_APPENDS_BASELINE})"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK: every schedule certified and timed exactly");
}

/// Each of `rows` whose slots, predicted cycles or stall cycles differ
/// from the `runs[]` row of the same label in `baseline`, or that has no
/// such row, as one line naming the differences.
fn baseline_drift(rows: &[Row], baseline: &Json) -> Vec<String> {
    let runs = baseline.get("runs").map_or(&[][..], Json::items);
    rows.iter()
        .filter_map(|row| {
            let Some(base) = runs
                .iter()
                .find(|b| b.get("program").and_then(Json::as_str) == Some(row.label.as_str()))
            else {
                return Some(format!("{}: no committed row", row.label));
            };
            let diffs: Vec<String> = [
                ("slots", row.slots),
                ("predicted_cycles", row.predicted_cycles),
                ("stall_cycles", row.stall_cycles),
            ]
            .into_iter()
            .filter_map(|(key, ours)| {
                let committed = base.get(key).and_then(Json::as_f64);
                let same = committed == Some(ours as f64);
                (!same).then(|| format!("{key} {ours}, committed {committed:?}"))
            })
            .collect();
            (!diffs.is_empty()).then(|| format!("{}: {}", row.label, diffs.join(", ")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str, slots: u64, predicted_cycles: u64) -> Row {
        Row {
            label: label.into(),
            slots,
            predicted_cycles,
            stall_cycles: 0,
            lower_bound: 0,
            agree: true,
        }
    }

    #[test]
    fn drift_names_every_moved_or_missing_program() {
        let baseline = Json::parse(
            r#"{"runs":[{"program":"a/load","slots":10,"predicted_cycles":17,"stall_cycles":0},
                        {"program":"a/setup","slots":398,"predicted_cycles":405,"stall_cycles":0}]}"#,
        )
        .unwrap();
        let same = [row("a/load", 10, 17), row("a/setup", 398, 405)];
        assert!(baseline_drift(&same, &baseline).is_empty());
        let moved = [row("a/load", 10, 18), row("a/check", 5, 12)];
        assert_eq!(
            baseline_drift(&moved, &baseline),
            vec![
                "a/load: predicted_cycles 18, committed Some(17.0)".to_string(),
                "a/check: no committed row".to_string(),
            ]
        );
    }
}
