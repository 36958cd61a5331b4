//! Static certification and exact-timing sweep over the benchmark suite.
//!
//! Lowers every sampled instance of the five application domains for both
//! KKT variants and predicts each compiled program (load / setup /
//! iteration / pcg / check) with `timing::predict` under the strict hazard
//! policy: a program is certified when that prediction is `Ok`. The same
//! prediction is checked differentially against the simulator: it must
//! reproduce `Machine::run` **bitwise** — total cycles and every
//! `ExecStats` counter.
//! Exits non-zero if any program is rejected, any prediction disagrees
//! with the simulator, or total forced appends regress above the
//! committed baseline — this is the gate `scripts/verify_schedules.sh`
//! enforces.
//!
//! Modes:
//! - default: three-instance sample per domain (the 120-program suite);
//! - `--full`: all 20 instances per domain;
//! - `--smoke`: one instance per domain (the `scripts/check.sh` timing
//!   gate), each program's slots, predicted cycles and stall cycles held
//!   to the row of the same label in the committed
//!   `results/BENCH_verify.json` by `mib_bench::diff` with the equal rule
//!   — any difference or missing row fails, so a change that moves the
//!   cycle model must regenerate that file with `--timing`;
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

use mib_bench::diff::{diff, Field, Finding, Rule, Spec, BENCH_VERIFY};
use mib_bench::eval_settings;
use mib_compiler::lower::lower;
use mib_core::hbm::HbmStream;
use mib_core::machine::{HazardPolicy, Machine};
use mib_core::MibConfig;
use mib_problems::{instance, Domain, INSTANCES_PER_DOMAIN};
use mib_qp::KktBackend;
use mib_trace::json::write_f64;
use mib_verify::timing;

/// Committed baseline: total scheduler give-ups (instructions appended
/// because the placement probe limit was exhausted) across the default
/// three-instance sample. The first-fit packer currently places every
/// logical instruction within the probe limit; a count above this means
/// schedule quality regressed and the sweep fails.
const FORCED_APPENDS_BASELINE: usize = 0;

/// The committed timing record `--timing` writes and `--smoke` gates on.
const TIMING_BASELINE: &str = "results/BENCH_verify.json";

/// The `--smoke` gate: every program this run computed has a committed
/// row of the same label with equal slots, predicted cycles and stall
/// cycles.
const DRIFT: Spec = Spec {
    fields: &[
        (Field::Key("slots"), Rule::Equal),
        (Field::Key("predicted_cycles"), Rule::Equal),
        (Field::Key("stall_cycles"), Rule::Equal),
    ],
    totals: &[],
    ..BENCH_VERIFY
};

/// One program's timing record (for the JSON report).
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
    let full = args.iter().any(|a| a == "--full");
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
    let mut rejected = 0usize;
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
                    programs += 1;
                    forced_appends += s.forced_appends;

                    // Certification is the strict prediction's verdict;
                    // differentially, the prediction must reproduce the
                    // simulator's stats bitwise.
                    // Each side is timed on the program alone: one machine
                    // serves every run (register values move no count
                    // compared here) and the stream is built before the
                    // clock starts.
                    let t0 = Instant::now();
                    let predicted =
                        timing::predict(&s.program, s.hbm.len(), &config, HazardPolicy::Strict);
                    analysis_time += t0.elapsed();
                    if let Err(e) = &predicted {
                        rejected += 1;
                        println!("REJECTED {label}: {e}");
                    }
                    let mut hbm = HbmStream::new(s.hbm.clone());
                    let t1 = Instant::now();
                    let simulated = machine.run(&s.program, &mut hbm, HazardPolicy::Strict);
                    sim_time += t1.elapsed();
                    let (agree, slots, cycles, stalls) = match (&predicted, &simulated) {
                        (Ok(p), Ok(stats)) => (
                            p.stats == *stats,
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
        "{programs} programs: {rejected} rejected, \
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
        json.push(',');
        write_runs(&mut json, &rows);
        json.push('}');
        mib_bench::publish("BENCH_verify.json", &json);
    }

    let mut failed = false;
    if smoke {
        let moved = std::fs::read_to_string(TIMING_BASELINE)
            .map_err(|e| format!("cannot read {TIMING_BASELINE}: {e}"))
            .and_then(|committed| drift(&rows, &committed))
            .unwrap_or_else(|e| {
                println!("TIMING DRIFT {e}");
                failed = true;
                Vec::new()
            });
        for f in &moved {
            if f.baseline.is_nan() {
                println!("TIMING DRIFT {}: no committed row", f.metric);
            } else {
                let (here, committed) = (f.baseline, f.current);
                println!(
                    "TIMING DRIFT {}: {here} here, {committed} committed",
                    f.metric
                );
            }
        }
        if !moved.is_empty() {
            println!(
                "FAIL: {} values differ from {TIMING_BASELINE} (regenerate it with --timing if the cycle model moved on purpose)",
                moved.len()
            );
            failed = true;
        }
    }
    if rejected > 0 {
        println!("FAIL: {rejected} programs rejected under the strict hazard policy");
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

/// Appends `"runs":[...]`, one object per program.
fn write_runs(json: &mut String, rows: &[Row]) {
    json.push_str("\"runs\":[");
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
    json.push(']');
}

/// The failed findings of the [`DRIFT`] comparison of `rows` against the
/// `committed` document. The rows stand as the baseline, so a program
/// missing from `committed` is a lost row.
fn drift(rows: &[Row], committed: &str) -> Result<Vec<Finding>, String> {
    let mut json = String::from("{");
    write_runs(&mut json, rows);
    json.push('}');
    let findings = diff(&DRIFT, &json, committed)?;
    Ok(findings.into_iter().filter(|f| !f.ok).collect())
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
        let committed = r#"{"runs":[{"program":"a/load","slots":10,"predicted_cycles":17,"stall_cycles":0},
                        {"program":"a/setup","slots":398,"predicted_cycles":405,"stall_cycles":0}]}"#;
        let moved_values = |rows: &[Row]| -> Vec<(String, f64, f64)> {
            drift(rows, committed)
                .unwrap()
                .into_iter()
                .map(|f| (f.metric, f.baseline, f.current))
                .collect()
        };
        let same = [row("a/load", 10, 17), row("a/setup", 398, 405)];
        assert!(moved_values(&same).is_empty());
        // A fall is drift too: the committed file must be regenerated.
        let moved = moved_values(&[
            row("a/load", 10, 18),
            row("a/check", 5, 12),
            row("a/setup", 397, 405),
        ]);
        assert_eq!(moved.len(), 3, "{moved:?}");
        assert_eq!(
            (moved[0].0.as_str(), moved[0].1, moved[0].2),
            ("verify[a/load].predicted_cycles", 18.0, 17.0)
        );
        assert_eq!(moved[1].0, "verify[a/check]");
        assert_eq!(
            (moved[2].0.as_str(), moved[2].1, moved[2].2),
            ("verify[a/setup].slots", 397.0, 398.0)
        );
    }
}
