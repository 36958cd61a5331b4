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
//!   gate);
//! - `--timing`: additionally rewrite `results/BENCH_verify.json` with
//!   per-program predicted cycles, the agreement tally, and the
//!   analysis-vs-simulation wall-clock speedup (skipped under
//!   `--smoke`, which only gates).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mib_bench::{eval_settings, json_f64};
use mib_compiler::lower::lower;
use mib_compiler::verify_schedule;
use mib_core::hbm::HbmStream;
use mib_core::machine::{HazardPolicy, Machine};
use mib_core::MibConfig;
use mib_problems::{instance, Domain, INSTANCES_PER_DOMAIN};
use mib_qp::KktBackend;
use mib_verify::timing;

/// Committed baseline: total scheduler give-ups (instructions appended
/// because the placement probe limit was exhausted) across the default
/// three-instance sample. The first-fit packer currently places every
/// logical instruction within the probe limit; a count above this means
/// schedule quality regressed and the sweep fails.
const FORCED_APPENDS_BASELINE: usize = 0;

/// One certified program's timing record (for the JSON report).
struct Row {
    label: String,
    slots: u64,
    predicted_cycles: u64,
    stall_cycles: u64,
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
    let mut analysis_time = Duration::ZERO;
    let mut sim_time = Duration::ZERO;
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
                    let t0 = Instant::now();
                    let predicted =
                        timing::predict(&s.program, s.hbm.len(), &config, HazardPolicy::Strict);
                    analysis_time += t0.elapsed();
                    let t1 = Instant::now();
                    let simulated = Machine::new(config).run_with_timeline(
                        &s.program,
                        &mut HbmStream::new(s.hbm.clone()),
                        HazardPolicy::Strict,
                    );
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
                    rows.push(Row {
                        label,
                        slots,
                        predicted_cycles: cycles,
                        stall_cycles: stalls,
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
             \"analysis_us\":{},\"simulation_us\":{},\"speedup\":{},\"runs\":[",
            config.width,
            programs - disagreements,
            analysis_time.as_micros(),
            sim_time.as_micros(),
            json_f64(speedup)
        );
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"program\":\"{}\",\"slots\":{},\"predicted_cycles\":{},\
                 \"stall_cycles\":{},\"agree\":{}}}",
                r.label, r.slots, r.predicted_cycles, r.stall_cycles, r.agree
            );
        }
        json.push_str("]}");
        mib_trace::validate_json(&json).expect("verify report must be valid JSON");
        let dir = std::path::Path::new("results");
        if std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join("BENCH_verify.json");
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("(written to {})", path.display());
            }
        }
    }

    let mut failed = false;
    if errors > 0 {
        println!("FAIL: error-severity findings present");
        failed = true;
    }
    if disagreements > 0 {
        println!("FAIL: static timing prediction disagrees with the simulator");
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
