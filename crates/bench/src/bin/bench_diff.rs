//! Benchmark regression gate.
//!
//! ```text
//! bench_diff BASELINE_DIR
//! ```
//!
//! Compares every `BENCH_<name>.json` in `BASELINE_DIR` (normally the
//! copies committed at `HEAD`, extracted by `scripts/bench_diff.sh`) with
//! the live `results/BENCH_<name>.json`, under that document's spec in
//! `mib_bench::diff::DOCUMENTS`, and exits non-zero when any tracked
//! metric regresses past its tolerance. A baseline document with no spec
//! is an error, so every guarded document is listed in that one place.
//! Exit codes: 0 = pass, 1 = regression, 2 = unreadable/malformed input,
//! an unknown or no baseline document, or bad usage.

use std::path::Path;
use std::process::ExitCode;

use mib_bench::diff::{diff, render_findings, Finding, DOCUMENTS};

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn run() -> Result<Vec<Finding>, String> {
    let mut args = std::env::args().skip(1);
    let (Some(dir), None) = (args.next(), args.next()) else {
        return Err("usage: bench_diff BASELINE_DIR".into());
    };
    let dir = Path::new(&dir);
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut present = Vec::new();
    for entry in entries {
        let file = entry.map_err(|e| e.to_string())?.file_name();
        let file = file.to_string_lossy();
        let Some(name) = file
            .strip_prefix("BENCH_")
            .and_then(|f| f.strip_suffix(".json"))
        else {
            continue;
        };
        let Some(spec) = DOCUMENTS.iter().find(|spec| spec.name == name) else {
            let path = dir.join(&*file);
            return Err(format!(
                "{} has no spec in mib_bench::diff::DOCUMENTS",
                path.display()
            ));
        };
        present.push(spec.name);
    }
    if present.is_empty() {
        return Err(format!("no BENCH_*.json in {}", dir.display()));
    }

    let mut findings = Vec::new();
    for spec in DOCUMENTS.iter().filter(|spec| present.contains(&spec.name)) {
        let file = format!("BENCH_{}.json", spec.name);
        let base = read(&dir.join(&file))?;
        let cur = read(&Path::new("results").join(&file))?;
        findings.extend(diff(spec, &base, &cur)?);
    }
    Ok(findings)
}

fn main() -> ExitCode {
    match run() {
        Ok(findings) => {
            print!("{}", render_findings(&findings));
            if findings.iter().all(|f| f.ok) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("bench_diff: {msg}");
            ExitCode::from(2)
        }
    }
}
