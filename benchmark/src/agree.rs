//! `--agree <dir>`: do two interleaved sets of runs of the same build
//! agree within the benchmark's own bounds?
//!
//! `agree.sh` leaves one result line per run in `<dir>/<set><k>_<workload>.json`
//! (sets `A` and `B`). For every cell — workload × end-to-end metric —
//! this takes each set's median, prints how much worse the worse set is
//! against the metric's bound from `BENCHMARK.json`, together with each
//! set's raw spread, and fails on any breach.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::metrics::{
    numbers_after, parse_result_line, section, strings_after, Better, END_TO_END,
};
use crate::stats;
use crate::WORKLOADS;

/// `(workload, metric) -> values`, one set.
type Cells = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &str) -> std::io::Result<(Cells, Cells)> {
    let (mut a, mut b) = (Cells::new(), Cells::new());
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Some((run, workload)) = stem.split_once('_') else {
            continue;
        };
        let set = match run.chars().next() {
            Some('A') => &mut a,
            Some('B') => &mut b,
            _ => continue,
        };
        let text = std::fs::read_to_string(&path)?;
        let Some(line) = text.lines().rev().find(|l| l.starts_with('{')) else {
            eprintln!("agree: no result line in {}", path.display());
            continue;
        };
        if !line.starts_with("{\"correct\": true") {
            eprintln!("agree: {} reports an incorrect run", path.display());
        }
        for (metric, value) in parse_result_line(line) {
            set.entry((workload.to_string(), metric))
                .or_default()
                .push(value);
        }
    }
    Ok((a, b))
}

/// How much worse `b` is than `a` as a share of `a` (negative if better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compares the two sets; prints the table; fails on a breach.
pub fn run(dir: &str) -> ExitCode {
    let manifest = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("agree: BENCHMARK.json (run from the repository root): {e}");
            return ExitCode::from(2);
        }
    };
    let e2e = section(&manifest, "end_to_end").unwrap_or_default();
    let bounds: BTreeMap<String, f64> = strings_after(e2e, "name")
        .into_iter()
        .zip(numbers_after(e2e, "bound"))
        .collect();
    let (a, b) = match load(dir) {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("agree: {dir}: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "| workload | metric | runs A/B | median A | median B | worse by | bound | spread A | \
         spread B | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut breaches = 0;
    for workload in WORKLOADS {
        for d in END_TO_END {
            let key = (workload.to_string(), d.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("| {workload} | {} | missing | | | | | | | FAIL |", d.name);
                breaches += 1;
                continue;
            };
            let (ma, mb) = (
                stats::median(&mut va.clone()),
                stats::median(&mut vb.clone()),
            );
            // Either set could have been the earlier one: the worse
            // direction counts.
            let worse = worse_by(ma, mb, d.better).max(worse_by(mb, ma, d.better));
            let bound = bounds.get(d.name).copied().unwrap_or(0.0);
            let ok = worse <= bound;
            breaches += usize::from(!ok);
            let spread = |v: &[f64]| {
                let mut v = v.to_vec();
                stats::sort(&mut v);
                format!(
                    "{:.4}..{:.4} ({:.1} %)",
                    v[0],
                    v[v.len() - 1],
                    100.0 * (v[v.len() - 1] - v[0]) / stats::percentile_sorted(&v, 0.5)
                )
            };
            println!(
                "| {workload} | {} ({}) | {}/{} | {ma:.4} | {mb:.4} | {:.2} % | {:.1} % | {} | {} | \
                 {} |",
                d.name,
                d.unit,
                va.len(),
                vb.len(),
                100.0 * worse,
                100.0 * bound,
                spread(va),
                spread(vb),
                if ok { "ok" } else { "BREACH" }
            );
        }
    }
    if breaches == 0 {
        println!("\nevery cell agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("\n{breaches} cells breach their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert_eq!(worse_by(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worse_by(100.0, 90.0, Better::Lower), -0.1);
        assert_eq!(worse_by(100.0, 90.0, Better::Higher), 0.1);
        assert_eq!(worse_by(100.0, 110.0, Better::Higher), -0.1);
    }
}
