//! Benchmark regression gate.
//!
//! Compares the current benchmark documents against baseline copies
//! (normally the versions committed at `HEAD`, extracted by
//! `scripts/bench_diff.sh`) and exits non-zero when any tracked metric
//! regresses past its tolerance — see `mib_bench::diff` for the rules.
//!
//! ```text
//! bench_diff --baseline-serve OLD.json [--current-serve NEW.json]
//!            --baseline-kernels OLD.json [--current-kernels NEW.json]
//!            --baseline-backends OLD.json [--current-backends NEW.json]
//!            --baseline-verify OLD.json [--current-verify NEW.json]
//! ```
//!
//! At least one `--baseline-*` must be given; a current path defaults to
//! the live document under `results/`. Exit codes: 0 = pass, 1 =
//! regression, 2 = unreadable/malformed input or bad usage.

use std::process::ExitCode;

use mib_bench::diff::{
    diff_backends, diff_kernels, diff_serve, diff_verify, render_findings, Finding,
};

fn read(path: &str, what: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {what} {path}: {e}"))
}

fn run() -> Result<Vec<Finding>, String> {
    let mut args = std::env::args().skip(1);
    let mut baseline_serve = None;
    let mut baseline_kernels = None;
    let mut baseline_backends = None;
    let mut baseline_verify = None;
    let mut current_serve = "results/BENCH_serve.json".to_string();
    let mut current_kernels = "results/BENCH_kernels.json".to_string();
    let mut current_backends = "results/BENCH_backends.json".to_string();
    let mut current_verify = "results/BENCH_verify.json".to_string();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a path"));
        match arg.as_str() {
            "--baseline-serve" => baseline_serve = Some(value("--baseline-serve")?),
            "--baseline-kernels" => baseline_kernels = Some(value("--baseline-kernels")?),
            "--baseline-backends" => baseline_backends = Some(value("--baseline-backends")?),
            "--baseline-verify" => baseline_verify = Some(value("--baseline-verify")?),
            "--current-serve" => current_serve = value("--current-serve")?,
            "--current-kernels" => current_kernels = value("--current-kernels")?,
            "--current-backends" => current_backends = value("--current-backends")?,
            "--current-verify" => current_verify = value("--current-verify")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if baseline_serve.is_none()
        && baseline_kernels.is_none()
        && baseline_backends.is_none()
        && baseline_verify.is_none()
    {
        return Err("need at least one --baseline-serve, --baseline-kernels, \
                    --baseline-backends or --baseline-verify"
            .into());
    }

    let mut findings = Vec::new();
    if let Some(base) = baseline_serve {
        let base = read(&base, "baseline serve")?;
        let cur = read(&current_serve, "current serve")?;
        findings.extend(diff_serve(&base, &cur)?);
    }
    if let Some(base) = baseline_kernels {
        let base = read(&base, "baseline kernels")?;
        let cur = read(&current_kernels, "current kernels")?;
        findings.extend(diff_kernels(&base, &cur)?);
    }
    if let Some(base) = baseline_backends {
        let base = read(&base, "baseline backends")?;
        let cur = read(&current_backends, "current backends")?;
        findings.extend(diff_backends(&base, &cur)?);
    }
    if let Some(base) = baseline_verify {
        let base = read(&base, "baseline verify")?;
        let cur = read(&current_verify, "current verify")?;
        findings.extend(diff_verify(&base, &cur)?);
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
