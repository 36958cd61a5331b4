//! The repository's benchmark. See `benchmark/README.md`.

mod accel;
mod agree;
mod awake;
mod harness;
mod instances;
mod layers;
mod metrics;
mod procfs;
mod reference;
mod solve_cold;
mod solve_warm;
mod spans;
mod stats;
mod traced;
mod wire_closed;
mod wire_traced;

use std::process::ExitCode;

use harness::RunOpts;
use metrics::{END_TO_END, PER_LAYER};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["solve-warm", "solve-cold", "wire-closed", "accel"];

/// Measured seconds of a run when `--seconds` is not given
/// (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 28.0;

/// Environment knobs that change which code the libraries run; a number
/// measured under one of them is a number for another program.
const REFUSED_ENV: [&str; 3] = ["MIB_SIMD", "MIB_THREADS", "MIB_VERIFY"];

struct Args {
    workload: String,
    opts: RunOpts,
    trace: bool,
    agree: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        opts: RunOpts {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            smoke: false,
        },
        trace: false,
        agree: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--smoke" => args.opts.smoke = true,
            "--agree" => args.agree = Some(value("a directory")?),
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.agree.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.opts.seconds > 0.0 && args.opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mib-benchmark: {e}");
            eprintln!(
                "usage: mib-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] \
                 [--smoke]\n       mib-benchmark --agree <dir>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.agree {
        return agree::run(dir);
    }
    for name in REFUSED_ENV {
        if std::env::var_os(name).is_some() {
            eprintln!("mib-benchmark: refusing to measure with {name} set");
            return ExitCode::from(2);
        }
    }
    assert!(
        !mib_trace::enabled(),
        "library tracing must be off while the benchmark measures"
    );

    let opts = &args.opts;
    let report = match (args.workload.as_str(), args.trace) {
        ("solve-warm", false) => solve_warm::run(opts),
        ("solve-warm", true) => solve_warm::run_traced(opts),
        ("solve-cold", false) => solve_cold::run(opts),
        ("solve-cold", true) => solve_cold::run_traced(opts),
        ("wire-closed", false) => wire_closed::run(opts),
        ("wire-closed", true) => wire_traced::run_traced(opts),
        ("accel", false) => accel::run(opts),
        ("accel", true) => accel::run_traced(opts),
        _ => unreachable!("workload names were checked"),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    eprint!("{}", report.to_text(&args.workload, table));
    println!("{}", report.to_json(table));
    ExitCode::SUCCESS
}
