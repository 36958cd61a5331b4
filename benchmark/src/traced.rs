//! The traced run of a serial workload: an untraced phase, then the same
//! op list again with the harness recording spans, so that the difference
//! between the two is what tracing cost.

use std::time::Instant;

use crate::harness::{quiet_summary, run_rounds, Noise, RunOpts, Samples, SerialWorkload};
use crate::metrics::Report;
use crate::procfs;
use crate::spans::{self, Recorder};

/// Share of the measured time the untraced phase gets.
pub const PLAIN_SHARE: f64 = 0.25;
/// Share of the measured time the traced phase gets (the rest is left to
/// the direct layer probes).
pub const TRACED_SHARE: f64 = 0.4;
/// Spans per thread written to the trace file.
const TRACE_FILE_SPANS: usize = 20_000;

/// Replays `w` untraced then traced; writes the `bench.*` metrics and the
/// trace file, prints the span table, and returns the recorded spans.
pub fn replay(
    w: &mut impl SerialWorkload,
    limit_us: f64,
    opts: &RunOpts,
    name: &str,
    report: &mut Report,
) -> Recorder {
    let steal = procfs::steal_ticks();
    let mut plain = Samples::new(w.ops(), limit_us, opts.seed);
    run_rounds(
        w,
        &mut plain,
        opts.budget(PLAIN_SHARE),
        &mut Recorder::disabled(),
    );
    let noise = Noise::of(&plain, steal);

    let mut recorder = Recorder::enabled(Instant::now(), 1 << 20, 0);
    let mut traced = Samples::new(w.ops(), limit_us, opts.seed);
    run_rounds(w, &mut traced, opts.budget(TRACED_SHARE), &mut recorder);

    noise.write(report);
    let plain_rate = quiet_summary(plain.quiet_op_us()).ops_per_s;
    let traced_rate = quiet_summary(traced.quiet_op_us()).ops_per_s;
    finish(
        report,
        name,
        &[&recorder],
        plain_rate,
        traced_rate,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    recorder
}

/// The part of a traced run every workload ends its replay with.
pub fn finish(
    report: &mut Report,
    name: &str,
    recorders: &[&Recorder],
    plain_rate: f64,
    traced_rate: f64,
    attempted: u64,
    failed: u64,
) {
    report.set(
        "bench.trace_overhead_pct",
        100.0 * (plain_rate - traced_rate) / plain_rate,
    );
    report.attempted = attempted;
    report.failed = failed;
    report.set(
        "bench.ok_share",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    eprint!("{}", spans::render_table(recorders));
    let path = format!("benchmark/out/{name}.trace.json");
    let written = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, spans::chrome_json(recorders, TRACE_FILE_SPANS)));
    match written {
        Ok(()) => eprintln!("(trace written to {path})"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
