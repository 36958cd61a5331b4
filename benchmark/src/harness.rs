//! The timing rule and the round driver shared by the workloads.
//!
//! A workload is a seeded, fixed list of distinct ops replayed in rounds.
//! Op *i* has the same inputs, does the same work and gives the same
//! answer in every round, so its per-round timings differ only by what the
//! machine did to them, and **op *i*'s time is their quiet time**
//! ([`stats::quiet_low`]: the low end of the shortest interval that holds
//! half of them). Percentiles are nearest-rank over the distinct ops'
//! times; single-threaded throughput is `N / Σ tᵢ`. Before the rule is
//! applied every timing is taken to the reference speed
//! ([`crate::reference`]): the machine's speed moves in steps that outlast
//! a run, which no reduction of the run's own timings can see.

use std::time::Instant;

use crate::metrics::Report;
use crate::procfs;
use crate::reference::{scale_between, Reference, INTERVAL_NS};
use crate::spans::Recorder;
use crate::stats;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Measured seconds of the run.
    pub seconds: f64,
    /// Three rounds, two set-ups, no time budget.
    pub smoke: bool,
}

impl RunOpts {
    /// In-process repetitions of set-up.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            7
        }
    }

    /// The budget for a phase that gets `share` of the measured time.
    pub fn budget(&self, share: f64) -> Budget {
        if self.smoke {
            Budget::Rounds(3)
        } else {
            Budget::Seconds(self.seconds * share)
        }
    }
}

/// How long a phase replays its op list.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole rounds until this much wall time is used up.
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(usize),
}

impl Budget {
    /// Whether another round should start.
    pub fn more(&self, started: Instant, rounds_done: usize) -> bool {
        match *self {
            Budget::Seconds(s) => rounds_done == 0 || started.elapsed().as_secs_f64() < s,
            Budget::Rounds(n) => rounds_done < n,
        }
    }
}

/// Runs `build` [`RunOpts::setup_reps`] times; returns the last state and
/// the quiet time of the builds, each at the reference speed, in seconds
/// (`setup_s`).
pub fn timed_setup<W>(opts: &RunOpts, mut build: impl FnMut() -> W) -> (W, f64) {
    let mut reference = Reference::new();
    let mut before = reference.time_rep_ns();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..opts.setup_reps() {
        // The previous state goes first: two live copies would double the
        // peak resident set.
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        let seconds = t.elapsed().as_secs_f64();
        let after = reference.time_rep_ns();
        times.push(seconds * scale_between(before, after));
        before = after;
    }
    (
        last.expect("at least one set-up"),
        stats::quiet_low(&mut times),
    )
}

/// What one timed op reports.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Time of the op's timed section.
    pub ns: u64,
    /// The part of `ns` spent waiting on a timer, which does not move
    /// with the machine's speed and is not taken to the reference speed
    /// (0 where the op only computes).
    pub timer_ns: u64,
    /// Whether the op succeeded and every check on it passed.
    pub ok: bool,
    /// Digest of everything of the answer that must repeat bitwise in
    /// every round.
    pub fingerprint: u64,
}

/// Per-op, per-round timings of one phase, preallocated and touched up
/// front so the peak resident set does not depend on how many rounds fit.
#[derive(Debug)]
pub struct Samples {
    ops: usize,
    ns: Vec<u32>,
    /// The factor that takes each timing of `ns` to the reference speed.
    scale: Vec<f32>,
    limit_ns: u64,
    seed: u64,
    /// Rounds completed.
    pub rounds: usize,
    /// Ops run.
    pub attempted: u64,
    /// Ops that failed or whose answer did not repeat.
    pub failed: u64,
    /// Raw attempts that were correct and within the limit.
    pub within_limit: u64,
    expected: Vec<Option<u64>>,
    round_ns: Vec<u64>,
    /// Every scale applied, one per bracket of ops.
    scales: Vec<f64>,
}

/// Rounds kept per op; later rounds overwrite the oldest.
const ROUND_CAP: usize = 512;

impl Samples {
    /// Buffers for `ops` distinct ops under the workload's fixed `limit_us`.
    pub fn new(ops: usize, limit_us: f64, seed: u64) -> Self {
        Samples {
            ops,
            ns: vec![u32::MAX; ops * ROUND_CAP],
            scale: vec![1.0; ops * ROUND_CAP],
            limit_ns: (limit_us * 1e3) as u64,
            seed,
            rounds: 0,
            attempted: 0,
            failed: 0,
            within_limit: 0,
            expected: vec![None; ops],
            round_ns: Vec::with_capacity(4096),
            scales: Vec::with_capacity(1 << 16),
        }
    }

    /// Notes the scale of a bracket of ops about to be recorded.
    pub fn note_scale(&mut self, scale: f64) {
        self.scales.push(scale);
    }

    /// The machine's speed over the phase against the reference speed:
    /// the median scale (1 where timings are not scaled).
    pub fn machine_speed(&self) -> f64 {
        if self.scales.is_empty() {
            1.0
        } else {
            stats::median(&mut self.scales.clone())
        }
    }

    /// Records op `op` of the current round; `scale` takes the computing
    /// part of its time to the reference speed (the limit is held against
    /// the raw time).
    pub fn record(&mut self, op: usize, outcome: OpOutcome, scale: f64) {
        let slot = (self.rounds % ROUND_CAP) * self.ops + op;
        self.ns[slot] = u32::try_from(outcome.ns).unwrap_or(u32::MAX - 1);
        let timer = outcome.timer_ns.min(outcome.ns) as f64;
        let ns = outcome.ns.max(1) as f64;
        self.scale[slot] = ((timer + (ns - timer) * scale) / ns) as f32;
        self.attempted += 1;
        let repeats = match self.expected[op] {
            None => {
                self.expected[op] = Some(outcome.fingerprint);
                true
            }
            Some(first) if first == outcome.fingerprint => true,
            Some(first) => {
                eprintln!(
                    "CHECK FAILED: op {op} (seed {}) round {}: answer digest {:#018x} differs \
                     from its first round's {first:#018x}",
                    self.seed, self.rounds, outcome.fingerprint
                );
                false
            }
        };
        if outcome.ok && repeats {
            if outcome.ns <= self.limit_ns {
                self.within_limit += 1;
            }
        } else {
            self.failed += 1;
        }
    }

    /// Closes the current round.
    pub fn end_round(&mut self) {
        let row = (self.rounds % ROUND_CAP) * self.ops;
        let total: u64 = self.ns[row..row + self.ops]
            .iter()
            .map(|&v| u64::from(v))
            .sum();
        self.round_ns.push(total);
        self.rounds += 1;
    }

    /// The answer digest each op gave the first time it ran.
    pub fn expected(&self) -> &[Option<u64>] {
        &self.expected
    }

    fn kept_rounds(&self) -> usize {
        self.rounds.min(ROUND_CAP)
    }

    /// The timing rule: each op's quiet time over its rounds, every
    /// timing at the reference speed, in µs, in op order.
    pub fn quiet_op_us(&self) -> Vec<f64> {
        let mut column = Vec::with_capacity(self.kept_rounds());
        (0..self.ops)
            .map(|op| {
                column.clear();
                column.extend((0..self.kept_rounds()).map(|r| {
                    let slot = r * self.ops + op;
                    f64::from(self.ns[slot]) * f64::from(self.scale[slot]) / 1e3
                }));
                stats::quiet_low(&mut column)
            })
            .collect()
    }

    /// Every kept timing, unfiltered, in µs, ascending.
    pub fn raw_us_sorted(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.ns[..self.kept_rounds() * self.ops]
            .iter()
            .map(|&v| f64::from(v) / 1e3)
            .collect();
        stats::sort(&mut all);
        all
    }

    /// Spread of the per-round throughputs (IQR over median, %): how noisy
    /// the machine was while the phase ran.
    pub fn round_rate_iqr_pct(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .round_ns
            .iter()
            .map(|&ns| self.ops as f64 / (ns as f64 / 1e9))
            .collect();
        stats::iqr_pct(&mut rates)
    }
}

/// Timing-rule summary of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Quiet {
    /// `N / Σ tᵢ`.
    pub ops_per_s: f64,
    /// Median op time, µs.
    pub p50_us: f64,
    /// p99 op time, µs.
    pub p99_us: f64,
    /// Distinct ops the percentiles are over.
    pub distinct_ops: usize,
}

/// Reduces per-op quiet times (µs) to the reported figures.
pub fn quiet_summary(mut op_us: Vec<f64>) -> Quiet {
    let total_us: f64 = op_us.iter().sum();
    stats::sort(&mut op_us);
    Quiet {
        ops_per_s: op_us.len() as f64 / (total_us / 1e6),
        p50_us: stats::percentile_sorted(&op_us, 0.5),
        p99_us: stats::percentile_sorted(&op_us, 0.99),
        distinct_ops: op_us.len(),
    }
}

/// A workload whose ops run one after another on the calling thread.
pub trait SerialWorkload {
    /// Distinct ops per round.
    fn ops(&self) -> usize;
    /// Untimed work before each round.
    fn begin_round(&mut self) {}
    /// Runs op `op`, timing its timed section itself so that checks stay
    /// outside it.
    fn run_op(&mut self, op: usize, rec: &mut Recorder) -> OpOutcome;
}

/// Replays the workload's op list in rounds until `budget` is used up.
/// The reference kernel is timed between the ops, at most
/// [`INTERVAL_NS`] of op time apart, and the ops between two timings are
/// recorded with the scale those two give.
pub fn run_rounds(
    w: &mut impl SerialWorkload,
    samples: &mut Samples,
    budget: Budget,
    rec: &mut Recorder,
) {
    let mut reference = Reference::new();
    let mut before = reference.time_rep_ns();
    let mut bracket: Vec<(usize, OpOutcome)> = Vec::with_capacity(w.ops());
    let started = Instant::now();
    let first_round = samples.rounds;
    while budget.more(started, samples.rounds - first_round) {
        w.begin_round();
        let mut since_reference = 0;
        for op in 0..w.ops() {
            let outcome = w.run_op(op, rec);
            since_reference += outcome.ns;
            bracket.push((op, outcome));
            if since_reference >= INTERVAL_NS || op + 1 == w.ops() {
                let after = reference.time_rep_ns();
                let scale = scale_between(before, after);
                samples.note_scale(scale);
                for (op, outcome) in bracket.drain(..) {
                    samples.record(op, outcome, scale);
                }
                (before, since_reference) = (after, 0);
            }
        }
        samples.end_round();
    }
}

/// The untraced run of a serial workload: repeated set-up, then rounds for
/// the whole measured time. Returns the workload (for what else it wants
/// to print), the timing-rule summary and the end-to-end report.
pub fn run_end_to_end<W: SerialWorkload>(
    opts: &RunOpts,
    limit_us: f64,
    build: impl FnMut() -> W,
) -> (W, Quiet, Report) {
    let steal = procfs::steal_ticks();
    let (mut w, setup_s) = timed_setup(opts, build);
    let mut samples = Samples::new(w.ops(), limit_us, opts.seed);
    run_rounds(
        &mut w,
        &mut samples,
        opts.budget(1.0),
        &mut Recorder::disabled(),
    );
    let quiet = quiet_summary(samples.quiet_op_us());
    eprintln!("{}", Noise::of(&samples, steal).to_text());
    let mut report = Report::new();
    write_end_to_end(&mut report, setup_s, quiet, &samples);
    (w, quiet, report)
}

/// Noise figures of a phase, for the `bench.*` metrics and the text
/// report.
#[derive(Debug, Clone, Copy)]
pub struct Noise {
    /// Rounds completed.
    pub rounds: usize,
    /// Unfiltered pooled median, µs.
    pub raw_p50_us: f64,
    /// Unfiltered pooled p99, µs.
    pub raw_p99_us: f64,
    /// Spread of per-round rates, %.
    pub round_rate_iqr_pct: f64,
    /// CPU time the hypervisor took from the machine, %.
    pub cpu_steal_pct: f64,
    /// The machine's speed against the reference speed.
    pub machine_speed: f64,
}

impl Noise {
    /// Noise figures of `samples`, with steal measured since `steal_before`.
    pub fn of(samples: &Samples, steal_before: (u64, u64)) -> Noise {
        let raw = samples.raw_us_sorted();
        Noise {
            rounds: samples.rounds,
            raw_p50_us: stats::percentile_sorted(&raw, 0.5),
            raw_p99_us: stats::percentile_sorted(&raw, 0.99),
            round_rate_iqr_pct: samples.round_rate_iqr_pct(),
            cpu_steal_pct: procfs::steal_pct(steal_before, procfs::steal_ticks()),
            machine_speed: samples.machine_speed(),
        }
    }

    /// One line for people.
    pub fn to_text(self) -> String {
        format!(
            "  bench: {} rounds, raw p50 {:.1} us, raw p99 {:.1} us, round-rate IQR {:.1} %, \
             steal {:.2} %, machine speed {:.3}",
            self.rounds,
            self.raw_p50_us,
            self.raw_p99_us,
            self.round_rate_iqr_pct,
            self.cpu_steal_pct,
            self.machine_speed
        )
    }

    /// Writes the `bench.*` noise metrics.
    pub fn write(&self, report: &mut Report) {
        report.set("bench.rounds", self.rounds as f64);
        report.set("bench.raw_op_us_p50", self.raw_p50_us);
        report.set("bench.raw_op_us_p99", self.raw_p99_us);
        report.set("bench.round_rate_iqr_pct", self.round_rate_iqr_pct);
        report.set("bench.cpu_steal_pct", self.cpu_steal_pct);
        report.set("bench.machine_speed", self.machine_speed);
    }
}

/// Writes the end-to-end metrics every workload reports the same way;
/// `slo_ok_share` and the attempt counts come from `samples`.
pub fn write_end_to_end(report: &mut Report, setup_s: f64, quiet: Quiet, samples: &Samples) {
    report.attempted = samples.attempted;
    report.failed = samples.failed;
    report.set("setup_s", setup_s);
    report.set("ops_per_s", quiet.ops_per_s);
    report.set("op_us_p50", quiet.p50_us);
    report.set("op_us_p99", quiet.p99_us);
    report.set(
        "slo_ok_share",
        samples.within_limit as f64 / samples.attempted.max(1) as f64,
    );
    report.set("peak_rss_mb", procfs::peak_rss_mb());
}

/// Quiet time of `f` over `reps` calls, in the unit
/// `per_second` scales a second to (1e6 for µs).
pub fn quiet_time(reps: usize, per_second: f64, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * per_second);
    }
    stats::quiet_low(&mut times)
}

/// Times `f` on each item ([`quiet_time`] each); returns the median of
/// the items' times.
///
/// # Panics
///
/// Panics on no items.
pub fn probe_p50<T>(items: &[T], reps: usize, per_second: f64, mut f: impl FnMut(&T)) -> f64 {
    let mut quiet: Vec<f64> = items
        .iter()
        .map(|item| quiet_time(reps, per_second, || f(item)))
        .collect();
    stats::median(&mut quiet)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(ns: u64, ok: bool, fingerprint: u64) -> OpOutcome {
        OpOutcome {
            ns,
            timer_ns: 0,
            ok,
            fingerprint,
        }
    }

    #[test]
    fn quiet_time_ignores_noisy_rounds() {
        let mut s = Samples::new(2, 1000.0, 1);
        // Op 0 takes 10 µs, op 1 takes 30 µs; round 2 is disturbed.
        for round in 0..4 {
            let extra = if round == 2 { 500_000 } else { 0 };
            s.record(0, outcome(10_000 + extra, true, 1), 1.0);
            s.record(1, outcome(30_000 + extra, true, 2), 1.0);
            s.end_round();
        }
        assert_eq!(s.quiet_op_us(), vec![10.0, 30.0]);
        let q = quiet_summary(s.quiet_op_us());
        assert_eq!(q.ops_per_s, 2.0 / 40e-6);
        assert_eq!((q.p50_us, q.p99_us, q.distinct_ops), (10.0, 30.0, 2));
        // The raw view still shows the disturbed round.
        assert_eq!(*s.raw_us_sorted().last().unwrap(), 530.0);
        assert_eq!((s.attempted, s.failed, s.within_limit), (8, 0, 8));
    }

    #[test]
    fn timings_are_taken_to_the_reference_speed() {
        let mut s = Samples::new(1, 15.0, 1);
        // Two rounds on a machine at 0.8 of the reference speed, one in
        // its fast state: the same op.
        for (ns, scale) in [(12_500, 0.8), (12_500, 0.8), (7_700, 1.3)] {
            s.note_scale(scale);
            s.record(0, outcome(ns, true, 1), scale);
            s.end_round();
        }
        let quiet = s.quiet_op_us()[0];
        assert!((quiet - 10.0).abs() < 0.02, "{quiet}");
        // The raw view and the limit see what was measured.
        assert_eq!(s.raw_us_sorted(), vec![7.7, 12.5, 12.5]);
        assert_eq!(s.within_limit, 3);
        assert_eq!(s.machine_speed(), 0.8);
    }

    #[test]
    fn slow_failed_and_unrepeatable_ops_are_counted() {
        let mut s = Samples::new(1, 5.0, 1);
        s.record(0, outcome(4_000, true, 7), 1.0);
        s.end_round();
        s.record(0, outcome(6_000, true, 7), 1.0); // over the 5 µs limit
        s.end_round();
        s.record(0, outcome(4_000, false, 7), 1.0); // failed its own check
        s.end_round();
        s.record(0, outcome(4_000, true, 8), 1.0); // answer changed
        s.end_round();
        assert_eq!((s.attempted, s.failed, s.within_limit), (4, 2, 1));
    }

    #[test]
    fn ring_keeps_the_latest_rounds() {
        let mut s = Samples::new(1, 1e9, 1);
        for round in 0..(ROUND_CAP + 10) {
            let ns = if round < 10 { 1_000_000 } else { 2_000 };
            s.record(0, outcome(ns, true, 0), 1.0);
            s.end_round();
        }
        assert_eq!(s.rounds, ROUND_CAP + 10);
        assert_eq!(*s.raw_us_sorted().last().unwrap(), 2.0);
    }

    #[test]
    fn budgets() {
        let now = Instant::now();
        assert!(Budget::Rounds(3).more(now, 2));
        assert!(!Budget::Rounds(3).more(now, 3));
        assert!(Budget::Seconds(0.0).more(now, 0));
        assert!(!Budget::Seconds(0.0).more(now, 1));
        assert!(Budget::Seconds(60.0).more(now, 1000));
    }

    #[test]
    fn setup_is_repeated_and_the_last_state_kept() {
        let opts = RunOpts {
            seed: 1,
            seconds: 1.0,
            smoke: false,
        };
        let mut builds = 0;
        let (state, setup_s) = timed_setup(&opts, || {
            builds += 1;
            builds
        });
        assert_eq!((state, builds), (7, 7));
        assert!(setup_s >= 0.0);
    }

    #[test]
    fn probes_visit_every_item_every_repetition() {
        let items = [1u64, 2, 3];
        let mut calls = 0;
        let p50 = probe_p50(&items, 4, 1e6, |_| calls += 1);
        assert_eq!(calls, 12);
        assert!(p50 >= 0.0);
    }
}
