//! `Machine::run` against a reference interpreter.
//!
//! [`Reference`] executes a program the plainest way the ISA allows: per
//! slot, every multiplier lane, every node of every adder stage, every
//! output multiplier and every writeback, one at a time, read only
//! through `NetInstruction`'s public accessors (`input`, `node`,
//! `out_mul`, `write`). Its issue rule is a dense table of when each
//! register word and latch becomes visible. It shares no code with the
//! machine's issue engine, pending-write window, decoder or value stage,
//! and it memoises nothing.
//!
//! The machine must equal it bitwise — registers, the stream cursor,
//! `ExecStats`, and on a fault the error with the partial state the
//! fault leaves — on random programs under both policies, on every
//! program of `results/BENCH_verify.json`'s sample, and on the programs
//! and run order of the `accel` benchmark workload, cache hits included.
//! Each program runs three times: the first run builds the `Program`'s
//! memo (its result and decoded slots), the later ones execute it. A
//! last group checks that the memo never serves a run it does not hold
//! for: such a run builds the whole program into the machine's own
//! decoded form. The same group holds `predict`'s own memo of a
//! program's first prediction to the same rule, and runs and predictions
//! of one program, in either order, to fresh copies': neither memo
//! serves the other.

use std::collections::HashMap;

use mib::compiler::lower::{lower, LoweredQp};
use mib::compiler::ProgramCache;
use mib::core::hbm::HbmStream;
use mib::core::instruction::{
    InstrKind, LaneSource, LaneWrite, NetInstruction, NodeMode, OutMul, WriteMode,
};
use mib::core::machine::{HazardPolicy, Machine};
use mib::core::program::Program;
use mib::core::regfile::RegisterFiles;
use mib::core::stats::ExecStats;
use mib::core::timing::{predict, StaticTiming};
use mib::core::{MibConfig, MibError};
use mib::problems::{instance, Domain, INSTANCES_PER_DOMAIN};
use mib::qp::{KktBackend, Problem, Settings};
use proptest::prelude::*;

const POLICIES: [HazardPolicy; 2] = [HazardPolicy::Stall, HazardPolicy::Strict];

/// The dense interpreter: register files, one latch per lane.
struct Reference {
    config: MibConfig,
    regs: RegisterFiles,
    latches: Vec<f64>,
}

/// Counters a slot adds as it executes, kept apart from the issue
/// counters so a faulting slot adds nothing.
#[derive(Default)]
struct SlotCounts {
    busy_nodes: u64,
    flops: u64,
    hbm_words: u64,
    reg_reads: u64,
    reg_writes: u64,
}

impl Reference {
    fn new(config: MibConfig) -> Self {
        Reference {
            config,
            regs: RegisterFiles::new(config.width, config.bank_depth),
            latches: vec![0.0; config.width],
        }
    }

    fn run(
        &mut self,
        program: &[NetInstruction],
        hbm: &mut HbmStream,
        policy: HazardPolicy,
    ) -> Result<ExecStats, MibError> {
        let c = self.config.width;
        let latency = self.config.latency();
        // The cycle from which the newest write to each register word
        // and each latch is visible; a location never written reads 0.
        let mut visible: HashMap<(usize, usize), u64> = HashMap::new();
        let mut latch_visible = vec![0u64; c];
        let mut stats = ExecStats::default();
        // The earliest cycle the next slot can issue in.
        let mut cycle = 0u64;
        for (idx, inst) in program.iter().enumerate() {
            if inst.width() != c {
                return Err(MibError::WidthMismatch {
                    instruction: inst.width(),
                    machine: c,
                });
            }
            // Every location the slot reads, in the machine's order: per
            // lane the register operand then the latch, then the targets
            // of read-modify-write writebacks.
            let mut reads: Vec<(usize, usize, bool, u64)> = Vec::new();
            for (lane, &latch_at) in latch_visible.iter().enumerate() {
                if let Some(src) = inst.input(lane) {
                    let (reg, latch) = operands(src);
                    if let Some(addr) = reg {
                        let at = visible.get(&(lane, addr)).copied().unwrap_or(0);
                        reads.push((lane, addr, false, at));
                    }
                    if latch {
                        reads.push((lane, 0, true, latch_at));
                    }
                }
            }
            for lane in 0..c {
                if let Some(w) = inst.write(lane) {
                    if matches!(
                        w.mode,
                        WriteMode::Add | WriteMode::Min | WriteMode::Max | WriteMode::MaxAbs
                    ) {
                        let at = visible.get(&(lane, w.addr)).copied().unwrap_or(0);
                        reads.push((lane, w.addr, false, at));
                    }
                }
            }
            let latest = reads.iter().map(|r| r.3).max().unwrap_or(0);
            if latest > cycle && policy == HazardPolicy::Strict {
                let &(bank, addr, latch, ready) = reads
                    .iter()
                    .find(|r| r.3 == latest)
                    .expect("the latest read is one of the reads");
                return Err(MibError::DataHazard {
                    cycle,
                    instruction: idx,
                    bank,
                    addr,
                    latch,
                    ready,
                });
            }
            let issue = cycle.max(latest);
            let counts = self.execute(idx, inst, hbm)?;
            for (lane, latch_at) in latch_visible.iter_mut().enumerate() {
                if let Some(w) = inst.write(lane) {
                    if w.mode == WriteMode::Latch {
                        *latch_at = issue + latency;
                    } else {
                        visible.insert((lane, w.addr), issue + latency);
                    }
                }
            }
            stats.stall_cycles += issue - cycle;
            stats.slots += 1;
            stats.slots_by_kind[inst.kind.index()] += 1;
            stats.busy_nodes += counts.busy_nodes;
            stats.flops += counts.flops;
            stats.hbm_words += counts.hbm_words;
            stats.reg_reads += counts.reg_reads;
            stats.reg_writes += counts.reg_writes;
            cycle = issue + 1;
        }
        if stats.slots > 0 {
            stats.cycles = cycle + latency;
        }
        Ok(stats)
    }

    /// The values of one slot, lane by lane and node by node.
    fn execute(
        &mut self,
        idx: usize,
        inst: &NetInstruction,
        hbm: &mut HbmStream,
    ) -> Result<SlotCounts, MibError> {
        let c = self.config.width;
        let mut n = SlotCounts::default();
        let mut word = |n: &mut SlotCounts| {
            n.hbm_words += 1;
            hbm.next_word()
                .ok_or(MibError::StreamExhausted { instruction: idx })
        };
        let sign = |p: f64, negate: bool| if negate { -p } else { p };
        // Multiplier stage: per lane, the register read, then the word.
        let mut v = vec![0.0f64; c];
        for (lane, value) in v.iter_mut().enumerate() {
            let Some(src) = inst.input(lane) else {
                continue;
            };
            n.busy_nodes += 1;
            let (reg, _) = operands(src);
            let r = match reg {
                Some(addr) => {
                    n.reg_reads += 1;
                    self.regs.read(lane, addr)?
                }
                None => 0.0,
            };
            let latch = self.latches[lane];
            *value = match src {
                LaneSource::Reg { .. } => r,
                LaneSource::Stream => word(&mut n)?,
                LaneSource::RegTimesStream { negate, .. } => {
                    n.flops += 1;
                    sign(r * word(&mut n)?, negate)
                }
                LaneSource::RegTimesLatch { negate, .. } => {
                    n.flops += 1;
                    sign(r * latch, negate)
                }
                LaneSource::RegTimesImm { imm, .. } => {
                    n.flops += 1;
                    r * imm
                }
                LaneSource::StreamTimesLatch { negate } => {
                    n.flops += 1;
                    sign(word(&mut n)? * latch, negate)
                }
            };
        }
        // Adder stages: node (s, j) sees lane j and lane j XOR 2ˢ.
        for s in 0..inst.stages() {
            let partner = 1 << s;
            let mut out = vec![0.0f64; c];
            for (lane, value) in out.iter_mut().enumerate() {
                let mode = inst.node(s, lane);
                if mode != NodeMode::Idle {
                    n.busy_nodes += 1;
                }
                *value = match mode {
                    NodeMode::Idle => 0.0,
                    NodeMode::Direct => v[lane],
                    NodeMode::Cross => v[lane ^ partner],
                    NodeMode::Sum => {
                        n.flops += 1;
                        v[lane] + v[lane ^ partner]
                    }
                };
            }
            v = out;
        }
        // Output multipliers, after every input-stage word.
        for (lane, value) in v.iter_mut().enumerate() {
            if let OutMul::MulStream { negate } = inst.out_mul(lane) {
                n.flops += 1;
                *value *= sign(word(&mut n)?, negate);
            }
        }
        // Writeback.
        for (lane, &value) in v.iter().enumerate() {
            let Some(LaneWrite { addr, mode }) = inst.write(lane) else {
                continue;
            };
            n.reg_writes += 1;
            if !matches!(mode, WriteMode::Store | WriteMode::Latch) {
                n.flops += 1;
            }
            let regs = &mut self.regs;
            match mode {
                WriteMode::Store => regs.write(lane, addr, value)?,
                WriteMode::Latch => self.latches[lane] = value,
                WriteMode::StoreRecip => regs.write(lane, addr, 1.0 / value)?,
                WriteMode::Add => {
                    let cur = regs.read(lane, addr)?;
                    regs.write(lane, addr, cur + value)?;
                }
                WriteMode::Min => {
                    let cur = regs.read(lane, addr)?;
                    regs.write(lane, addr, cur.min(value))?;
                }
                WriteMode::Max => {
                    let cur = regs.read(lane, addr)?;
                    regs.write(lane, addr, cur.max(value))?;
                }
                WriteMode::MaxAbs => {
                    let cur = regs.read(lane, addr)?;
                    regs.write(lane, addr, cur.max(value.abs()))?;
                }
            }
        }
        Ok(n)
    }
}

/// A source's operands: the register address it reads, and whether it
/// reads the latch.
fn operands(src: LaneSource) -> (Option<usize>, bool) {
    match src {
        LaneSource::Reg { addr }
        | LaneSource::RegTimesStream { addr, .. }
        | LaneSource::RegTimesImm { addr, .. } => (Some(addr), false),
        LaneSource::RegTimesLatch { addr, .. } => (Some(addr), true),
        LaneSource::Stream => (None, false),
        LaneSource::StreamTimesLatch { .. } => (None, true),
    }
}

/// A machine and the reference side by side, fed the same runs.
struct Pair {
    machine: Machine,
    reference: Reference,
    /// Whether a NaN word must match in sign and payload too. IEEE 754
    /// and Rust leave both unspecified for an operation on two NaNs, so
    /// where the operands themselves are arbitrary two compilations of one
    /// expression may differ there; everywhere else equality is bitwise.
    nan_bits: bool,
}

impl Pair {
    fn new(config: MibConfig) -> Self {
        Pair {
            machine: Machine::new(config),
            reference: Reference::new(config),
            nan_bits: true,
        }
    }

    /// Runs `program` on both with the same stream and asserts equal
    /// results and stream cursors. Returns the machine's result.
    fn run(
        &mut self,
        label: &str,
        program: &Program,
        words: &[f64],
        policy: HazardPolicy,
    ) -> Result<ExecStats, MibError> {
        let mut hbm = HbmStream::new(words.to_vec());
        let mut ref_hbm = HbmStream::new(words.to_vec());
        let got = self.machine.run(program, &mut hbm, policy);
        let want = self.reference.run(program, &mut ref_hbm, policy);
        assert_eq!(got, want, "{label} ({policy:?}): result");
        assert_eq!(
            hbm.consumed(),
            ref_hbm.consumed(),
            "{label} ({policy:?}): stream cursor"
        );
        got
    }

    /// Asserts equal register files. A C = 32 file is 2M words, so the
    /// `accel` plans compare once per plan.
    fn assert_registers(&self, label: &str) {
        let (a, b) = (self.machine.regs(), &self.reference.regs);
        let same = if self.nan_bits {
            a == b
        } else {
            (0..a.width()).all(|bank| {
                (0..a.depth()).all(|addr| {
                    let (x, y) = (a.read(bank, addr).unwrap(), b.read(bank, addr).unwrap());
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
                })
            })
        };
        assert!(same, "{label}: register files differ");
    }
}

/// A word palette that includes the values bitwise equality is about.
const PALETTE: [f64; 10] = [
    1.5,
    -2.25,
    0.0,
    -0.0,
    3.0,
    f64::NAN,
    f64::INFINITY,
    0.125,
    -7.0,
    1e-300,
];

/// SplitMix64: the stream of choices one random instruction is built from.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }

    /// An address, out of range one time in forty.
    fn addr(&mut self, depth: usize) -> usize {
        if self.below(40) == 0 {
            depth
        } else {
            self.below(depth as u64)
        }
    }
}

fn random_config() -> MibConfig {
    MibConfig {
        width: 8,
        bank_depth: 12,
        clock_hz: 1e6,
    }
}

/// One random slot: any source, node mode, output multiplier and
/// writeback on any lane, with any kind.
fn random_instruction(seed: u64, cfg: &MibConfig) -> NetInstruction {
    let mut d = Draw(seed);
    let mut inst = NetInstruction::nop(cfg.width);
    let kinds = [
        InstrKind::Mac,
        InstrKind::ColElim,
        InstrKind::Broadcast,
        InstrKind::Permute,
        InstrKind::Elementwise,
        InstrKind::Prefetch,
        InstrKind::Nop,
    ];
    inst.kind = kinds[d.below(7)];
    let modes = [
        WriteMode::Store,
        WriteMode::Add,
        WriteMode::StoreRecip,
        WriteMode::Latch,
        WriteMode::Min,
        WriteMode::Max,
        WriteMode::MaxAbs,
    ];
    for lane in 0..cfg.width {
        if d.below(2) == 0 {
            let addr = d.addr(cfg.bank_depth);
            let negate = d.below(2) == 0;
            let src = match d.below(6) {
                0 => LaneSource::Reg { addr },
                1 => LaneSource::Stream,
                2 => LaneSource::RegTimesStream { addr, negate },
                3 => LaneSource::RegTimesLatch { addr, negate },
                4 => LaneSource::RegTimesImm {
                    addr,
                    imm: PALETTE[d.below(10)],
                },
                _ => LaneSource::StreamTimesLatch { negate },
            };
            inst.set_input(lane, src);
        }
        if d.below(8) == 0 {
            inst.set_out_mul(
                lane,
                OutMul::MulStream {
                    negate: d.below(2) == 0,
                },
            );
        }
        if d.below(2) == 0 {
            let addr = d.addr(cfg.bank_depth);
            let mode = modes[d.below(7)];
            inst.set_write(lane, LaneWrite { addr, mode });
        }
    }
    for s in 0..cfg.stages() {
        for lane in 0..cfg.width {
            let mode = [
                NodeMode::Idle,
                NodeMode::Direct,
                NodeMode::Cross,
                NodeMode::Sum,
            ][d.below(4)];
            inst.set_node(s, lane, mode);
        }
    }
    inst
}

/// Stores stream words at every address of every bank: the random
/// programs start from non-zero registers.
fn fill(cfg: &MibConfig) -> Vec<NetInstruction> {
    (0..cfg.bank_depth)
        .map(|addr| {
            let mut i = NetInstruction::nop(cfg.width);
            for lane in 0..cfg.width {
                i.set_input(lane, LaneSource::Stream);
                i.set_node(0, lane, NodeMode::Direct);
                for s in 1..cfg.stages() {
                    i.set_node(s, lane, NodeMode::Direct);
                }
                i.set_write(
                    lane,
                    LaneWrite {
                        addr,
                        mode: WriteMode::Store,
                    },
                );
            }
            i
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random programs — stalls, hazards, address and stream faults,
    /// width mismatches — under both policies, each run three times on
    /// one machine: the first run builds the memo, the later two execute
    /// its decoded slots.
    #[test]
    fn random_programs_match_the_reference(
        slots in proptest::collection::vec((0u64..u64::MAX, 0usize..3), 1..16),
        shortfall in 0usize..3,
    ) {
        let cfg = random_config();
        let mut program = fill(&cfg);
        for &(seed, gap) in &slots {
            program.extend((0..gap).map(|_| NetInstruction::nop(cfg.width)));
            if seed % 61 == 0 {
                program.push(NetInstruction::nop(cfg.width / 2));
            } else {
                program.push(random_instruction(seed, &cfg));
            }
        }
        let need: usize = program.iter().map(NetInstruction::stream_words).sum();
        // A stream one word short one case in three.
        let len = if shortfall == 0 { need - 1 } else { need };
        let words: Vec<f64> = (0..len)
            .map(|k| PALETTE[k % PALETTE.len()] * (1 + k % 3) as f64)
            .collect();
        let program = Program::from(program);
        for policy in POLICIES {
            let mut pair = Pair {
                nan_bits: false,
                ..Pair::new(cfg)
            };
            let first = pair.run("random", &program, &words, policy);
            pair.assert_registers("random");
            for label in ["random, again", "random, a third time"] {
                let again = pair.run(label, &program, &words, policy);
                pair.assert_registers(label);
                prop_assert_eq!(first.is_ok(), again.is_ok());
            }
        }
    }
}

/// The verify settings `results/BENCH_verify.json` was computed with.
fn verify_settings(backend: KktBackend) -> Settings {
    mib_bench::eval_settings(backend)
}

fn schedules(l: &LoweredQp) -> [(&'static str, &mib::compiler::Schedule); 5] {
    [
        ("load", &l.load),
        ("setup", &l.setup),
        ("iteration", &l.iteration),
        ("pcg", &l.pcg_iteration),
        ("check", &l.check),
    ]
}

/// The programs of the `verify_schedules` sample (C = 32, both backends),
/// in order on one machine per lowering, each three times, under the
/// strict policy the sample is certified with. Lowering the largest instances unoptimised
/// takes most of a minute, so by default this takes the first instance
/// of each domain (40 programs); `MIB_TIMING_FULL=1`, which
/// `scripts/check.sh` sets for its optimised run, takes all three
/// instances — every program of `results/BENCH_verify.json`.
#[test]
fn verify_sample_matches_the_reference() {
    let config = MibConfig::c32();
    let indices: &[usize] = if std::env::var_os("MIB_TIMING_FULL").is_some() {
        &[0, 9, INSTANCES_PER_DOMAIN - 1]
    } else {
        &[0]
    };
    let mut programs = 0;
    for domain in Domain::all() {
        for &index in indices {
            let problem = instance(domain, index).problem;
            for backend in [KktBackend::Direct, KktBackend::Indirect] {
                let lowered = lower(&problem, &verify_settings(backend), config)
                    .expect("benchmark instance lowers");
                let mut pair = Pair::new(config);
                for (name, s) in schedules(&lowered) {
                    if s.program.is_empty() {
                        continue;
                    }
                    for run in 1..=3 {
                        let label = format!("{domain}[{index}]/{backend:?}/{name}, run {run}");
                        pair.run(&label, &s.program, &s.hbm, HazardPolicy::Strict)
                            .unwrap_or_else(|e| panic!("{label}: {e}"));
                        pair.assert_registers(&label);
                    }
                    programs += 1;
                }
            }
        }
    }
    // 5 domains x indices x (direct: 4 programs + indirect: 4 programs);
    // the three-instance sample is BENCH_verify.json's 120.
    assert_eq!(programs, 5 * indices.len() * 8);
}

/// The `accel` workload's settings: the unscaled, fixed-ρ algorithm.
fn machine_settings(backend: KktBackend) -> Settings {
    Settings {
        scaling_iters: 0,
        adaptive_rho: false,
        ..Settings::with_backend(backend)
    }
}

/// `problem` with `q` scaled and shifted: a cache hit.
fn revalued(problem: &Problem, scale: f64) -> Problem {
    let (p, q, a, l, u) = problem.clone().into_parts();
    let q = q.iter().map(|v| scale * v + 0.125).collect();
    Problem::new(p, q, a, l, u).expect("re-valued problem is valid")
}

/// Runs `accel`'s plan for one lowering: load, the factorization if any,
/// five iterations (each with a PCG iteration on the indirect variant),
/// the residual check.
fn run_plan(pair: &mut Pair, label: &str, l: &LoweredQp) {
    let s = schedules(l);
    let iteration: &[usize] = if l.pcg_iteration.program.is_empty() {
        &[2]
    } else {
        &[2, 3]
    };
    let mut plan = vec![0];
    plan.extend((!l.setup.program.is_empty()).then_some(1));
    for _ in 0..5 {
        plan.extend(iteration);
    }
    plan.push(4);
    for k in plan {
        let (name, sched) = s[k];
        let label = format!("{label}/{name}");
        pair.run(&label, &sched.program, &sched.hbm, HazardPolicy::Strict)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    pair.assert_registers(label);
}

/// The `accel` workload's 25 programs (suite indices 0 and 3 at C = 32 in
/// both variants, index 0 at C = 16 direct), each run to its plan as a
/// miss and again as two cache hits on the same machine, as the workload
/// does: the hits share every program but `load` with the miss.
#[test]
fn accel_programs_match_the_reference() {
    let mut cache = ProgramCache::new();
    let mut pairs = [Pair::new(MibConfig::c32()), Pair::new(MibConfig::c16())];
    let mut programs = 0;
    for domain in Domain::all() {
        let mut specs = Vec::new();
        for index in [0, 3] {
            specs.push((index, KktBackend::Direct, 0));
            specs.push((index, KktBackend::Indirect, 0));
        }
        specs.push((0, KktBackend::Direct, 1));
        for (index, backend, m) in specs {
            let pair = &mut pairs[m];
            let config = *pair.machine.config();
            let settings = machine_settings(backend);
            let base = instance(domain, index).problem;
            let label = format!("{domain}[{index}]/{backend:?}/C{}", config.width);
            for (problem, kind) in [
                (base.clone(), "miss"),
                (revalued(&base, 0.75), "hit"),
                (revalued(&base, 0.5), "second hit"),
            ] {
                let misses = cache.misses();
                let lowered = cache
                    .lower_cached(&problem, &settings, config)
                    .expect("lowering succeeds");
                assert_eq!(cache.misses() > misses, kind == "miss", "{label}: {kind}");
                run_plan(pair, &format!("{label}/{kind}"), &lowered);
            }
            programs += 1;
        }
    }
    assert_eq!(programs, 25);
}

/// The outcome of one run on a fresh machine: result, registers, cursor.
fn fresh_run(
    program: &Program,
    config: MibConfig,
    words: &[f64],
    policy: HazardPolicy,
) -> (Result<ExecStats, MibError>, RegisterFiles, usize) {
    let mut m = Machine::new(config);
    let mut hbm = HbmStream::new(words.to_vec());
    let result = m.run(program, &mut hbm, policy);
    (result, m.regs().clone(), hbm.consumed())
}

/// Asserts that `shared`, whose memo already holds another key's result
/// and decoded slots, runs like a fresh copy of itself and like the
/// reference, twice on one machine each: `shared` is built into the
/// machine's own decoded form both times, while the copy builds its memo
/// on the first run and executes it on the second. Results, registers and stream cursors
/// must agree, the partial ones a fault leaves included.
fn assert_unmemoised(
    label: &str,
    shared: &Program,
    config: MibConfig,
    words: &[f64],
    policy: HazardPolicy,
) {
    let fresh = Program::from(shared.to_vec());
    let (mut on_the_fly, mut memoised) = (Machine::new(config), Machine::new(config));
    let mut pair = Pair::new(config);
    for run in 1..=2 {
        let label = format!("{label}, run {run}");
        let mut hbm = HbmStream::new(words.to_vec());
        let mut fresh_hbm = HbmStream::new(words.to_vec());
        assert_eq!(
            on_the_fly.run(shared, &mut hbm, policy),
            memoised.run(&fresh, &mut fresh_hbm, policy),
            "{label}: result"
        );
        assert_eq!(
            hbm.consumed(),
            fresh_hbm.consumed(),
            "{label}: stream cursor"
        );
        assert!(on_the_fly.regs() == memoised.regs(), "{label}: registers");
        let _ = pair.run(&label, shared, words, policy);
        pair.assert_registers(&label);
    }
}

/// A `Sum` node with one idle input still adds: a `-0.0` on its live
/// input leaves as `+0.0`, where a plain copy (lane 2) keeps the sign.
#[test]
fn a_sum_with_one_idle_input_adds_zero() {
    let cfg = random_config();
    let store = LaneWrite {
        addr: 1,
        mode: WriteMode::Store,
    };
    let mut inst = NetInstruction::nop(cfg.width);
    inst.set_input(0, LaneSource::Stream);
    // Node (0, 0) takes lane 0 and the idle lane 1.
    inst.set_node_sum(0, 0);
    for s in 1..cfg.stages() {
        inst.set_node(s, 0, NodeMode::Direct);
    }
    inst.set_write(0, store);
    inst.set_input(2, LaneSource::Stream);
    inst.route(2, 2);
    inst.set_write(2, store);
    let program = Program::from(vec![inst]);
    let mut pair = Pair::new(cfg);
    for run in 1..=3 {
        let label = format!("sum of -0.0 and an idle input, run {run}");
        pair.run(&label, &program, &[-0.0, -0.0], HazardPolicy::Strict)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        pair.assert_registers(&label);
        let regs = pair.machine.regs();
        assert_eq!(
            regs.read(0, 1).unwrap().to_bits(),
            0.0f64.to_bits(),
            "{label}"
        );
        assert_eq!(
            regs.read(2, 1).unwrap().to_bits(),
            (-0.0f64).to_bits(),
            "{label}"
        );
    }
}

/// A small compiled program and its stream: the direct ADMM iteration of
/// the first portfolio instance, C = 8.
fn compiled_iteration() -> (Program, Vec<f64>, MibConfig) {
    let cfg = MibConfig {
        width: 8,
        bank_depth: 1 << 14,
        clock_hz: 1e6,
    };
    let problem = instance(Domain::Portfolio, 0).problem;
    let lowered =
        lower(&problem, &machine_settings(KktBackend::Direct), cfg).expect("the instance lowers");
    (lowered.iteration.program, lowered.iteration.hbm, cfg)
}

/// The two variants of the compiled iteration that change one part of a
/// key: a configuration whose banks are one word shallower than the
/// deepest address the program touches, so it faults; and the program
/// with a copy of its last register write issued right behind it, which
/// stalls, so `Strict` refuses it and `Stall` runs it.
fn key_variants(program: &Program, cfg: MibConfig, words: &[f64]) -> (MibConfig, Program) {
    let deepest = program
        .iter()
        .flat_map(|i| {
            (0..cfg.width).flat_map(move |lane| {
                let read = i.input(lane).and_then(|s| operands(s).0);
                let write = i
                    .write(lane)
                    .filter(|w| w.mode != WriteMode::Latch)
                    .map(|w| w.addr);
                read.into_iter().chain(write)
            })
        })
        .max()
        .expect("the program touches registers");
    let shallow = MibConfig {
        bank_depth: deepest,
        ..cfg
    };
    let (slot, lane, addr) = program
        .iter()
        .enumerate()
        .flat_map(|(slot, i)| {
            (0..cfg.width).filter_map(move |lane| {
                let w = i.write(lane).filter(|w| w.mode != WriteMode::Latch)?;
                Some((slot, lane, w.addr))
            })
        })
        .last()
        .expect("the program writes registers");
    let mut copy = NetInstruction::nop(cfg.width);
    copy.set_input(lane, LaneSource::Reg { addr });
    copy.route(lane, lane);
    copy.set_write(
        lane,
        LaneWrite {
            addr: deepest + 1,
            mode: WriteMode::Store,
        },
    );
    let mut stalling = program.to_vec();
    stalling.insert(slot + 1, copy);
    let stalling = Program::from(stalling);
    assert!(
        fresh_run(&stalling, cfg, words, HazardPolicy::Strict)
            .0
            .is_err()
            && fresh_run(&stalling, cfg, words, HazardPolicy::Stall)
                .0
                .is_ok(),
        "the copy stalls, so the two policies differ"
    );
    (shallow, stalling)
}

#[test]
fn memo_serves_only_its_own_key() {
    let (program, words, cfg) = compiled_iteration();
    let (shallow, stalling) = key_variants(&program, cfg, &words);

    // Two configurations, in both orders.
    let shared = Program::from(program.to_vec());
    assert!(fresh_run(&shared, cfg, &words, HazardPolicy::Strict)
        .0
        .is_ok());
    assert_unmemoised(
        "deep, then shallow",
        &shared,
        shallow,
        &words,
        HazardPolicy::Strict,
    );
    let shared = Program::from(program.to_vec());
    assert!(fresh_run(&shared, shallow, &words, HazardPolicy::Strict)
        .0
        .is_err());
    assert_unmemoised(
        "shallow, then deep",
        &shared,
        cfg,
        &words,
        HazardPolicy::Strict,
    );

    // Both policies, on the program that stalls.
    for first in POLICIES {
        let shared = Program::from(stalling.to_vec());
        let _memoised = fresh_run(&shared, cfg, &words, first);
        for policy in POLICIES {
            let label = format!("{first:?}, then {policy:?}");
            assert_unmemoised(&label, &shared, cfg, &words, policy);
        }
    }

    // A full stream, then one word short, and the other way round; a
    // surplus word is another key too.
    let short = &words[..words.len() - 1];
    let mut long = words.clone();
    long.push(9.0);
    for (a, b) in [
        (&words[..], short),
        (short, &words[..]),
        (&long[..], &words[..]),
    ] {
        let shared = Program::from(program.to_vec());
        let _memoised = fresh_run(&shared, cfg, a, HazardPolicy::Strict);
        assert_unmemoised("stream length", &shared, cfg, b, HazardPolicy::Strict);
    }
    assert!(fresh_run(
        &Program::from(program.to_vec()),
        cfg,
        short,
        HazardPolicy::Strict
    )
    .0
    .is_err());
}

/// Asserts that predicting `shared` twice, whatever its prediction memo
/// already holds, equals the prediction of a fresh copy of it, issue
/// cycles and errors included, and that the copy's prediction equals the
/// copy's run. Returns the prediction.
fn assert_predicts_fresh(
    label: &str,
    shared: &Program,
    config: MibConfig,
    words: &[f64],
    policy: HazardPolicy,
) -> Result<StaticTiming, MibError> {
    let fresh = Program::from(shared.to_vec());
    let expected = predict(&fresh, words.len(), &config, policy);
    assert_eq!(
        expected.clone().map(|t| t.stats),
        fresh_run(&fresh, config, words, policy).0,
        "{label}: predicted against simulated"
    );
    for call in 1..=2 {
        assert_eq!(
            predict(shared, words.len(), &config, policy),
            expected,
            "{label}, prediction {call}"
        );
    }
    expected
}

/// The prediction memo's counterpart of `memo_serves_only_its_own_key`:
/// each part of the key changed on its own, in both orders, and the
/// later prediction must be the one a fresh `Program` computes.
#[test]
fn prediction_memo_serves_only_its_own_key() {
    let (program, words, cfg) = compiled_iteration();
    let (shallow, stalling) = key_variants(&program, cfg, &words);
    let strict = HazardPolicy::Strict;

    for (first, then) in [(cfg, shallow), (shallow, cfg)] {
        let shared = Program::from(program.to_vec());
        let a = assert_predicts_fresh("first configuration", &shared, first, &words, strict);
        let b = assert_predicts_fresh("other configuration", &shared, then, &words, strict);
        assert!(a.is_ok() != b.is_ok(), "the shallow banks fault");
    }

    for first in POLICIES {
        let shared = Program::from(stalling.to_vec());
        for policy in [first, HazardPolicy::Stall, HazardPolicy::Strict] {
            let label = format!("{first:?}, then {policy:?}");
            let result = assert_predicts_fresh(&label, &shared, cfg, &words, policy);
            assert_eq!(result.is_ok(), policy == HazardPolicy::Stall, "{label}");
        }
    }

    let short = &words[..words.len() - 1];
    for (a, b) in [(&words[..], short), (short, &words[..])] {
        let shared = Program::from(program.to_vec());
        for (label, stream) in [("first stream", a), ("other stream", b)] {
            let result = assert_predicts_fresh(label, &shared, cfg, stream, strict);
            if stream.len() < words.len() {
                assert!(
                    matches!(result, Err(MibError::StreamExhausted { .. })),
                    "{label}: {result:?}"
                );
            }
        }
    }
}

/// A run and a prediction of one `Program`, in either order, equal a
/// fresh copy's run and prediction: neither memo serves the other, on
/// the key that both hold and on a faulting one.
#[test]
fn run_and_prediction_keep_their_own_memos() {
    let (program, words, cfg) = compiled_iteration();
    let (shallow, _) = key_variants(&program, cfg, &words);
    let strict = HazardPolicy::Strict;
    for config in [cfg, shallow] {
        let fresh = || Program::from(program.to_vec());
        let (result, regs, consumed) = fresh_run(&fresh(), config, &words, strict);
        let prediction = predict(&fresh(), words.len(), &config, strict);
        assert_eq!(prediction.clone().map(|t| t.stats), result);
        for run_first in [true, false] {
            let label = format!("bank depth {}, run first: {run_first}", config.bank_depth);
            let shared = fresh();
            if !run_first {
                assert_eq!(predict(&shared, words.len(), &config, strict), prediction);
            }
            for run in 1..=2 {
                let (r, rs, c) = fresh_run(&shared, config, &words, strict);
                assert_eq!(r, result, "{label}, run {run}: result");
                assert!(rs == regs, "{label}, run {run}: registers");
                assert_eq!(c, consumed, "{label}, run {run}: stream cursor");
            }
            assert_eq!(
                predict(&shared, words.len(), &config, strict),
                prediction,
                "{label}"
            );
        }
    }
}

/// A cache hit shares the miss's programs, memo included: its runs must
/// equal fresh copies' on the same machine state.
#[test]
fn memo_after_a_cache_hit() {
    let config = MibConfig {
        width: 8,
        bank_depth: 1 << 14,
        clock_hz: 1e6,
    };
    let settings = machine_settings(KktBackend::Direct);
    let problem = instance(Domain::Portfolio, 0).problem;
    let mut cache = ProgramCache::new();
    let miss = cache.lower_cached(&problem, &settings, config).unwrap();
    let mut warm = Pair::new(config);
    run_plan(&mut warm, "miss", &miss);
    let hit = cache
        .lower_cached(&revalued(&problem, 0.75), &settings, config)
        .unwrap();
    assert_eq!(cache.hits(), 1);
    assert!(hit.iteration.program == miss.iteration.program);
    let copy = |s: &mib::compiler::Schedule| Program::from(s.program.to_vec());
    let (mut shared, mut fresh) = (Machine::new(config), Machine::new(config));
    for (name, s) in schedules(&hit) {
        if s.program.is_empty() {
            continue;
        }
        for policy in POLICIES {
            let a = shared.run(&s.program, &mut HbmStream::new(s.hbm.clone()), policy);
            let b = fresh.run(&copy(s), &mut HbmStream::new(s.hbm.clone()), policy);
            assert_eq!(a, b, "{name} ({policy:?})");
            assert!(
                shared.regs() == fresh.regs(),
                "{name} ({policy:?}): registers"
            );
        }
    }
}
