//! Compiled programs, shared, and issued and decoded in one pass.
//!
//! The machine is fully static: a program's issue cycles, stalls,
//! counters and hazard verdict follow from its encoding, the machine
//! configuration, the hazard policy and how many stream words it can
//! read — never from the values it computes. Its dataflow is static too:
//! which register word, latch or stream word feeds each multiplier, which
//! adder nodes add and which only route, and which value each writeback
//! takes. `Decoded::build` computes both at once: it runs the issue
//! engine with the decoder as its functional stage, so one pass over the
//! slots yields the run's result and a **decoded form** of the slots the
//! run executes — flat lists of reads, adds, output multiplies and
//! writes, with every `Direct`/`Cross` node resolved to an operand index
//! — and `Decoded::execute`, the machine's value stage, runs that form.
//! A [`Program`] is an immutable, reference-counted slot list that
//! memoises that pair for the first key it runs under. So every later run
//! of the same program on the same machine executes the decoded form and
//! pays neither the issue engine nor the lane masks, and cloning a
//! program (a compiled schedule, a cache hit) is a reference count.
//!
//! Beside that run memo a `Program` keeps a prediction memo: the
//! [`StaticTiming`] or error of its first [`predict`], for that
//! prediction's key. `predict` alone fills and reads it, from its own
//! check-only pass of the engine, and `Machine::run` reads only the run
//! memo; so a program's first prediction and first run stay two separate
//! computations, and a later prediction under the same key is a copy.
//!
//! [`predict`]: crate::timing::predict

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::instruction::{lanes, LaneSource, NetInstruction, WriteMode, MAX_WIDTH};
use crate::machine::{issue_program, HazardPolicy};
use crate::pending::PendingWrites;
use crate::stats::ExecStats;
use crate::timing::StaticTiming;
use crate::{MibConfig, MibError, Result};

/// An immutable program: one [`NetInstruction`] per issue slot, shared by
/// every clone. It reads as a slice (`Deref<Target = [NetInstruction]>`)
/// and compares by its instructions.
#[derive(Clone)]
pub struct Program(Arc<Shared>);

struct Shared {
    slots: Vec<NetInstruction>,
    /// What the first run computed, with the key it holds for.
    memo: OnceLock<Memo>,
    /// What the first prediction computed, with the key it holds for. It
    /// is filled and read by [`predict`](crate::timing::predict) alone,
    /// never from `memo`, so a prediction and a run stay two separate
    /// computations.
    timing: OnceLock<(IssueKey, Result<StaticTiming>)>,
}

struct Memo {
    key: IssueKey,
    /// The run's statistics, or the error that stops it.
    result: Result<ExecStats>,
    /// The slots the run executes, decoded under `key`.
    form: Decoded,
}

/// What a run's result and decoded form, or a prediction, depend on
/// besides the program.
#[derive(Clone, Copy, PartialEq)]
struct IssueKey {
    config: MibConfig,
    policy: HazardPolicy,
    /// Stream words left when the run starts.
    hbm_words: usize,
}

impl Program {
    /// The result and decoded form of running on a machine with `config`
    /// under `policy`, fed by a stream with `hbm_words` words left, if
    /// that is the key of the program's first run; the first run builds
    /// and stores them.
    pub(crate) fn memo(
        &self,
        config: &MibConfig,
        policy: HazardPolicy,
        hbm_words: usize,
    ) -> Option<(&Result<ExecStats>, &Decoded)> {
        let key = IssueKey {
            config: *config,
            policy,
            hbm_words,
        };
        let memo = self.0.memo.get_or_init(|| {
            let mut form = Decoded::default();
            let window = &mut PendingWrites::new(config);
            let result = form.build(self, config, policy, hbm_words, window);
            form.shrink_to_fit();
            Memo { key, result, form }
        });
        (memo.key == key).then_some((&memo.result, &memo.form))
    }

    /// The static timing of this program on a machine with `config` under
    /// `policy`, fed by a stream with `hbm_words` words left, if that is
    /// the key of the program's first prediction; the first prediction
    /// computes it with `analyse` and stores it.
    pub(crate) fn timing(
        &self,
        config: &MibConfig,
        policy: HazardPolicy,
        hbm_words: usize,
        analyse: impl FnOnce() -> Result<StaticTiming>,
    ) -> Option<&Result<StaticTiming>> {
        let key = IssueKey {
            config: *config,
            policy,
            hbm_words,
        };
        let (held, timing) = self.0.timing.get_or_init(|| (key, analyse()));
        (*held == key).then_some(timing)
    }
}

/// How a decoded read forms its lane's multiplier output.
#[derive(Debug, Clone, Copy)]
enum ReadKind {
    /// The register word.
    Reg,
    /// The next stream word.
    Stream,
    /// The register word times the next stream word.
    RegTimesStream,
    /// The register word times the lane's latch.
    RegTimesLatch,
    /// The register word times the slot's next immediate.
    RegTimesImm,
    /// The next stream word times the lane's latch.
    StreamTimesLatch,
}

/// One multiplier-stage read. The `k`-th read of a slot writes scratch
/// word `1 + k`.
#[derive(Debug, Clone, Copy)]
struct Read {
    /// The register word, `addr · C + lane` (the register files' layout);
    /// 0, and unread, for a source without one.
    reg: u32,
    /// The lane, whose latch a latch product reads.
    lane: u8,
    kind: ReadKind,
    /// Negate the product.
    negate: bool,
}

/// An output multiply: scratch `dst` = scratch `src` times the next
/// stream word, negated if `negate`.
#[derive(Debug, Clone, Copy)]
struct OutMultiply {
    dst: u16,
    src: u16,
    negate: bool,
}

/// A writeback of scratch `src` to register word `reg` (as in [`Read`]),
/// or to latch `reg` for [`WriteMode::Latch`].
#[derive(Debug, Clone, Copy)]
struct Write {
    reg: u32,
    src: u16,
    mode: WriteMode,
}

/// Slots decoded into flat operation lists, each in the order the value
/// stage executes it: the reads in lane order, the adds stage by stage,
/// the output multiplies and the writes in lane order. Values live in a
/// scratch array whose word 0 is always zero: every idle or dead input
/// reads it. A `Direct` or `Cross` node is no operation, only the index
/// of the scratch word it passes on; a `Sum` node is an add even when one
/// input is idle, since `-0.0 + 0.0` is `+0.0`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Decoded {
    /// Per slot, how many reads, adds, output multiplies and writes.
    counts: Vec<[u16; 4]>,
    reads: Vec<Read>,
    /// One per [`ReadKind::RegTimesImm`] read, in read order.
    imms: Vec<f64>,
    /// `[dst, a, b]`: scratch `dst` = scratch `a` + scratch `b`.
    adds: Vec<[u16; 3]>,
    outs: Vec<OutMultiply>,
    writes: Vec<Write>,
}

impl Decoded {
    /// Builds `program` into the form, replacing what it held, for a run
    /// on a machine with `config` under `policy`, fed by a stream with
    /// `hbm_words` words left: the issue engine, with pending-write
    /// window `window`, and the decoder as its functional stage. Returns
    /// the run's statistics or its error. The form then holds the slots
    /// the run executes: all of them, or on an error those before the
    /// slot that stops the run, plus that slot, cut at its fault, for an
    /// address or stream fault.
    pub(crate) fn build(
        &mut self,
        program: &[NetInstruction],
        config: &MibConfig,
        policy: HazardPolicy,
        hbm_words: usize,
        window: &mut PendingWrites,
    ) -> Result<ExecStats> {
        self.counts.clear();
        self.reads.clear();
        self.imms.clear();
        self.adds.clear();
        self.outs.clear();
        self.writes.clear();
        let mut words = hbm_words;
        let depth = config.bank_depth;
        let decode = |idx, inst: &_| self.decode::<true>(idx, inst, depth, &mut words);
        issue_program(program, config, policy, window, decode, |_, _, _| {})
    }

    fn shrink_to_fit(&mut self) {
        self.counts.shrink_to_fit();
        self.reads.shrink_to_fit();
        self.imms.shrink_to_fit();
        self.adds.shrink_to_fit();
        self.outs.shrink_to_fit();
        self.writes.shrink_to_fit();
    }

    /// The value stage: executes the slots in order on the register words
    /// `regs` (`addr · C + lane`), the `latches` and the scratch `values`
    /// (word 0 zero), reading stream words from `words`, and returns how
    /// many it read.
    pub(crate) fn execute(
        &self,
        regs: &mut [f64],
        latches: &mut [f64],
        values: &mut [f64],
        words: &[f64],
    ) -> usize {
        let (mut reads, mut adds) = (&self.reads[..], &self.adds[..]);
        let (mut outs, mut writes) = (&self.outs[..], &self.writes[..]);
        let (mut word, mut imm) = (0, 0);
        let mut next_word = || {
            word += 1;
            words[word - 1]
        };
        for &[n_reads, n_adds, n_outs, n_writes] in &self.counts {
            // Multiplier stage (stream words consumed in lane order); the
            // `k`-th read forms scratch word `1 + k`.
            for (k, r) in split_off(&mut reads, n_reads).iter().enumerate() {
                let reg = r.reg as usize;
                values[1 + k] = match r.kind {
                    ReadKind::Reg => regs[reg],
                    ReadKind::Stream => next_word(),
                    ReadKind::RegTimesStream => signed(regs[reg] * next_word(), r.negate),
                    ReadKind::RegTimesLatch => {
                        signed(regs[reg] * latches[usize::from(r.lane)], r.negate)
                    }
                    ReadKind::RegTimesImm => {
                        imm += 1;
                        regs[reg] * self.imms[imm - 1]
                    }
                    ReadKind::StreamTimesLatch => {
                        signed(next_word() * latches[usize::from(r.lane)], r.negate)
                    }
                };
            }
            // Adder stages: only the `Sum` nodes remain.
            for &[dst, a, b] in split_off(&mut adds, n_adds) {
                values[usize::from(dst)] = values[usize::from(a)] + values[usize::from(b)];
            }
            // Output multiplier stage (stream words after the input stage's).
            for o in split_off(&mut outs, n_outs) {
                values[usize::from(o.dst)] =
                    values[usize::from(o.src)] * signed(next_word(), o.negate);
            }
            // Writeback stage.
            for w in split_off(&mut writes, n_writes) {
                let (v, reg) = (values[usize::from(w.src)], w.reg as usize);
                match w.mode {
                    WriteMode::Store => regs[reg] = v,
                    WriteMode::Add => regs[reg] += v,
                    WriteMode::StoreRecip => regs[reg] = 1.0 / v,
                    WriteMode::Latch => latches[reg] = v,
                    WriteMode::Min => regs[reg] = regs[reg].min(v),
                    WriteMode::Max => regs[reg] = regs[reg].max(v),
                    WriteMode::MaxAbs => regs[reg] = regs[reg].max(v.abs()),
                }
            }
        }
        word
    }

    /// Decodes `inst`, slot `idx` of its program, for banks `depth` words
    /// deep and `words` stream words left, which it decrements, and with
    /// `RECORD` appends it as one slot. This is the machine's fault order,
    /// written once: per lane the register address before the stream
    /// word; then the output multipliers' stream words; then the writes'
    /// addresses, a latch write touching no bank. An address `≥ depth` is
    /// [`MibError::AddressOutOfRange`] and a word past the last
    /// [`MibError::StreamExhausted`]. The slot ends just before the
    /// operation that faults: the operations before it still run, as they
    /// did on the machine, so the value stage never checks a bound.
    /// Without `RECORD` the decoder only checks: it records nothing and
    /// walks no adder stage.
    pub(crate) fn decode<const RECORD: bool>(
        &mut self,
        idx: usize,
        inst: &NetInstruction,
        depth: usize,
        words: &mut usize,
    ) -> Result<()> {
        let mut counts = [0; 4];
        let result = self.decode_ops::<RECORD>(idx, inst, depth, words, &mut counts);
        if RECORD {
            self.counts.push(counts);
        }
        result
    }

    fn decode_ops<const RECORD: bool>(
        &mut self,
        idx: usize,
        inst: &NetInstruction,
        depth: usize,
        words: &mut usize,
        counts: &mut [u16; 4],
    ) -> Result<()> {
        let width = inst.width();
        let reg = |bank: usize, addr: usize| {
            if addr < depth {
                Ok((addr * width + bank) as u32)
            } else {
                Err(MibError::AddressOutOfRange { bank, addr, depth })
            }
        };
        let mut take_word = || {
            *words = words
                .checked_sub(1)
                .ok_or(MibError::StreamExhausted { instruction: idx })?;
            Ok(())
        };
        // The scratch word carrying each lane's value (0: the zero word),
        // and the next free one.
        let mut at = [0u16; MAX_WIDTH];
        let mut next = 1u16;
        for (lane, src) in inst.input_locs() {
            let reg = match src.reg_addr() {
                Some(addr) => reg(lane, addr)?,
                None => 0,
            };
            if src.uses_stream() {
                take_word()?;
            }
            if !RECORD {
                continue;
            }
            let (kind, negate) = match src {
                LaneSource::Reg { .. } => (ReadKind::Reg, false),
                LaneSource::Stream => (ReadKind::Stream, false),
                LaneSource::RegTimesStream { negate, .. } => (ReadKind::RegTimesStream, negate),
                LaneSource::RegTimesLatch { negate, .. } => (ReadKind::RegTimesLatch, negate),
                LaneSource::RegTimesImm { imm, .. } => {
                    self.imms.push(imm);
                    (ReadKind::RegTimesImm, false)
                }
                LaneSource::StreamTimesLatch { negate } => (ReadKind::StreamTimesLatch, negate),
            };
            self.reads.push(Read {
                reg,
                lane: lane as u8,
                kind,
                negate,
            });
            counts[0] += 1;
            at[lane] = next;
            next += 1;
        }
        // A check walks no adder stage.
        let stages = if RECORD { inst.stages() } else { 0 };
        for s in 0..stages {
            let bit = 1 << s;
            let (direct, cross) = inst.stage_inputs(s);
            let mut out = [0u16; MAX_WIDTH];
            for lane in lanes(direct | cross) {
                let (d, c) = (at[lane], at[lane ^ bit]);
                out[lane] = match (direct >> lane & 1 != 0, cross >> lane & 1 != 0) {
                    (true, true) => {
                        self.adds.push([next, d, c]);
                        counts[1] += 1;
                        next += 1;
                        next - 1
                    }
                    (true, false) => d,
                    _ => c,
                };
            }
            at = out;
        }
        for (lane, negate) in inst.out_mul_locs() {
            take_word()?;
            if RECORD {
                self.outs.push(OutMultiply {
                    dst: next,
                    src: at[lane],
                    negate,
                });
                counts[2] += 1;
                at[lane] = next;
                next += 1;
            }
        }
        for (lane, w) in inst.write_locs() {
            let reg = if w.mode == WriteMode::Latch {
                lane as u32
            } else {
                reg(lane, w.addr)?
            };
            if RECORD {
                self.writes.push(Write {
                    reg,
                    src: at[lane],
                    mode: w.mode,
                });
                counts[3] += 1;
            }
        }
        Ok(())
    }
}

/// The first `n` entries of `list`, which moves past them.
fn split_off<'a, T>(list: &mut &'a [T], n: u16) -> &'a [T] {
    let (head, tail) = list.split_at(usize::from(n));
    *list = tail;
    head
}

/// `-p` when `negate`, else `p`: a multiplier node's sign bit.
fn signed(p: f64, negate: bool) -> f64 {
    if negate {
        -p
    } else {
        p
    }
}

impl From<Vec<NetInstruction>> for Program {
    fn from(slots: Vec<NetInstruction>) -> Self {
        Program(Arc::new(Shared {
            slots,
            memo: OnceLock::new(),
            timing: OnceLock::new(),
        }))
    }
}

impl Deref for Program {
    type Target = [NetInstruction];

    fn deref(&self) -> &[NetInstruction] {
        &self.0.slots
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.0.slots == other.0.slots
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
