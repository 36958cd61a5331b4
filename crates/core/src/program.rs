//! Compiled programs, shared, issued once and decoded once.
//!
//! The machine is fully static: a program's issue cycles, stalls,
//! counters and hazard verdict follow from its encoding, the machine
//! configuration, the hazard policy and how many stream words it can
//! read — never from the values it computes. Its dataflow is static too:
//! which register word, latch or stream word feeds each multiplier, which
//! adder nodes add and which only route, and which value each writeback
//! takes. A [`Program`] is an immutable, reference-counted slot list that
//! memoises, for the first key it runs under, that **issue outcome** and
//! a **decoded form** of the slots the value stage executes: flat lists of
//! reads, adds, output multiplies and writes, with every `Direct`/`Cross`
//! node resolved to an operand index. So every later run of the same
//! program on the same machine executes the decoded form and pays neither
//! the issue engine nor the lane masks, and cloning a program (a compiled
//! schedule, a cache hit) is a reference count.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::instruction::{lanes, LaneSource, NetInstruction, WriteMode, MAX_WIDTH};
use crate::machine::HazardPolicy;
use crate::stats::ExecStats;
use crate::{timing, MibConfig, Result};

/// An immutable program: one [`NetInstruction`] per issue slot, shared by
/// every clone. It reads as a slice (`Deref<Target = [NetInstruction]>`)
/// and compares by its instructions.
#[derive(Clone)]
pub struct Program(Arc<Shared>);

struct Shared {
    slots: Vec<NetInstruction>,
    /// What the first run computed, with the key it holds for.
    memo: OnceLock<Memo>,
}

struct Memo {
    key: IssueKey,
    outcome: IssueOutcome,
    /// The slots `outcome` lets execute, decoded under `key`.
    form: Decoded,
}

/// What an issue outcome and a decoded form depend on besides the
/// program.
#[derive(Clone, Copy, PartialEq)]
struct IssueKey {
    config: MibConfig,
    policy: HazardPolicy,
    /// Stream words left when the run starts.
    hbm_words: usize,
}

/// What the issue engine decides about one run, before any value is
/// computed.
#[derive(Clone)]
pub(crate) struct IssueOutcome {
    /// The slots the value stage evaluates: all of them when the run
    /// succeeds; on an error, those before the slot that stops the run,
    /// plus that slot for an address or stream fault, which the value
    /// stage meets part-way through it.
    pub(crate) evaluated: usize,
    /// The run's statistics, or the error that stops it.
    pub(crate) result: Result<ExecStats>,
}

impl Program {
    /// The issue outcome of running on a machine with `config` under
    /// `policy`, fed by a stream with `hbm_words` words left, and the
    /// decoded form of the slots it lets execute: the memoised pair when
    /// the key matches the first run's (computed and stored on the first
    /// run); otherwise the outcome alone, computed afresh.
    pub(crate) fn issue(
        &self,
        config: &MibConfig,
        policy: HazardPolicy,
        hbm_words: usize,
    ) -> (IssueOutcome, Option<&Decoded>) {
        let key = IssueKey {
            config: *config,
            policy,
            hbm_words,
        };
        let compute = || timing::replay(self, hbm_words, config, policy, |_, _, _| {});
        let memo = self.0.memo.get_or_init(|| {
            let outcome = compute();
            let mut form = Decoded::default();
            let mut words = hbm_words;
            for inst in &self[..outcome.evaluated] {
                form.decode(inst, config.bank_depth, &mut words);
            }
            form.shrink_to_fit();
            Memo { key, outcome, form }
        });
        if memo.key == key {
            (memo.outcome.clone(), Some(&memo.form))
        } else {
            (compute(), None)
        }
    }
}

/// How a decoded read forms its lane's multiplier output.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReadKind {
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
pub(crate) struct Read {
    /// The register word, `addr · C + lane` (the register files' layout);
    /// 0, and unread, for a source without one.
    pub(crate) reg: u32,
    /// The lane, whose latch a latch product reads.
    pub(crate) lane: u8,
    pub(crate) kind: ReadKind,
    /// Negate the product.
    pub(crate) negate: bool,
}

/// An output multiply: scratch `dst` = scratch `src` times the next
/// stream word, negated if `negate`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutMultiply {
    pub(crate) dst: u16,
    pub(crate) src: u16,
    pub(crate) negate: bool,
}

/// A writeback of scratch `src` to register word `reg` (as in [`Read`]),
/// or to latch `reg` for [`WriteMode::Latch`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Write {
    pub(crate) reg: u32,
    pub(crate) src: u16,
    pub(crate) mode: WriteMode,
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
    pub(crate) counts: Vec<[u16; 4]>,
    pub(crate) reads: Vec<Read>,
    /// One per [`ReadKind::RegTimesImm`] read, in read order.
    pub(crate) imms: Vec<f64>,
    /// `[dst, a, b]`: scratch `dst` = scratch `a` + scratch `b`.
    pub(crate) adds: Vec<[u16; 3]>,
    pub(crate) outs: Vec<OutMultiply>,
    pub(crate) writes: Vec<Write>,
}

impl Decoded {
    /// Empties the form, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.counts.clear();
        self.reads.clear();
        self.imms.clear();
        self.adds.clear();
        self.outs.clear();
        self.writes.clear();
    }

    fn shrink_to_fit(&mut self) {
        self.counts.shrink_to_fit();
        self.reads.shrink_to_fit();
        self.imms.shrink_to_fit();
        self.adds.shrink_to_fit();
        self.outs.shrink_to_fit();
        self.writes.shrink_to_fit();
    }

    /// Appends `inst` as one slot, for banks `depth` words deep and
    /// `words` stream words left, which it decrements. It makes the fault
    /// replay's checks in the replay's order, and the slot ends just
    /// before the first operation that faults: a register address
    /// `≥ depth` or a stream word past the last. The operations before
    /// it still run, as they did on the machine, so the value stage never
    /// checks a bound.
    pub(crate) fn decode(&mut self, inst: &NetInstruction, depth: usize, words: &mut usize) {
        let mut counts = [0; 4];
        // `None` is a fault: the slot keeps what it has.
        let _ = self.decode_ops(inst, depth, words, &mut counts);
        self.counts.push(counts);
    }

    fn decode_ops(
        &mut self,
        inst: &NetInstruction,
        depth: usize,
        words: &mut usize,
        counts: &mut [u16; 4],
    ) -> Option<()> {
        let width = inst.width();
        let reg = |lane: usize, addr: usize| (addr < depth).then(|| (addr * width + lane) as u32);
        let mut take_word = || {
            *words = words.checked_sub(1)?;
            Some(())
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
        for s in 0..inst.stages() {
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
            self.outs.push(OutMultiply {
                dst: next,
                src: at[lane],
                negate,
            });
            counts[2] += 1;
            at[lane] = next;
            next += 1;
        }
        for (lane, w) in inst.write_locs() {
            let reg = if w.mode == WriteMode::Latch {
                lane as u32
            } else {
                reg(lane, w.addr)?
            };
            self.writes.push(Write {
                reg,
                src: at[lane],
                mode: w.mode,
            });
            counts[3] += 1;
        }
        Some(())
    }
}

impl From<Vec<NetInstruction>> for Program {
    fn from(slots: Vec<NetInstruction>) -> Self {
        Program(Arc::new(Shared {
            slots,
            memo: OnceLock::new(),
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
