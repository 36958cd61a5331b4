//! Critical-path extraction: the chain of dependences that bounds a
//! program's execution time.
//!
//! The MIB machine issues in order, one slot per cycle, so a program's
//! total cycle count decomposes exactly into a chain of constraints
//! ending at the last slot: each slot is bound either *sequentially* (it
//! issues one cycle after its predecessor) or by a *dependence* (its
//! issue waits for a producer's write to become architecturally visible,
//! `latency` cycles after the producer issued). Walking that chain
//! backwards from the last slot yields the **critical path**: the hops
//! where a dependence — not mere program order — determined the issue
//! cycle. A hop with positive stall cycles is a schedule defect (the
//! machine idled); a hop with zero stall is a *tight* dependence — the
//! consumer issues at the exact cycle its operand becomes visible, so no
//! reordering of the surrounding slots could shorten the program without
//! breaking the dependence. Certified (hazard-free) schedules only have
//! tight hops; the chain tells the scheduler which dependences it must
//! restructure to go faster.
//!
//! Each hop carries slot/location provenance.

use crate::instruction::{InstrKind, NetInstruction};
use crate::machine::{issue_program, HazardPolicy};
use crate::pending::{BindingWrite, PendingWrites};
use crate::MibConfig;

/// A storage location of the machine: a register-bank word or a lane's
/// broadcast latch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// `bank[addr]` of the banked register files.
    Reg {
        /// Bank (= lane) index.
        bank: usize,
        /// Address within the bank.
        addr: usize,
    },
    /// The broadcast latch of a lane.
    Latch {
        /// Lane index.
        lane: usize,
    },
}

/// One hop of the critical dependence chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalHop {
    /// Slot whose issue cycle the dependence determined.
    pub slot: usize,
    /// Kind of the bound instruction.
    pub kind: InstrKind,
    /// Location the dependence flows through.
    pub loc: Loc,
    /// Slot of the producing write.
    pub producer_slot: usize,
    /// Stall cycles the hop cost (0 for a tight, hazard-free dependence).
    pub stall_cycles: u64,
}

/// The chain of dependences bounding the program, in program order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CriticalPath {
    /// Predicted total cycles of the program (slots + stalls + drain),
    /// i.e. the length of the path the chain decomposes.
    pub cycles: u64,
    /// Total stall cycles of the program (its `ExecStats::stall_cycles`).
    /// A stall can lie off the chain: a later slot bound tightly to an
    /// earlier producer skips a stalled slot between them.
    pub stall_cycles: u64,
    /// Dependence hops, earliest slot first. Empty when program order
    /// alone bounds the program (no dependence is tight).
    pub hops: Vec<CriticalHop>,
}

/// Extracts the critical path of `program` under the stall policy.
///
/// The issue engine runs with no functional stage, so address and stream
/// faults do not stop it: they do not affect issue timing, and the timing
/// predictor ([`crate::timing::predict`]) is the authority on fault
/// identity. Programs with a width mismatch have no meaningful lane
/// indexing; they yield an empty default path (the timing predictor
/// rejects them with `MibError::WidthMismatch`).
pub fn critical_path(program: &[NetInstruction], config: &MibConfig) -> CriticalPath {
    // Per slot, the write its issue waited for — stalled, or tight (visible
    // exactly at the slot's earliest issue cycle) — and the stall it cost.
    let mut bound = Vec::with_capacity(program.len());
    let mut earliest = 0;
    let record = |_, issue: u64, binding: Option<BindingWrite>| {
        bound.push(binding.map(|b| (b, issue - earliest)));
        earliest = issue + 1;
    };
    let window = &mut PendingWrites::new(config);
    let stage = |_, _: &_| Ok(());
    let Ok(stats) = issue_program(program, config, HazardPolicy::Stall, window, stage, record)
    else {
        return CriticalPath::default();
    };

    // Walk the chain backwards from the last slot: a bound slot jumps to
    // its producer, an unbound slot to its predecessor.
    let mut hops = Vec::new();
    let mut i = program.len();
    while i > 0 {
        let slot = i - 1;
        match bound[slot] {
            Some((b, stall_cycles)) => {
                hops.push(CriticalHop {
                    slot,
                    kind: program[slot].kind,
                    loc: if b.latch {
                        Loc::Latch { lane: b.bank }
                    } else {
                        Loc::Reg {
                            bank: b.bank,
                            addr: b.addr,
                        }
                    },
                    producer_slot: b.slot,
                    stall_cycles,
                });
                i = b.slot + 1;
            }
            None => i = slot,
        }
    }
    hops.reverse();

    CriticalPath {
        cycles: stats.cycles,
        stall_cycles: stats.stall_cycles,
        hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{LaneSource, LaneWrite, WriteMode};

    fn config8() -> MibConfig {
        MibConfig {
            width: 8,
            bank_depth: 64,
            clock_hz: 1e6,
        }
    }

    fn mov(lane: usize, from: usize, to: usize) -> NetInstruction {
        let mut i = NetInstruction::nop(8);
        i.set_input(lane, LaneSource::Reg { addr: from });
        i.route(lane, lane);
        i.set_write(
            lane,
            LaneWrite {
                addr: to,
                mode: WriteMode::Store,
            },
        );
        i
    }

    #[test]
    fn empty_program_has_empty_path() {
        let cp = critical_path(&[], &config8());
        assert_eq!(cp, CriticalPath::default());
    }

    #[test]
    fn stalled_dependence_is_a_hop_with_stall_cost() {
        let cfg = config8();
        let prog = vec![mov(0, 0, 1), mov(0, 1, 2)];
        let cp = critical_path(&prog, &cfg);
        assert_eq!(cp.stall_cycles, cfg.latency() - 1);
        assert_eq!(cp.hops.len(), 1);
        let hop = cp.hops[0];
        assert_eq!(hop.slot, 1);
        assert_eq!(hop.producer_slot, 0);
        assert_eq!(hop.loc, Loc::Reg { bank: 0, addr: 1 });
        assert_eq!(hop.stall_cycles, cfg.latency() - 1);
        // cycles = issue(last) + 1 + latency = latency + 1 + latency.
        assert_eq!(cp.cycles, 2 * cfg.latency() + 1);
    }

    #[test]
    fn tight_dependence_is_a_zero_stall_hop() {
        let cfg = config8();
        let latency = cfg.latency() as usize;
        let mut prog = vec![mov(0, 0, 1)];
        prog.extend((0..latency - 1).map(|_| NetInstruction::nop(8)));
        prog.push(mov(0, 1, 2));
        let cp = critical_path(&prog, &cfg);
        assert_eq!(cp.stall_cycles, 0);
        assert_eq!(cp.hops.len(), 1);
        assert_eq!(cp.hops[0].stall_cycles, 0);
        assert_eq!(cp.hops[0].producer_slot, 0);
        assert_eq!(cp.cycles, prog.len() as u64 + cfg.latency());
    }

    #[test]
    fn slack_dependence_is_not_on_the_path() {
        let cfg = config8();
        let latency = cfg.latency() as usize;
        // One extra nop of slack: the consumer is bound by program order,
        // not the dependence.
        let mut prog = vec![mov(0, 0, 1)];
        prog.extend((0..latency).map(|_| NetInstruction::nop(8)));
        prog.push(mov(0, 1, 2));
        let cp = critical_path(&prog, &cfg);
        assert!(cp.hops.is_empty(), "{:?}", cp.hops);
        assert_eq!(cp.stall_cycles, 0);
    }

    #[test]
    fn a_stall_off_the_chain_still_counts() {
        let cfg = config8();
        // Slot 2 stalls on slot 0's write; slot 3 then issues exactly when
        // slot 1's write becomes visible, so the chain jumps from slot 3
        // to slot 1 and skips the stalled slot.
        let prog = vec![mov(0, 0, 1), mov(1, 0, 1), mov(0, 1, 2), mov(1, 1, 2)];
        let cp = critical_path(&prog, &cfg);
        assert_eq!(cp.stall_cycles, cfg.latency() - 2);
        assert_eq!(cp.hops.len(), 1);
        assert_eq!((cp.hops[0].slot, cp.hops[0].producer_slot), (3, 1));
        assert_eq!(cp.hops[0].stall_cycles, 0);
        assert_eq!(cp.cycles, cfg.latency() + 2 + cfg.latency());
    }

    #[test]
    fn width_mismatch_yields_default_path() {
        let cp = critical_path(&[NetInstruction::nop(4)], &config8());
        assert_eq!(cp, CriticalPath::default());
    }
}
