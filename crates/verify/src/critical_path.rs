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

use mib_core::instruction::{InstrKind, NetInstruction};
use mib_core::pending::PendingWrites;
use mib_core::MibConfig;

use crate::diag::Loc;

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
    /// Total stall cycles along the chain (equals the program's
    /// `ExecStats::stall_cycles`: every stall lies on the critical path,
    /// because the machine issues in order).
    pub stall_cycles: u64,
    /// Dependence hops, earliest slot first. Empty when program order
    /// alone bounds the program (no dependence is tight).
    pub hops: Vec<CriticalHop>,
}

/// Per-slot binding constraint found during the replay.
#[derive(Debug, Clone, Copy)]
struct Binding {
    loc: Loc,
    producer_slot: usize,
    stall_cycles: u64,
}

/// Extracts the critical path of `program` under the stall policy.
///
/// Programs with a width mismatch have no meaningful lane indexing; they
/// yield an empty default path (the width errors from the structural
/// checker already refute them). Address or stream faults do not affect
/// issue timing and are ignored here — the timing predictor
/// ([`crate::timing::predict`]) is the authority on fault identity.
pub fn critical_path(program: &[NetInstruction], config: &MibConfig) -> CriticalPath {
    let width = config.width;
    if program.iter().any(|i| i.width() != width) {
        return CriticalPath::default();
    }
    let latency = config.latency();
    // The machine's pending-write window. It keeps the last `latency`
    // slots, so a write visible exactly at the earliest issue cycle — a
    // tight hop — is still in it.
    let mut pending = PendingWrites::new(config);
    let mut cycle: u64 = 0;
    let mut bindings: Vec<Option<Binding>> = Vec::with_capacity(program.len());
    let mut total_stall: u64 = 0;

    for (t, inst) in program.iter().enumerate() {
        // The machine's scan and tie rule, except that a dependence also
        // binds when its operand becomes visible exactly at the slot's
        // unconstrained issue cycle: it is what determines the issue
        // cycle, stalled or tight.
        let binding = pending.binding(inst, cycle);
        let issue = binding.map_or(cycle, |b| b.ready);
        let stall = issue - cycle;
        total_stall += stall;
        bindings.push(binding.map(|b| Binding {
            loc: if b.latch {
                Loc::Latch { lane: b.bank }
            } else {
                Loc::Reg {
                    bank: b.bank,
                    addr: b.addr,
                }
            },
            producer_slot: b.slot,
            stall_cycles: stall,
        }));

        pending.record(t, issue + latency, inst);
        cycle = issue + 1;
    }

    let cycles = if program.is_empty() {
        0
    } else {
        cycle + latency
    };

    // Walk the chain backwards from the last slot: a bound slot jumps to
    // its producer, an unbound slot to its predecessor.
    let mut hops = Vec::new();
    let mut i = program.len();
    while i > 0 {
        let slot = i - 1;
        match bindings[slot] {
            Some(b) => {
                hops.push(CriticalHop {
                    slot,
                    kind: program[slot].kind,
                    loc: b.loc,
                    producer_slot: b.producer_slot,
                    stall_cycles: b.stall_cycles,
                });
                i = b.producer_slot + 1;
            }
            None => i = slot,
        }
    }
    hops.reverse();

    CriticalPath {
        cycles,
        stall_cycles: total_stall,
        hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_core::instruction::{LaneSource, LaneWrite, WriteMode};

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
    fn width_mismatch_yields_default_path() {
        let cp = critical_path(&[NetInstruction::nop(4)], &config8());
        assert_eq!(cp, CriticalPath::default());
    }
}
