//! The pending-write window at its edges, for each of its three
//! consumers: the machine's hazard check, the static timing predictor and
//! the critical-path extractor.
//!
//! The window keeps only the last `latency` slots' writes and searches
//! them newest first. Each case below pins an answer a map of every write
//! ever made gives, where a window of the wrong length, a wrong search
//! order or a confusion of register and latch writes would give another:
//!
//! * a stalled chain whose issue cycle jumps far past the slots still in
//!   the window, which must raise no phantom hazard;
//! * two writes to one `(bank, addr)` inside the window, where the later
//!   one binds;
//! * a register write and a latch write in one slot;
//! * the oldest window slot at C = 64 and C = 128 (windows of 8 and 9
//!   slots), one cycle short of visible, and visible exactly at issue —
//!   the critical path's tight `r == cycle` binding.
//!
//! The critical path also scans in the machine's order, so a stalled hop
//! names the location the machine's `DataHazard` names.

use mib::core::critical_path::{critical_path, Loc};
use mib::core::hbm::HbmStream;
use mib::core::instruction::{LaneSource, LaneWrite, NetInstruction, WriteMode};
use mib::core::machine::{HazardPolicy, Machine};
use mib::core::program::Program;
use mib::core::stats::ExecStats;
use mib::core::timing::predict;
use mib::core::{MibConfig, MibError};

fn config(width: usize) -> MibConfig {
    MibConfig {
        width,
        bank_depth: 64,
        clock_hz: 1e6,
    }
}

/// Lane `lane` stores the next stream word at `addr` of its bank.
fn load(width: usize, lane: usize, addr: usize) -> NetInstruction {
    let mut i = NetInstruction::nop(width);
    i.set_input(lane, LaneSource::Stream);
    i.route(lane, lane);
    i.set_write(
        lane,
        LaneWrite {
            addr,
            mode: WriteMode::Store,
        },
    );
    i
}

/// Lane `lane` reads `from` in its bank and writes it back at `to`.
fn copy(width: usize, lane: usize, from: usize, to: usize, mode: WriteMode) -> NetInstruction {
    let mut i = NetInstruction::nop(width);
    i.set_input(lane, LaneSource::Reg { addr: from });
    i.route(lane, lane);
    i.set_write(lane, LaneWrite { addr: to, mode });
    i
}

fn mov(width: usize, lane: usize, from: usize, to: usize) -> NetInstruction {
    copy(width, lane, from, to, WriteMode::Store)
}

/// Slot 0 loads `(0, 1)`. Slots 1 and 2 each read the previous slot's
/// result and stall a full latency; slots 3 and 4 then read `(0, 1)` and
/// `(0, 2)`, both written by slots still in the window but visible long
/// before: they issue back to back.
fn stalled_chain() -> Vec<NetInstruction> {
    vec![
        load(8, 0, 1),
        mov(8, 0, 1, 2),
        mov(8, 0, 2, 3),
        mov(8, 0, 1, 4),
        copy(8, 0, 2, 2, WriteMode::Add),
    ]
}

/// Two loads of `(2, 7)` in a row, then a read of it.
fn rewritten() -> Vec<NetInstruction> {
    vec![load(8, 2, 7), load(8, 2, 7), mov(8, 2, 7, 0)]
}

/// One slot where lane 0 latches a stream word and lane 1 stores one at
/// address 0 — the address the latch write's unused `addr` also names.
fn register_and_latch() -> NetInstruction {
    let mut both = NetInstruction::nop(8);
    for lane in [0, 1] {
        both.set_input(lane, LaneSource::Stream);
        both.route(lane, lane);
    }
    both.set_write(
        0,
        LaneWrite {
            addr: 0,
            mode: WriteMode::Latch,
        },
    );
    both.set_write(
        1,
        LaneWrite {
            addr: 0,
            mode: WriteMode::Store,
        },
    );
    both
}

/// Lane 0 multiplies register 4 by its latch into register 5.
fn latch_read() -> NetInstruction {
    let mut i = NetInstruction::nop(8);
    i.set_input(
        0,
        LaneSource::RegTimesLatch {
            addr: 4,
            negate: false,
        },
    );
    i.route(0, 0);
    i.set_write(
        0,
        LaneWrite {
            addr: 5,
            mode: WriteMode::Store,
        },
    );
    i
}

/// At `width`: the last lane loads register 3, `gap` nops pass, and the
/// same lane reads it back.
fn gapped(width: usize, gap: u64) -> Vec<NetInstruction> {
    let mut p = vec![load(width, width - 1, 3)];
    p.extend((0..gap).map(|_| NetInstruction::nop(width)));
    p.push(mov(width, width - 1, 3, 4));
    p
}

/// The two wide configurations and their window lengths.
const WIDE: [(usize, u64); 2] = [(64, 8), (128, 9)];

fn run(
    cfg: MibConfig,
    program: &[NetInstruction],
    hbm: &[f64],
    policy: HazardPolicy,
) -> (Result<ExecStats, MibError>, Machine) {
    let mut m = Machine::new(cfg);
    let result = m.run(
        &program.to_vec().into(),
        &mut HbmStream::new(hbm.to_vec()),
        policy,
    );
    (result, m)
}

fn hazard(cycle: u64, bank: usize, addr: usize, latch: bool, ready: u64) -> MibError {
    MibError::DataHazard {
        cycle,
        instruction: cycle as usize,
        bank,
        addr,
        latch,
        ready,
    }
}

mod machine {
    use super::*;

    #[test]
    fn a_stall_past_the_window_raises_no_phantom_hazard() {
        let cfg = config(8);
        let l = cfg.latency();
        let (stats, m) = run(cfg, &stalled_chain(), &[3.0], HazardPolicy::Stall);
        let stats = stats.unwrap();
        assert_eq!(stats.stall_cycles, 2 * (l - 1));
        // Slot 4 issues at 2l + 2; then the drain.
        assert_eq!(stats.cycles, 2 * l + 3 + l);
        assert_eq!(m.regs().read(0, 3).unwrap(), 3.0);
        assert_eq!(m.regs().read(0, 4).unwrap(), 3.0);
        assert_eq!(m.regs().read(0, 2).unwrap(), 6.0);
    }

    #[test]
    fn the_later_of_two_pending_writes_binds() {
        let cfg = config(8);
        let l = cfg.latency();
        let (err, _) = run(cfg, &rewritten(), &[1.0, 2.0], HazardPolicy::Strict);
        assert_eq!(err, Err(hazard(2, 2, 7, false, 1 + l)));
        let (stats, m) = run(cfg, &rewritten(), &[1.0, 2.0], HazardPolicy::Stall);
        assert_eq!(stats.unwrap().stall_cycles, l - 1);
        assert_eq!(m.regs().read(2, 0).unwrap(), 2.0);
    }

    #[test]
    fn register_and_latch_writes_in_one_slot_bind_only_their_own_reads() {
        let cfg = config(8);
        let l = cfg.latency();
        let both = register_and_latch();
        // Register (0, 0) was never written: reading it at once is free.
        let free = [both.clone(), mov(8, 0, 0, 5)];
        let (stats, _) = run(cfg, &free, &[2.0, 3.0], HazardPolicy::Strict);
        assert_eq!(stats.unwrap().stall_cycles, 0);
        let reg = [both.clone(), mov(8, 1, 0, 5)];
        let (err, _) = run(cfg, &reg, &[2.0, 3.0], HazardPolicy::Strict);
        assert_eq!(err, Err(hazard(1, 1, 0, false, l)));
        let latch = [both, latch_read()];
        let (err, _) = run(cfg, &latch, &[2.0, 3.0], HazardPolicy::Strict);
        assert_eq!(err, Err(hazard(1, 0, 0, true, l)));
    }

    #[test]
    fn the_window_spans_the_latency_at_c64_and_c128() {
        for (width, window) in WIDE {
            let cfg = config(width);
            assert_eq!(cfg.latency(), window);
            // The producer `latency - 1` slots back: one cycle short of
            // visible.
            let (err, _) = run(
                cfg,
                &gapped(width, window - 2),
                &[1.0],
                HazardPolicy::Strict,
            );
            assert_eq!(
                err,
                Err(hazard(window - 1, width - 1, 3, false, window)),
                "C = {width}"
            );
            // `latency` slots back, the oldest slot the window keeps:
            // visible exactly at issue.
            let (stats, m) = run(
                cfg,
                &gapped(width, window - 1),
                &[1.0],
                HazardPolicy::Strict,
            );
            let stats = stats.unwrap();
            assert_eq!(stats.cycles, window + 1 + window, "C = {width}");
            assert_eq!(m.regs().read(width - 1, 4).unwrap(), 1.0);
        }
    }
}

mod timing {
    use super::*;

    /// Asserts the predictor matches the machine under both policies —
    /// full stats, or the identical error — and returns the
    /// predicted issue cycles under `Stall`.
    fn agrees(cfg: MibConfig, program: &[NetInstruction], hbm: &[f64]) -> Vec<u64> {
        let program = Program::from(program.to_vec());
        for policy in [HazardPolicy::Stall, HazardPolicy::Strict] {
            let predicted = predict(&program, hbm.len(), &cfg, policy);
            let simulated =
                Machine::new(cfg).run(&program, &mut HbmStream::new(hbm.to_vec()), policy);
            match (predicted, simulated) {
                (Ok(p), Ok(stats)) => assert_eq!(p.stats, stats, "{policy:?}"),
                (Err(pe), Err(me)) => assert_eq!(pe, me, "{policy:?}"),
                (p, s) => panic!("verdicts differ under {policy:?}: {p:?} vs {s:?}"),
            }
        }
        predict(&program, hbm.len(), &cfg, HazardPolicy::Stall)
            .unwrap()
            .issue_cycles
    }

    #[test]
    fn a_stall_past_the_window_raises_no_phantom_hazard() {
        let cfg = config(8);
        let l = cfg.latency();
        let issues = agrees(cfg, &stalled_chain(), &[3.0]);
        assert_eq!(issues, vec![0, l, 2 * l, 2 * l + 1, 2 * l + 2]);
    }

    #[test]
    fn the_later_of_two_pending_writes_binds() {
        let cfg = config(8);
        let l = cfg.latency();
        assert_eq!(agrees(cfg, &rewritten(), &[1.0, 2.0]), vec![0, 1, 1 + l]);
        let err = predict(&rewritten().into(), 2, &cfg, HazardPolicy::Strict);
        assert_eq!(err, Err(hazard(2, 2, 7, false, 1 + l)));
    }

    #[test]
    fn register_and_latch_writes_in_one_slot_bind_only_their_own_reads() {
        let cfg = config(8);
        let l = cfg.latency();
        let both = register_and_latch();
        assert_eq!(
            agrees(cfg, &[both.clone(), mov(8, 0, 0, 5)], &[2.0, 3.0]),
            vec![0, 1]
        );
        let reg = [both.clone(), mov(8, 1, 0, 5)];
        assert_eq!(agrees(cfg, &reg, &[2.0, 3.0]), vec![0, l]);
        assert_eq!(
            predict(&reg.to_vec().into(), 2, &cfg, HazardPolicy::Strict),
            Err(hazard(1, 1, 0, false, l))
        );
        let latch = [both, latch_read()];
        assert_eq!(agrees(cfg, &latch, &[2.0, 3.0]), vec![0, l]);
        assert_eq!(
            predict(&latch.to_vec().into(), 2, &cfg, HazardPolicy::Strict),
            Err(hazard(1, 0, 0, true, l))
        );
    }

    #[test]
    fn the_window_spans_the_latency_at_c64_and_c128() {
        for (width, window) in WIDE {
            let cfg = config(width);
            let short = gapped(width, window - 2);
            assert_eq!(*agrees(cfg, &short, &[1.0]).last().unwrap(), window);
            assert_eq!(
                predict(&short.clone().into(), 1, &cfg, HazardPolicy::Strict),
                Err(hazard(window - 1, width - 1, 3, false, window))
            );
            let exact = gapped(width, window - 1);
            assert_eq!(*agrees(cfg, &exact, &[1.0]).last().unwrap(), window);
            let t = predict(&exact.clone().into(), 1, &cfg, HazardPolicy::Strict).unwrap();
            assert_eq!(t.cycles(), window + 1 + window, "C = {width}");
        }
    }
}

mod critical {
    use super::*;

    #[test]
    fn a_stall_past_the_window_raises_no_phantom_hazard() {
        let cfg = config(8);
        let l = cfg.latency();
        let cp = critical_path(&stalled_chain(), &cfg);
        assert_eq!(cp.stall_cycles, 2 * (l - 1));
        assert_eq!(cp.cycles, 2 * l + 3 + l);
        let hops: Vec<_> = cp
            .hops
            .iter()
            .map(|h| (h.slot, h.producer_slot, h.loc, h.stall_cycles))
            .collect();
        assert_eq!(
            hops,
            vec![
                (1, 0, Loc::Reg { bank: 0, addr: 1 }, l - 1),
                (2, 1, Loc::Reg { bank: 0, addr: 2 }, l - 1),
            ]
        );
    }

    #[test]
    fn the_later_of_two_pending_writes_binds() {
        let cfg = config(8);
        let l = cfg.latency();
        let cp = critical_path(&rewritten(), &cfg);
        assert_eq!(cp.hops.len(), 1);
        assert_eq!(cp.hops[0].slot, 2);
        assert_eq!(cp.hops[0].producer_slot, 1);
        assert_eq!(cp.hops[0].stall_cycles, l - 1);
    }

    #[test]
    fn register_and_latch_writes_in_one_slot_bind_only_their_own_reads() {
        let cfg = config(8);
        let l = cfg.latency();
        let both = register_and_latch();
        let free = critical_path(&[both.clone(), mov(8, 0, 0, 5)], &cfg);
        assert!(free.hops.is_empty(), "{:?}", free.hops);
        let reg = critical_path(&[both.clone(), mov(8, 1, 0, 5)], &cfg);
        assert_eq!(reg.hops.len(), 1);
        assert_eq!(reg.hops[0].loc, Loc::Reg { bank: 1, addr: 0 });
        assert_eq!(reg.hops[0].stall_cycles, l - 1);
        let latch = critical_path(&[both, latch_read()], &cfg);
        assert_eq!(latch.hops.len(), 1);
        assert_eq!(latch.hops[0].loc, Loc::Latch { lane: 0 });
        assert_eq!(latch.hops[0].stall_cycles, l - 1);
    }

    #[test]
    fn the_oldest_window_slot_binds_tight_at_c64_and_c128() {
        for (width, window) in WIDE {
            let cfg = config(width);
            let loc = Loc::Reg {
                bank: width - 1,
                addr: 3,
            };
            // One cycle short: a stalled hop.
            let short = critical_path(&gapped(width, window - 2), &cfg);
            assert_eq!(short.hops.len(), 1, "C = {width}");
            assert_eq!(short.hops[0].stall_cycles, 1);
            // Visible exactly at issue, from the oldest slot the window
            // keeps: a tight hop, r == cycle.
            let tight = critical_path(&gapped(width, window - 1), &cfg);
            assert_eq!(tight.hops.len(), 1, "C = {width}");
            let hop = tight.hops[0];
            assert_eq!(
                (hop.slot, hop.producer_slot, hop.loc, hop.stall_cycles),
                (window as usize, 0, loc, 0)
            );
            // One more slot of slack: order-bound, no hop.
            let slack = critical_path(&gapped(width, window), &cfg);
            assert!(slack.hops.is_empty(), "C = {width}: {:?}", slack.hops);
        }
    }

    #[test]
    fn tight_ties_bind_the_first_location_and_a_later_ready_rebinds() {
        let cfg = config(8);
        let l = cfg.latency();
        let mut producers = load(8, 0, 1);
        producers.set_input(1, LaneSource::Stream);
        producers.route(1, 1);
        producers.set_write(
            1,
            LaneWrite {
                addr: 2,
                mode: WriteMode::Store,
            },
        );
        let mut reader = mov(8, 0, 1, 5);
        reader.set_input(1, LaneSource::Reg { addr: 2 });
        reader.route(1, 1);
        // Both reads become visible exactly at the reader's issue cycle:
        // the first in scan order (lane 0) binds.
        let mut tie = vec![producers];
        tie.extend((0..l - 1).map(|_| NetInstruction::nop(8)));
        tie.push(reader.clone());
        let cp = critical_path(&tie, &cfg);
        assert_eq!(cp.hops.len(), 1);
        assert_eq!(cp.hops[0].loc, Loc::Reg { bank: 0, addr: 1 });
        assert_eq!(cp.hops[0].stall_cycles, 0);
        // Lane 1's producer one slot later: its read rebinds, one cycle
        // of stall.
        let mut split = vec![load(8, 0, 1), load(8, 1, 2)];
        split.extend((0..l - 2).map(|_| NetInstruction::nop(8)));
        split.push(reader);
        let cp = critical_path(&split, &cfg);
        assert_eq!(cp.hops.len(), 1);
        assert_eq!(cp.hops[0].loc, Loc::Reg { bank: 1, addr: 2 });
        assert_eq!(cp.hops[0].producer_slot, 1);
        assert_eq!(cp.hops[0].stall_cycles, 1);
    }

    #[test]
    fn a_stalled_hop_names_the_location_the_machine_names() {
        let cfg = config(8);
        let l = cfg.latency();
        // Lane 0 reads its latch and lane 1 register (1, 0): both written
        // by slot 0, visible at the same cycle. The machine scans lane by
        // lane and names the latch.
        let mut reader = latch_read();
        reader.set_input(1, LaneSource::Reg { addr: 0 });
        reader.route(1, 1);
        let program = [register_and_latch(), reader];
        let (err, _) = run(cfg, &program, &[2.0, 3.0], HazardPolicy::Strict);
        assert_eq!(err, Err(hazard(1, 0, 0, true, l)));
        let cp = critical_path(&program, &cfg);
        assert_eq!(cp.hops.len(), 1);
        assert_eq!(cp.hops[0].loc, Loc::Latch { lane: 0 });
        assert_eq!(cp.hops[0].producer_slot, 0);
    }
}
