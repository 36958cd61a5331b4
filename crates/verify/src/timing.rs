//! Static timing analysis: exact cycle prediction without execution.
//!
//! The MIB machine is fully deterministic and its issue rules depend only
//! on information that is *statically* present in the instruction
//! encodings — which `(bank, addr)` locations a slot reads, which lanes
//! read their broadcast latch, which writebacks are read-modify-write, how
//! many HBM words a slot consumes, and the fixed pipeline latency
//! `log₂C + 2` from [`MibConfig::latency`]. [`predict`] replays exactly
//! the issue rules of [`Machine::run`](mib_core::machine::Machine::run) —
//! the machine's own pending-write window and hazard scan
//! ([`PendingWrites`]), the in-order single-slot-per-cycle issue, the
//! stall (or strict rejection) on a pending write, the streaming-window
//! merge and the final pipeline drain — while skipping all functional
//! evaluation. The result is a
//! **bitwise** prediction of the run:
//!
//! * the full [`ExecStats`] (cycles, slots, stalls, FLOPs, HBM words,
//!   register traffic, per-kind slot counts), and
//! * the full [`Timeline`] (per-kind issue/stall buckets, drain, stage
//!   occupancy, merged HBM windows),
//!
//! equal field-for-field to what `Machine::run_with_timeline` returns —
//! or, when the machine would reject the program, the **same**
//! [`MibError`] value it would reject it with, detected at the same
//! instruction in the same check order. This exactness is proven
//! differentially over the whole benchmark program suite and under
//! proptest mutation (`tests/static_timing.rs`,
//! `tests/proptest_timing.rs`).
//!
//! No register values are computed and no stream words are materialized.
//! Like the machine, the predictor visits only the lanes a slot uses (the
//! instruction's lane masks), and the per-slot counts are popcounts, so
//! what remains is the hazard scan and the fault replay. Over the
//! 120-program `verify_schedules --timing` sample at C = 32, prediction
//! took 0.32 s against the simulator's 0.44 s (`speedup` 1.38 in
//! `results/BENCH_verify.json`; 1.4–1.6 over four runs). Each side was
//! timed on its own call, one machine serving every run, on a 2-vCPU
//! Intel Xeon guest. That is cheap enough to run on every compiled
//! schedule as the compiler's cost oracle
//! (`mib_compiler::cost::StaticCost`).

use mib_core::instruction::{NetInstruction, WriteMode};
use mib_core::machine::HazardPolicy;
use mib_core::pending::PendingWrites;
use mib_core::stats::ExecStats;
use mib_core::timeline::Timeline;
use mib_core::{MibConfig, MibError};

/// The statically predicted outcome of executing a program: the exact
/// statistics and cycle-attributed timeline the machine would produce.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticTiming {
    /// Predicted execution statistics, bitwise equal to the
    /// [`ExecStats`] of a real run.
    pub stats: ExecStats,
    /// Predicted cycle attribution, bitwise equal to the [`Timeline`]
    /// of a real `run_with_timeline`.
    pub timeline: Timeline,
    /// Predicted issue cycle of every slot, in program order (the basis
    /// of critical-path extraction and slack reporting).
    pub issue_cycles: Vec<u64>,
}

impl StaticTiming {
    /// Predicted total cycles (`stats.cycles`).
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }
}

/// Statically predicts the exact timing of `program` on a machine with
/// `config`, fed by an HBM stream of `hbm_words` words, under the given
/// hazard policy.
///
/// # Errors
///
/// Returns precisely the [`MibError`] the machine's execution would
/// return: [`MibError::WidthMismatch`], [`MibError::DataHazard`] (strict
/// policy only), [`MibError::AddressOutOfRange`] or
/// [`MibError::StreamExhausted`] — same variant, same payload, detected
/// in the machine's own check order.
pub fn predict(
    program: &[NetInstruction],
    hbm_words: usize,
    config: &MibConfig,
    policy: HazardPolicy,
) -> Result<StaticTiming, MibError> {
    let width = config.width;
    let latency = config.latency();
    let mut stats = ExecStats::default();
    let mut timeline = Timeline::default();
    let mut issue_cycles = Vec::with_capacity(program.len());
    // The same pending-write window the machine keeps.
    let mut pending = PendingWrites::new(config);
    let mut cycle: u64 = 0;
    // Stream cursor: the machine reads words positionally, so exhaustion
    // is a pure counting question.
    let mut streamed: usize = 0;

    for (idx, inst) in program.iter().enumerate() {
        if inst.width() != width {
            return Err(MibError::WidthMismatch {
                instruction: inst.width(),
                machine: width,
            });
        }

        // Issue rule: the machine's own scan over the same window, so the
        // *binding* hazard matches the strict-mode error provenance.
        let hazard = pending.binding(inst, cycle + 1);
        let issue = hazard.map_or(cycle, |h| h.ready);
        if let Some(h) = hazard {
            if policy == HazardPolicy::Strict {
                return Err(MibError::DataHazard {
                    cycle,
                    instruction: idx,
                    bank: h.bank,
                    addr: h.addr,
                    latch: h.latch,
                    ready: h.ready,
                });
            }
            stats.stall_cycles += issue - cycle;
        }

        // Fault replay of the functional stage, in evaluation order, so a
        // failing program's predicted error matches the machine's: per
        // lane, the register read happens before the stream word; output
        // multipliers stream after the whole input stage; writebacks
        // bounds-check last.
        let hbm_words_before = stats.hbm_words;
        for (lane, src) in inst.input_locs() {
            if let Some(addr) = src.reg_addr() {
                check_addr(lane, addr, config)?;
                stats.reg_reads += 1;
            }
            // Latch reads touch no addressable storage: no fault. The
            // stream word (if any) is consumed after the register read,
            // matching the machine's evaluation order within the lane.
            if src.uses_stream() {
                take_words(1, &mut streamed, hbm_words, idx, &mut stats)?;
            }
        }
        let out_words = inst.out_mul_mask().count_ones() as usize;
        take_words(out_words, &mut streamed, hbm_words, idx, &mut stats)?;
        for (lane, w) in inst.write_locs() {
            if w.mode != WriteMode::Latch {
                check_addr(lane, w.addr, config)?;
            }
        }
        stats.reg_writes += inst.write_count();
        stats.flops += inst.flop_count();

        // Writeback visibility, identical to the machine's bookkeeping.
        pending.record(idx, issue + latency, inst);

        stats.slots += 1;
        stats.busy_nodes += inst.busy_nodes() as u64;
        stats.count_kind(inst.kind);
        timeline.record_slot(
            inst.kind,
            issue,
            issue - cycle,
            &inst.stage_occupancy(),
            stats.hbm_words - hbm_words_before,
        );
        issue_cycles.push(issue);
        cycle = issue + 1;
    }

    let drain = if stats.slots > 0 { latency } else { 0 };
    stats.cycles = cycle + drain;
    timeline.drain_cycles = drain;
    Ok(StaticTiming {
        stats,
        timeline,
        issue_cycles,
    })
}

/// Mirrors `RegisterFiles::check`: a lane index is always in range (the
/// width check above guarantees it), so only the address can fault.
fn check_addr(bank: usize, addr: usize, config: &MibConfig) -> Result<(), MibError> {
    if addr >= config.bank_depth {
        return Err(MibError::AddressOutOfRange {
            bank,
            addr,
            depth: config.bank_depth,
        });
    }
    Ok(())
}

/// Mirrors `Machine::stream_word`, `n` times: positional consumption,
/// exhaustion at the instruction requesting the missing word.
fn take_words(
    n: usize,
    streamed: &mut usize,
    hbm_words: usize,
    instruction: usize,
    stats: &mut ExecStats,
) -> Result<(), MibError> {
    if *streamed + n > hbm_words {
        return Err(MibError::StreamExhausted { instruction });
    }
    *streamed += n;
    stats.hbm_words += n as u64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_core::hbm::HbmStream;
    use mib_core::instruction::{InstrKind, LaneSource, LaneWrite};
    use mib_core::machine::Machine;

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

    /// Runs both the predictor and the machine under `policy` and asserts
    /// exact agreement (stats + timeline, or the identical error).
    fn assert_exact(program: &[NetInstruction], hbm: &[f64], cfg: &MibConfig) {
        for policy in [HazardPolicy::Stall, HazardPolicy::Strict] {
            let predicted = predict(program, hbm.len(), cfg, policy);
            let mut m = Machine::new(*cfg);
            let simulated = m.run_with_timeline(program, &mut HbmStream::new(hbm.to_vec()), policy);
            match (predicted, simulated) {
                (Ok(p), Ok((stats, tl))) => {
                    assert_eq!(p.stats, stats, "stats mismatch under {policy:?}");
                    assert_eq!(p.timeline, tl, "timeline mismatch under {policy:?}");
                }
                (Err(pe), Err(me)) => assert_eq!(pe, me, "error mismatch under {policy:?}"),
                (p, s) => panic!("verdict mismatch under {policy:?}: {p:?} vs {s:?}"),
            }
        }
    }

    #[test]
    fn empty_program_predicts_zero_cycles() {
        let t = predict(&[], 0, &config8(), HazardPolicy::Strict).unwrap();
        assert_eq!(t.cycles(), 0);
        assert_eq!(t.timeline.total_cycles(), 0);
        assert!(t.issue_cycles.is_empty());
    }

    #[test]
    fn hazard_free_chain_predicts_slots_plus_drain() {
        let cfg = config8();
        let latency = cfg.latency() as usize;
        let mut prog = vec![mov(0, 0, 1)];
        prog.extend((0..latency - 1).map(|_| NetInstruction::nop(8)));
        prog.push(mov(0, 1, 2));
        let t = predict(&prog, 0, &cfg, HazardPolicy::Strict).unwrap();
        assert_eq!(t.cycles(), prog.len() as u64 + cfg.latency());
        assert_eq!(t.stats.stall_cycles, 0);
        assert_exact(&prog, &[], &cfg);
    }

    #[test]
    fn stalling_pair_matches_machine_exactly() {
        let cfg = config8();
        let prog = vec![mov(0, 0, 1), mov(0, 1, 2)];
        let t = predict(&prog, 0, &cfg, HazardPolicy::Stall).unwrap();
        assert_eq!(t.stats.stall_cycles, cfg.latency() - 1);
        assert_eq!(
            t.timeline.stall_cycles_by_kind[InstrKind::Nop.index()],
            cfg.latency() - 1
        );
        assert_exact(&prog, &[], &cfg);
        // Strict policy predicts the machine's exact DataHazard payload.
        let err = predict(&prog, 0, &cfg, HazardPolicy::Strict).unwrap_err();
        assert_eq!(
            err,
            MibError::DataHazard {
                cycle: 1,
                instruction: 1,
                bank: 0,
                addr: 1,
                latch: false,
                ready: cfg.latency(),
            }
        );
    }

    #[test]
    fn latch_hazard_and_rmw_hazard_predicted() {
        let cfg = config8();
        // Broadcast into latches, consume immediately.
        let mut bcast = NetInstruction::nop(8);
        bcast.set_input(1, LaneSource::Reg { addr: 0 });
        for dst in 0..8 {
            bcast.route(1, dst);
        }
        for lane in 0..8 {
            bcast.set_write(
                lane,
                LaneWrite {
                    addr: 0,
                    mode: WriteMode::Latch,
                },
            );
        }
        let mut elim = NetInstruction::nop(8);
        elim.set_input(
            0,
            LaneSource::RegTimesLatch {
                addr: 1,
                negate: true,
            },
        );
        elim.route(0, 0);
        elim.set_write(
            0,
            LaneWrite {
                addr: 2,
                mode: WriteMode::Add,
            },
        );
        assert_exact(&[bcast, elim], &[], &cfg);
    }

    #[test]
    fn stream_exhaustion_predicted_at_the_same_instruction() {
        let cfg = config8();
        let mut i = NetInstruction::nop(8);
        i.set_input(0, LaneSource::Stream);
        i.route(0, 0);
        i.set_write(
            0,
            LaneWrite {
                addr: 0,
                mode: WriteMode::Store,
            },
        );
        let prog = vec![i.clone(), i];
        // One word for two streaming slots: instruction 1 exhausts.
        let err = predict(&prog, 1, &cfg, HazardPolicy::Stall).unwrap_err();
        assert_eq!(err, MibError::StreamExhausted { instruction: 1 });
        assert_exact(&prog, &[1.0], &cfg);
    }

    #[test]
    fn width_and_address_faults_predicted() {
        let cfg = config8();
        assert_exact(&[NetInstruction::nop(4)], &[], &cfg);
        assert_exact(&[mov(2, 64, 0)], &[], &cfg);
        assert_exact(&[mov(2, 0, 64)], &[], &cfg);
    }

    #[test]
    fn hbm_windows_merge_like_the_machine() {
        let cfg = config8();
        let mut load = NetInstruction::nop(8);
        load.set_input(3, LaneSource::Stream);
        load.route(3, 3);
        load.set_write(
            3,
            LaneWrite {
                addr: 1,
                mode: WriteMode::Store,
            },
        );
        // Two contiguous streaming slots, a gap, then one more.
        let prog = vec![
            load.clone(),
            load.clone(),
            NetInstruction::nop(8),
            load.clone(),
        ];
        let t = predict(&prog, 3, &cfg, HazardPolicy::Strict).unwrap();
        assert_eq!(t.timeline.hbm_windows.len(), 2);
        assert_exact(&prog, &[1.0, 2.0, 3.0], &cfg);
    }
}
