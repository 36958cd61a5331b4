//! Static timing analysis: exact cycle prediction without execution.
//!
//! The MIB machine is fully deterministic and its issue rules depend only
//! on information that is *statically* present in the instruction
//! encodings — which `(bank, addr)` locations a slot reads, which lanes
//! read their broadcast latch, which writebacks are read-modify-write, how
//! many HBM words a slot consumes, and the fixed pipeline latency
//! `log₂C + 2` from [`MibConfig::latency`]. So the predictor is the
//! machine with values switched off: [`predict`] runs the machine's issue
//! engine — the width check, the pending-write window, the stall (or
//! strict rejection), the counters and the drain — with a functional
//! stage that computes no value and only replays the faults. The result
//! is a **bitwise** prediction of the run: the full [`ExecStats`], equal
//! field-for-field to what `Machine::run` returns — or, when the machine
//! would reject the program, the **same** [`MibError`] value, at the same
//! instruction in the same check order.
//!
//! [`Machine::run`](crate::machine::Machine::run) takes its own issue
//! outcome from this replay, memoised by the
//! [`Program`](crate::program::Program), and then runs the value stage
//! over the slots it lets execute. So the part of a prediction a
//! differential suite (`tests/static_timing.rs`,
//! `tests/proptest_timing.rs`) tests on its own is the agreement of the
//! fault replay with the value stage, and `tests/machine_reference.rs`
//! holds both to a dense reference interpreter that shares no code with
//! either.
//!
//! No register values are computed and no stream words are materialized.
//! Over the 120-program `verify_schedules --timing` sample at C = 32,
//! prediction took 0.34 s against the simulator's 0.59 s (`speedup` 1.74
//! in `results/BENCH_verify.json`; 1.74–1.81 over three runs). Each side
//! was timed on its own call, one machine serving every run, on a 2-vCPU
//! Intel Xeon guest. That is cheap enough to run on every compiled
//! schedule as the compiler's cost oracle
//! (`mib_compiler::cost::StaticCost`). Those are first runs, which now
//! also decode the program they run: a repeated run of one `Program`
//! under the same key pays neither the engine nor the decoding, only the
//! decoded value stage.

use crate::instruction::{NetInstruction, WriteMode};
use crate::machine::{issue_program, HazardPolicy};
use crate::pending::BindingWrite;
use crate::program::IssueOutcome;
use crate::stats::ExecStats;
use crate::{MibConfig, MibError, Result};

/// The statically predicted outcome of executing a program: the exact
/// statistics the machine would produce, plus every slot's issue cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticTiming {
    /// Predicted execution statistics, bitwise equal to the
    /// [`ExecStats`] of a real run.
    pub stats: ExecStats,
    /// Predicted issue cycle of every slot, in program order (a stall
    /// shows as a gap between consecutive entries).
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
) -> Result<StaticTiming> {
    let mut issue_cycles = Vec::with_capacity(program.len());
    let stats = replay(program, hbm_words, config, policy, |_, issue, _| {
        issue_cycles.push(issue);
    })
    .result?;
    Ok(StaticTiming {
        stats,
        issue_cycles,
    })
}

/// The issue engine with the fault-replay stage, which also counts the
/// slots it replayed: every slot on success, and on an error the slots
/// before the one that stops the run, plus that slot when the stage
/// itself faulted in it. [`predict`] and a [`Program`]'s issue outcome
/// are this.
///
/// [`Program`]: crate::program::Program
pub(crate) fn replay(
    program: &[NetInstruction],
    hbm_words: usize,
    config: &MibConfig,
    policy: HazardPolicy,
    issued: impl FnMut(usize, u64, Option<BindingWrite>),
) -> IssueOutcome {
    let mut evaluated = 0;
    // The machine reads stream words positionally, so exhaustion is a
    // pure counting question.
    let mut streamed: usize = 0;
    // The machine's fault order: per lane, the register read before the
    // stream word; output multipliers stream after the whole input stage;
    // writebacks bounds-check last (a latch write touches no bank).
    let stage = |idx: usize, inst: &NetInstruction| -> Result<()> {
        evaluated = idx + 1;
        let mut take = |n: usize| {
            streamed += n;
            if streamed > hbm_words {
                return Err(MibError::StreamExhausted { instruction: idx });
            }
            Ok(())
        };
        for (lane, src) in inst.input_locs() {
            if let Some(addr) = src.reg_addr() {
                check_addr(lane, addr, config)?;
            }
            if src.uses_stream() {
                take(1)?;
            }
        }
        take(inst.out_mul_mask().count_ones() as usize)?;
        for (lane, w) in inst.write_locs() {
            if w.mode != WriteMode::Latch {
                check_addr(lane, w.addr, config)?;
            }
        }
        Ok(())
    };
    let result = issue_program(program, config, policy, stage, issued);
    IssueOutcome { evaluated, result }
}

/// The register files' bounds check: a lane index is always in range (the
/// width check comes first), so only the address can fault.
fn check_addr(bank: usize, addr: usize, config: &MibConfig) -> Result<()> {
    if addr >= config.bank_depth {
        return Err(MibError::AddressOutOfRange {
            bank,
            addr,
            depth: config.bank_depth,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hbm::HbmStream;
    use crate::instruction::{LaneSource, LaneWrite};
    use crate::machine::Machine;

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
    /// exact agreement (full stats, or the identical error).
    fn assert_exact(program: &[NetInstruction], hbm: &[f64], cfg: &MibConfig) {
        for policy in [HazardPolicy::Stall, HazardPolicy::Strict] {
            let predicted = predict(program, hbm.len(), cfg, policy);
            let mut m = Machine::new(*cfg);
            let simulated = m.run(
                &program.to_vec().into(),
                &mut HbmStream::new(hbm.to_vec()),
                policy,
            );
            match (predicted, simulated) {
                (Ok(p), Ok(stats)) => assert_eq!(p.stats, stats, "stats mismatch under {policy:?}"),
                (Err(pe), Err(me)) => assert_eq!(pe, me, "error mismatch under {policy:?}"),
                (p, s) => panic!("verdict mismatch under {policy:?}: {p:?} vs {s:?}"),
            }
        }
    }

    #[test]
    fn empty_program_predicts_zero_cycles() {
        let t = predict(&[], 0, &config8(), HazardPolicy::Strict).unwrap();
        assert_eq!(t.cycles(), 0);
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
}
