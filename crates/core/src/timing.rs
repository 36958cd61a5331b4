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
//! strict rejection), the counters and the drain — with the machine's
//! decoder as its functional stage, in a check-only instantiation that
//! computes no value and records nothing. The result is a **bitwise**
//! prediction of the run: the full [`ExecStats`], equal field-for-field
//! to what `Machine::run` returns — or, when the machine would reject the
//! program, the **same** [`MibError`](crate::MibError) value, at the
//! same instruction in the same check order.
//!
//! [`Machine::run`](crate::machine::Machine::run) runs the same engine
//! with the same decoder, which there also records the decoded form its
//! value stage executes. So the fault order is written once, and the part
//! of a prediction a differential suite (`tests/static_timing.rs`,
//! `tests/proptest_timing.rs`) tests on its own is the agreement of the
//! decoder's cut with the value stage; `tests/machine_reference.rs` holds
//! the machine to a dense reference interpreter that shares no code with
//! either.
//!
//! No register values are computed, no stream words are materialized and
//! no adder stage is walked. The predictor's cost beside the simulator's,
//! over the 120-program `verify_schedules --timing` sample, is recorded in
//! `results/BENCH_verify.json` (`analysis_us`, `simulation_us`,
//! `speedup`); it is cheap enough to run on every compiled schedule as the
//! compiler's cost oracle (`mib_compiler::cost::StaticCost`). Those are
//! first runs and first predictions. A repeated run of one `Program`
//! under the same key pays neither the engine nor the decoding, only the
//! decoded value stage; a repeated prediction under the key of the
//! program's first one is a copy of the stored [`StaticTiming`] or
//! error, from a memo of `predict`'s own (see [`predict`]).

use crate::instruction::NetInstruction;
use crate::machine::{issue_program, HazardPolicy};
use crate::pending::PendingWrites;
use crate::program::{Decoded, Program};
use crate::stats::ExecStats;
use crate::{MibConfig, Result};

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
/// The [`Program`] memoises its first prediction with that key
/// (configuration, policy, stream words). A prediction under the same
/// key returns a copy of it, the error included; one under another key
/// is computed afresh and not stored. The memo is the predictor's
/// own: it never reads what a run memoised, nor a run what it holds.
///
/// # Errors
///
/// Returns precisely the error the machine's execution would return —
/// [`WidthMismatch`], [`DataHazard`] (strict policy only),
/// [`AddressOutOfRange`] or [`StreamExhausted`] — same variant, same
/// payload, detected in the machine's own check order.
///
/// [`WidthMismatch`]: crate::MibError::WidthMismatch
/// [`DataHazard`]: crate::MibError::DataHazard
/// [`AddressOutOfRange`]: crate::MibError::AddressOutOfRange
/// [`StreamExhausted`]: crate::MibError::StreamExhausted
pub fn predict(
    program: &Program,
    hbm_words: usize,
    config: &MibConfig,
    policy: HazardPolicy,
) -> Result<StaticTiming> {
    let fresh = || analyse(program, hbm_words, config, policy);
    match program.timing(config, policy, hbm_words, fresh) {
        Some(held) => held.clone(),
        None => fresh(),
    }
}

/// The issue engine's pass behind [`predict`].
fn analyse(
    program: &[NetInstruction],
    hbm_words: usize,
    config: &MibConfig,
    policy: HazardPolicy,
) -> Result<StaticTiming> {
    let mut issue_cycles = Vec::with_capacity(program.len());
    // The machine's decoder as a check: it records nothing, so this form
    // stays empty.
    let (mut unused, mut words) = (Decoded::default(), hbm_words);
    let depth = config.bank_depth;
    let stats = issue_program(
        program,
        config,
        policy,
        &mut PendingWrites::new(config),
        |idx, inst| unused.decode::<false>(idx, inst, depth, &mut words),
        |_, issue, _| issue_cycles.push(issue),
    )?;
    Ok(StaticTiming {
        stats,
        issue_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hbm::HbmStream;
    use crate::instruction::{LaneSource, LaneWrite, OutMul, WriteMode};
    use crate::machine::Machine;
    use crate::MibError;

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
            let program = Program::from(program.to_vec());
            let predicted = predict(&program, hbm.len(), cfg, policy);
            let mut m = Machine::new(*cfg);
            let simulated = m.run(&program, &mut HbmStream::new(hbm.to_vec()), policy);
            match (predicted, simulated) {
                (Ok(p), Ok(stats)) => assert_eq!(p.stats, stats, "stats mismatch under {policy:?}"),
                (Err(pe), Err(me)) => assert_eq!(pe, me, "error mismatch under {policy:?}"),
                (p, s) => panic!("verdict mismatch under {policy:?}: {p:?} vs {s:?}"),
            }
        }
    }

    #[test]
    fn empty_program_predicts_zero_cycles() {
        let t = predict(&Vec::new().into(), 0, &config8(), HazardPolicy::Strict).unwrap();
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
        let t = predict(&prog.clone().into(), 0, &cfg, HazardPolicy::Strict).unwrap();
        assert_eq!(t.cycles(), prog.len() as u64 + cfg.latency());
        assert_eq!(t.stats.stall_cycles, 0);
        assert_exact(&prog, &[], &cfg);
    }

    #[test]
    fn stalling_pair_matches_machine_exactly() {
        let cfg = config8();
        let prog = Program::from(vec![mov(0, 0, 1), mov(0, 1, 2)]);
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
    fn the_first_prediction_is_memoised_errors_included() {
        let cfg = config8();
        let prog = Program::from(vec![mov(0, 0, 1), mov(0, 1, 2)]);
        let refused = predict(&prog, 0, &cfg, HazardPolicy::Strict);
        assert!(refused.is_err());
        // A memo read predicts nothing; every other key misses the memo.
        let unused = || panic!("a memo read must not predict");
        let strict = HazardPolicy::Strict;
        assert_eq!(prog.timing(&cfg, strict, 0, unused), Some(&refused));
        assert_eq!(prog.timing(&cfg, HazardPolicy::Stall, 0, unused), None);
        assert_eq!(prog.timing(&cfg, strict, 1, unused), None);
        let deeper = MibConfig {
            bank_depth: 65,
            ..cfg
        };
        assert_eq!(prog.timing(&deeper, strict, 0, unused), None);
        // A prediction under another key stores nothing.
        let stalled = predict(&prog, 0, &cfg, HazardPolicy::Stall).unwrap();
        assert_eq!(stalled.stats.stall_cycles, cfg.latency() - 1);
        assert_eq!(prog.timing(&cfg, strict, 0, unused), Some(&refused));
        assert_eq!(predict(&prog, 0, &cfg, strict), refused);
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
        let prog = Program::from(vec![i.clone(), i]);
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
        // With no stream word left, a lane's register address faults
        // before its stream word, and the output multiplier's stream word
        // before a write address.
        let mut read = mov(2, 0, 0);
        read.set_input(
            3,
            LaneSource::RegTimesStream {
                addr: 64,
                negate: false,
            },
        );
        let mut write = mov(2, 0, 64);
        write.set_out_mul(2, OutMul::MulStream { negate: false });
        for (inst, fault) in [
            (
                read,
                MibError::AddressOutOfRange {
                    bank: 3,
                    addr: 64,
                    depth: 64,
                },
            ),
            (write, MibError::StreamExhausted { instruction: 0 }),
        ] {
            let prog = Program::from(vec![inst]);
            assert_eq!(predict(&prog, 0, &cfg, HazardPolicy::Strict), Err(fault));
            assert_exact(&prog, &[], &cfg);
        }
    }
}
