//! **mib-verify** — static analysis of compiled MIB programs: exact
//! timing prediction and critical-path extraction, without execution.
//!
//! * [`predict`] replays the issue rules of
//!   [`mib_core::machine::Machine::run`] without computing any value. It
//!   returns the run's full `ExecStats`, or the very `MibError` the
//!   machine would reject the program with, at the same instruction.
//! * [`critical_path()`] decomposes a program's cycle count into the chain
//!   of dependences that bounds it, with slot and [`Loc`] provenance.
//!
//! Because the machine is fully static, "would strict execution accept
//! this program" has one exact answer, and [`predict`] computes it. A
//! program is **certified** when
//! `predict(program, hbm_words, config, HazardPolicy::Strict)` is `Ok`;
//! the compiler adds its packing cross-check for the schedules it packs
//! (`mib_compiler::verify`). `tests/proptest_verify.rs` pins the verdict
//! against strict execution on random programs and on mutated compiled
//! schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical_path;
pub mod timing;

pub use critical_path::{critical_path, CriticalHop, CriticalPath, Loc};
pub use timing::{predict, StaticTiming};

#[cfg(test)]
mod tests {
    //! Certification is the strict prediction's verdict: each way a
    //! program can fail it is one `MibError`, with the machine's
    //! provenance.

    use super::*;
    use mib_core::instruction::{LaneSource, LaneWrite, NetInstruction, WriteMode};
    use mib_core::machine::HazardPolicy;
    use mib_core::{MibConfig, MibError};

    fn config8() -> MibConfig {
        MibConfig {
            width: 8,
            bank_depth: 64,
            clock_hz: 1e6,
        }
    }

    fn certify(
        program: &[NetInstruction],
        hbm_words: usize,
        cfg: &MibConfig,
    ) -> Result<StaticTiming, MibError> {
        predict(program, hbm_words, cfg, HazardPolicy::Strict)
    }

    /// `dst[lane] <- stream` for one lane.
    fn load(lane: usize, addr: usize) -> NetInstruction {
        let mut i = NetInstruction::nop(8);
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

    /// `dst[lane][dst_addr] <- reg[lane][src_addr]`.
    fn copy(lane: usize, src_addr: usize, dst_addr: usize) -> NetInstruction {
        let mut i = NetInstruction::nop(8);
        i.set_input(lane, LaneSource::Reg { addr: src_addr });
        i.route(lane, lane);
        i.set_write(
            lane,
            LaneWrite {
                addr: dst_addr,
                mode: WriteMode::Store,
            },
        );
        i
    }

    #[test]
    fn clean_program_certifies() {
        let cfg = config8();
        let latency = cfg.latency() as usize;
        let mut prog = vec![load(0, 3)];
        prog.extend(vec![NetInstruction::nop(8); latency - 1]);
        prog.push(copy(0, 3, 4));
        let timing = certify(&prog, 1, &cfg).expect("exact-latency spacing is legal");
        assert_eq!(timing.stats.slots, latency as u64 + 1);
        assert_eq!(timing.stats.stall_cycles, 0);
    }

    #[test]
    fn hazard_read_is_flagged_with_provenance() {
        let cfg = config8();
        let prog = vec![load(0, 3), copy(0, 3, 4)];
        assert_eq!(
            certify(&prog, 1, &cfg).unwrap_err(),
            MibError::DataHazard {
                cycle: 1,
                instruction: 1,
                bank: 0,
                addr: 3,
                latch: false,
                ready: cfg.latency(),
            }
        );
    }

    #[test]
    fn rmw_writeback_hazard_is_flagged() {
        let cfg = config8();
        // Slot 0 stores to (0, 3); slot 1 accumulates into (0, 3) — the
        // writeback's implicit read is inside the latency window.
        let mut acc = NetInstruction::nop(8);
        acc.set_input(0, LaneSource::Stream);
        acc.route(0, 0);
        acc.set_write(
            0,
            LaneWrite {
                addr: 3,
                mode: WriteMode::Add,
            },
        );
        let err = certify(&[load(0, 3), acc], 2, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                MibError::DataHazard {
                    instruction: 1,
                    bank: 0,
                    addr: 3,
                    latch: false,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn latch_hazard_is_flagged() {
        let cfg = config8();
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
                addr: 0,
                mode: WriteMode::Add,
            },
        );
        let err = certify(&[bcast, elim], 0, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                MibError::DataHazard {
                    instruction: 1,
                    bank: 0,
                    latch: true,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn stream_accounting_catches_both_directions() {
        let cfg = config8();
        let prog = vec![load(0, 3)];
        assert_eq!(
            certify(&prog, 0, &cfg).unwrap_err(),
            MibError::StreamExhausted { instruction: 0 }
        );
        // A surplus word blocks nothing (the machine tolerates leftovers),
        // and the prediction counts the one word actually consumed.
        let over = certify(&prog, 2, &cfg).expect("surplus stream certifies");
        assert_eq!(over.stats.hbm_words, 1);
    }

    #[test]
    fn width_and_address_errors() {
        let cfg = config8();
        assert_eq!(
            certify(&[NetInstruction::nop(4)], 0, &cfg).unwrap_err(),
            MibError::WidthMismatch {
                instruction: 4,
                machine: 8,
            }
        );
        assert_eq!(
            certify(&[copy(2, 64, 0)], 0, &cfg).unwrap_err(),
            MibError::AddressOutOfRange {
                bank: 2,
                addr: 64,
                depth: 64,
            }
        );
    }

    #[test]
    fn empty_program_is_trivially_certified() {
        let timing = certify(&[], 0, &config8()).expect("empty program certifies");
        assert_eq!(timing.cycles(), 0);
    }
}
