//! Cycle-accurate model of the **Multi-Issue Butterfly (MIB)** spatial
//! architecture (Section III of the paper).
//!
//! The machine consists of:
//!
//! * `C` single-port **register-file banks** ([`regfile::RegisterFiles`]);
//!   lane *i* of the network reads from and writes to bank *i* only — data
//!   is moved between banks by the network itself,
//! * a **multiplier stage** of `C` nodes, each able to bypass its register
//!   operand, inject an HBM stream word, or multiply the register operand by
//!   a stream word / a per-lane broadcast latch / an immediate
//!   ([`instruction::LaneSource`]),
//! * `log₂C` **adder stages** of `C` multi-mode nodes; node *j* of stage *s*
//!   sees the previous stage's lane *j* ("direct") and lane *j XOR 2ˢ*
//!   ("cross") and selects `Direct`, `Cross`, their `Sum`, or `Idle` — the
//!   four 2-bit modes of Figure 5,
//! * a **writeback stage** that stores, accumulates (`Add`), reciprocates
//!   (`Recip`, used for LDLᵀ pivots) or latches the lane value,
//! * an **HBM stream** ([`hbm::HbmStream`]) delivering up to `C` contiguous
//!   words per cycle alongside the instruction stream.
//!
//! One [`instruction::NetInstruction`] is the full per-cycle configuration
//! of every node — *multi-issue* means the compiler merges several logical
//! operations into one configuration wherever their node-occupancy vectors
//! and register ports do not collide (Section IV). The
//! [`machine::Machine`] executes programs functionally while enforcing the
//! pipeline hazard rules, so a mis-scheduled program either stalls (with
//! stalls counted) or fails verification.
//!
//! One issue engine serves three consumers: [`machine::Machine::run`],
//! whose functional stage is the decoder — one pass over the slots yields
//! the run's result and the decoded slots its value stage executes, both
//! memoised once per [`program::Program`] — [`timing::predict`], which
//! runs the same decoder as a check that records nothing (values off:
//! exact `ExecStats` or the machine's exact error, without execution)
//! and memoises its own first result per `Program`, apart from the run's,
//! and [`critical_path::critical_path`] (the chain of dependences bounding
//! a program). The per-slot fault order is written once, in the decoder.
//! Because the machine is fully static, "would strict execution accept
//! this program" has one exact answer, and `predict` computes it. A
//! program is **certified** when `predict(program, hbm_words, config,
//! HazardPolicy::Strict)` is `Ok`; the compiler adds its packing
//! cross-check for the schedules it packs (`mib_compiler::verify`).
//! `tests/proptest_verify.rs` pins the verdict against strict execution
//! on random programs and on mutated compiled schedules.
//!
//! Two fidelity notes relative to the paper, also recorded in DESIGN.md:
//! the paper leaves the column-elimination datapath partially unspecified;
//! we concretize it with a per-lane *broadcast latch* (loaded by the
//! Fig. 6b distribution instruction) and an accumulating writeback port.
//! Both are standard FPGA datapath elements and preserve the paper's port
//! counts (one read, one write per bank per cycle).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod critical_path;
mod error;
pub mod hbm;
pub mod instruction;
pub mod machine;
mod pending;
pub mod program;
pub mod regfile;
pub mod stats;
pub mod timing;

pub use config::MibConfig;
pub use error::MibError;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, MibError>;

#[cfg(test)]
mod tests {
    //! Certification is the strict prediction's verdict: each way a
    //! program can fail it is one `MibError`, with the machine's
    //! provenance.

    use super::*;
    use crate::instruction::{LaneSource, LaneWrite, NetInstruction, WriteMode};
    use crate::machine::HazardPolicy;
    use crate::timing::{predict, StaticTiming};

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
    ) -> Result<StaticTiming> {
        predict(
            &program.to_vec().into(),
            hbm_words,
            cfg,
            HazardPolicy::Strict,
        )
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
