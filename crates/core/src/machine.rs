//! The pipelined MIB machine: functional execution plus cycle-accurate
//! hazard accounting.
//!
//! The machine issues at most one (merged) network instruction per cycle.
//! The pipeline is fully static: results become architecturally visible
//! `latency = log₂C + 2` cycles after issue (multiplier stage, `log₂C`
//! adder stages, writeback). A program whose consumer issues inside a
//! producer's latency window has a **data hazard**; under
//! [`HazardPolicy::Stall`] the machine delays issue (counting stall
//! cycles), under [`HazardPolicy::Strict`] it reports an error — the mode
//! used to verify that compiler schedules are hazard-free.
//!
//! Those issue rules live in one place, `issue_program`, generic over the
//! functional stage it runs for each slot. [`Machine::run`]'s stage is
//! the decoder, which checks each slot for address and stream faults and
//! appends it to a decoded form: flat lists of reads, adds, output
//! multiplies and writes. [`crate::timing::predict`] runs the same
//! decoder as a check that records nothing, and
//! [`crate::critical_path::critical_path`] a stage that does nothing.
//! Issue never depends on a value, so a run is that build, memoised by
//! the [`Program`] for the key of its first run and otherwise made into
//! the machine's own scratch, followed by the value stage (registers,
//! latches, the HBM stream) over the one decoded form.

use crate::hbm::HbmStream;
use crate::instruction::NetInstruction;
use crate::pending::{BindingWrite, PendingWrites};
use crate::program::{Decoded, Program};
use crate::regfile::RegisterFiles;
use crate::stats::ExecStats;
use crate::{MibConfig, MibError, Result};

/// How the machine reacts to data hazards in the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HazardPolicy {
    /// Delay issue until operands are ready, counting the lost cycles.
    #[default]
    Stall,
    /// Fail with [`MibError::DataHazard`] — schedules from the compiler
    /// must pass strict verification.
    Strict,
}

/// A Multi-Issue Butterfly machine instance.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MibConfig,
    regs: RegisterFiles,
    latches: Vec<f64>,
    /// The value stage's scratch words, one per value a slot can form:
    /// word 0, never written, is the zero every idle or dead input reads.
    values: Vec<f64>,
    /// The decoded form of a run under a key other than its program's
    /// memo, and the pending-write window that run's issue engine uses.
    form: Decoded,
    window: PendingWrites,
}

impl Machine {
    /// Builds a machine for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the register files hold more than 2³² words.
    pub fn new(config: MibConfig) -> Self {
        let regs = RegisterFiles::new(config.width, config.bank_depth);
        let words = config.width * config.bank_depth;
        assert!(
            words as u64 <= 1 << 32,
            "register files of {words} words exceed 32-bit indices"
        );
        Machine {
            config,
            regs,
            latches: vec![0.0; config.width],
            // The zero word, the reads, the adds of every stage and the
            // output multiplies.
            values: vec![0.0; 1 + config.width * (config.stages() + 2)],
            form: Decoded::default(),
            window: PendingWrites::new(&config),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MibConfig {
        &self.config
    }

    /// The register files (e.g. to read results after a run).
    pub fn regs(&self) -> &RegisterFiles {
        &self.regs
    }

    /// Resets registers and latches to zero.
    pub fn reset(&mut self) {
        self.regs.clear();
        self.latches.fill(0.0);
    }

    /// Executes a program against the HBM stream, returning statistics.
    ///
    /// A run is the program's build — its statistics or its error, and
    /// the decoded form of the slots that execute — followed by the value
    /// stage over that form. When this run has the key of the
    /// [`Program`]'s first run (configuration, policy, stream words left),
    /// the build is the program's memo, made by that first run; under
    /// another key it is made into the machine's own scratch. The value
    /// stage is the registers, latches and stream: on an error it stops
    /// where the engine stopped, having run the faulting slot up to an
    /// address or stream fault, so the partial register state and the
    /// stream cursor are the ones the fault leaves.
    ///
    /// # Errors
    ///
    /// Returns [`MibError::DataHazard`] (strict policy),
    /// [`MibError::StreamExhausted`], [`MibError::WidthMismatch`] or
    /// [`MibError::AddressOutOfRange`].
    pub fn run(
        &mut self,
        program: &Program,
        hbm: &mut HbmStream,
        policy: HazardPolicy,
    ) -> Result<ExecStats> {
        let (words, config) = (hbm.remaining(), &self.config);
        let (result, form) = if let Some((result, form)) = program.memo(config, policy, words) {
            (result.clone(), form)
        } else {
            let window = &mut self.window;
            let result = self.form.build(program, config, policy, words, window);
            (result, &self.form)
        };
        let (regs, latches, values) = (self.regs.words_mut(), &mut self.latches, &mut self.values);
        hbm.advance(form.execute(regs, latches, values, hbm.unread()));
        result
    }
}

/// The issue engine: the one loop that turns a program into issue cycles,
/// shared by [`Machine::run`]'s build, by
/// [`predict`](crate::timing::predict) and by
/// [`critical_path`](crate::critical_path::critical_path). Each caller
/// passes its own functional stage and a per-slot hook as closures, so
/// every caller gets its own monomorphised copy of the loop, and the
/// pending-write window, which the engine empties first.
///
/// Per slot, in order: the width check; one
/// [`PendingWrites::binding`] query from the slot's earliest issue cycle
/// `cycle`; if the binding write is visible only after `cycle`, the
/// strict [`MibError::DataHazard`] or the stall up to its ready cycle;
/// `evaluate(slot, inst)`, whose error ends the run; `issued(slot,
/// issue, binding)`, with a binding visible exactly at `cycle` passed on
/// too (the critical path's tight hop); the slot's count and busy nodes
/// in [`ExecStats`], and the slot's writes. A non-empty program ends with
/// the `latency`-cycle drain.
pub(crate) fn issue_program(
    program: &[NetInstruction],
    config: &MibConfig,
    policy: HazardPolicy,
    pending: &mut PendingWrites,
    mut evaluate: impl FnMut(usize, &NetInstruction) -> Result<()>,
    mut issued: impl FnMut(usize, u64, Option<BindingWrite>),
) -> Result<ExecStats> {
    let latency = config.latency();
    let mut stats = ExecStats::default();
    pending.clear();
    let mut cycle: u64 = 0;
    for (idx, inst) in program.iter().enumerate() {
        if inst.width() != config.width {
            return Err(MibError::WidthMismatch {
                instruction: inst.width(),
                machine: config.width,
            });
        }
        let binding = pending.binding(inst, cycle);
        let issue = binding.map_or(cycle, |b| b.ready);
        if let Some(h) = binding.filter(|b| policy == HazardPolicy::Strict && b.ready > cycle) {
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
        evaluate(idx, inst)?;
        issued(idx, issue, binding);
        stats.busy_nodes += inst.busy_nodes() as u64;
        stats.slots += 1;
        pending.record(idx, issue + latency, inst);
        cycle = issue + 1;
    }
    stats.cycles = cycle + if stats.slots > 0 { latency } else { 0 };
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{LaneSource, LaneWrite, WriteMode};

    fn machine8() -> Machine {
        Machine::new(MibConfig {
            width: 8,
            bank_depth: 64,
            clock_hz: 1e6,
        })
    }

    /// Loads vector elements cyclically: element e -> bank e % C, addr e / C.
    fn preload(m: &mut Machine, base: usize, v: &[f64]) {
        let c = m.config().width;
        for (e, &x) in v.iter().enumerate() {
            m.regs.write(e % c, base + e / c, x).unwrap();
        }
    }

    #[test]
    fn mac_reduction_sums_all_lanes() {
        let mut m = machine8();
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        preload(&mut m, 0, &x);
        // One MAC instruction: every lane multiplies its register by a
        // streamed matrix value, all products reduce to lane 3 through the
        // multi-mode MAC tree.
        let mut inst = NetInstruction::nop(8);
        for lane in 0..8 {
            inst.set_input(
                lane,
                LaneSource::RegTimesStream {
                    addr: 0,
                    negate: false,
                },
            );
        }
        inst.reduce(&[0, 1, 2, 3, 4, 5, 6, 7], 3);
        inst.set_write(
            3,
            LaneWrite {
                addr: 10,
                mode: WriteMode::Store,
            },
        );
        let weights = [1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.5];
        let mut hbm = HbmStream::new(weights.to_vec());
        m.run(&vec![inst].into(), &mut hbm, HazardPolicy::Strict)
            .unwrap();
        // Expected: sum(x .* w) = 1+2+6+4+5+6+7+4 = 35.
        assert_eq!(m.regs().read(3, 10).unwrap(), 35.0);
        assert_eq!(hbm.remaining(), 0);
    }

    #[test]
    fn permutation_moves_values_across_banks() {
        let mut m = machine8();
        preload(&mut m, 0, &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]);
        // Rotate by 3: element at lane i goes to lane (i + 3) % 8.
        // A rotation is a butterfly-routable permutation.
        let mut inst = NetInstruction::nop(8);
        for lane in 0..8 {
            inst.set_input(lane, LaneSource::Reg { addr: 0 });
        }
        for lane in 0..8 {
            inst.route(lane, (lane + 3) % 8);
        }
        for lane in 0..8 {
            inst.set_write(
                lane,
                LaneWrite {
                    addr: 1,
                    mode: WriteMode::Store,
                },
            );
        }
        let mut hbm = HbmStream::empty();
        m.run(&vec![inst].into(), &mut hbm, HazardPolicy::Strict)
            .unwrap();
        for lane in 0..8 {
            let src = (lane + 8 - 3) % 8;
            assert_eq!(
                m.regs().read(lane, 1).unwrap(),
                ((src + 1) * 10) as f64,
                "lane {lane}"
            );
        }
    }

    #[test]
    fn broadcast_latch_and_column_elimination() {
        let mut m = machine8();
        // x values: x[0..8] at addr 0; column values l at addr 1.
        preload(&mut m, 0, &[5.0; 8]); // all x_r = 5
        preload(&mut m, 1, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]); // l_r = r at addr 1
                                                                       // Broadcast x_1 = 5.0 from lane 1 to all latches.
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
        // Elimination: x_r -= l_r * x_broadcast for every lane.
        let mut elim = NetInstruction::nop(8);
        for lane in 0..8 {
            elim.set_input(
                lane,
                LaneSource::RegTimesLatch {
                    addr: 1,
                    negate: true,
                },
            );
            elim.route(lane, lane);
            elim.set_write(
                lane,
                LaneWrite {
                    addr: 0,
                    mode: WriteMode::Add,
                },
            );
        }
        let mut hbm = HbmStream::empty();
        // Strict mode must reject back-to-back issue (latch RAW hazard),
        // naming the offending instruction and the latch as the location.
        let err = m.clone().run(
            &vec![bcast.clone(), elim.clone()].into(),
            &mut hbm,
            HazardPolicy::Strict,
        );
        assert!(matches!(
            err,
            Err(MibError::DataHazard {
                instruction: 1,
                latch: true,
                ..
            })
        ));
        // Stall mode resolves it.
        let stats = m
            .run(&vec![bcast, elim].into(), &mut hbm, HazardPolicy::Stall)
            .unwrap();
        assert!(stats.stall_cycles > 0);
        for lane in 0..8 {
            // x_r = 5 - r * 5
            assert_eq!(m.regs().read(lane, 0).unwrap(), 5.0 - lane as f64 * 5.0);
        }
    }

    #[test]
    fn broadcast_routing_is_multicast() {
        // Verify that routing one source to many destinations reuses shared
        // path prefixes without conflict (Fig. 6b).
        let mut inst = NetInstruction::nop(8);
        inst.set_input(2, LaneSource::Reg { addr: 0 });
        for dst in 0..8 {
            inst.route(2, dst);
        }
        // No panic = consistent modes; every lane receives the value.
        let mut m = machine8();
        m.regs.write(2, 0, 42.0).unwrap();
        for lane in 0..8 {
            inst.set_write(
                lane,
                LaneWrite {
                    addr: 5,
                    mode: WriteMode::Store,
                },
            );
        }
        m.run(
            &vec![inst].into(),
            &mut HbmStream::empty(),
            HazardPolicy::Strict,
        )
        .unwrap();
        for lane in 0..8 {
            assert_eq!(m.regs().read(lane, 5).unwrap(), 42.0, "lane {lane}");
        }
    }

    #[test]
    fn store_recip_inverts() {
        let mut m = machine8();
        m.regs.write(0, 0, 4.0).unwrap();
        let mut inst = NetInstruction::nop(8);
        inst.set_input(0, LaneSource::Reg { addr: 0 });
        inst.route(0, 0);
        inst.set_write(
            0,
            LaneWrite {
                addr: 1,
                mode: WriteMode::StoreRecip,
            },
        );
        m.run(
            &vec![inst].into(),
            &mut HbmStream::empty(),
            HazardPolicy::Strict,
        )
        .unwrap();
        assert_eq!(m.regs().read(0, 1).unwrap(), 0.25);
    }

    #[test]
    fn stream_exhaustion_is_reported() {
        let mut m = machine8();
        let mut inst = NetInstruction::nop(8);
        inst.set_input(0, LaneSource::Stream);
        inst.route(0, 0);
        inst.set_write(
            0,
            LaneWrite {
                addr: 0,
                mode: WriteMode::Store,
            },
        );
        let err = m.run(
            &vec![inst].into(),
            &mut HbmStream::empty(),
            HazardPolicy::Stall,
        );
        assert!(matches!(
            err,
            Err(MibError::StreamExhausted { instruction: 0 })
        ));
    }

    #[test]
    fn stall_counts_match_latency() {
        let mut m = machine8();
        // Producer writes (0, 0); consumer reads it immediately after.
        let mut producer = NetInstruction::nop(8);
        producer.set_input(0, LaneSource::Stream);
        producer.route(0, 0);
        producer.set_write(
            0,
            LaneWrite {
                addr: 0,
                mode: WriteMode::Store,
            },
        );
        let mut consumer = NetInstruction::nop(8);
        consumer.set_input(0, LaneSource::Reg { addr: 0 });
        consumer.route(0, 0);
        consumer.set_write(
            0,
            LaneWrite {
                addr: 1,
                mode: WriteMode::Store,
            },
        );
        let mut hbm = HbmStream::new(vec![7.0]);
        let stats = m
            .run(
                &vec![producer, consumer].into(),
                &mut hbm,
                HazardPolicy::Stall,
            )
            .unwrap();
        // Consumer wanted cycle 1, producer ready at 0 + latency(5).
        assert_eq!(stats.stall_cycles, m.config().latency() - 1);
        assert_eq!(m.regs().read(0, 1).unwrap(), 7.0);
    }

    #[test]
    fn strict_error_carries_binding_hazard_provenance() {
        let mut m = machine8();
        // Two producers on different banks; the consumer reads both. The
        // later producer (bank 1) is the binding hazard and must be the one
        // reported.
        let mut p0 = NetInstruction::nop(8);
        p0.set_input(0, LaneSource::Stream);
        p0.route(0, 0);
        p0.set_write(
            0,
            LaneWrite {
                addr: 2,
                mode: WriteMode::Store,
            },
        );
        let mut p1 = NetInstruction::nop(8);
        p1.set_input(1, LaneSource::Stream);
        p1.route(1, 1);
        p1.set_write(
            1,
            LaneWrite {
                addr: 3,
                mode: WriteMode::Store,
            },
        );
        let mut consumer = NetInstruction::nop(8);
        consumer.set_input(0, LaneSource::Reg { addr: 2 });
        consumer.set_input(1, LaneSource::Reg { addr: 3 });
        consumer.route(0, 0);
        consumer.route(1, 1);
        consumer.set_write(
            0,
            LaneWrite {
                addr: 4,
                mode: WriteMode::Store,
            },
        );
        let mut hbm = HbmStream::new(vec![1.0, 2.0]);
        let err = m.run(
            &vec![p0, p1, consumer].into(),
            &mut hbm,
            HazardPolicy::Strict,
        );
        let latency = MibConfig {
            width: 8,
            bank_depth: 64,
            clock_hz: 1e6,
        }
        .latency();
        assert_eq!(
            err,
            Err(MibError::DataHazard {
                cycle: 2,
                instruction: 2,
                bank: 1,
                addr: 3,
                latch: false,
                ready: 1 + latency,
            })
        );
    }

    #[test]
    fn nop_program_runs_empty() {
        let mut m = machine8();
        let stats = m
            .run(
                &Vec::new().into(),
                &mut HbmStream::empty(),
                HazardPolicy::Strict,
            )
            .unwrap();
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.slots, 0);
    }
}
