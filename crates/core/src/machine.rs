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

use crate::hbm::HbmStream;
use crate::instruction::{lanes, LaneSource, NetInstruction, WriteMode};
use crate::pending::PendingWrites;
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
}

impl Machine {
    /// Builds a machine for the given configuration.
    pub fn new(config: MibConfig) -> Self {
        let regs = RegisterFiles::new(config.width, config.bank_depth);
        Machine {
            config,
            regs,
            latches: vec![0.0; config.width],
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
    /// # Errors
    ///
    /// Returns [`MibError::DataHazard`] (strict policy),
    /// [`MibError::StreamExhausted`], [`MibError::WidthMismatch`] or
    /// [`MibError::AddressOutOfRange`].
    pub fn run(
        &mut self,
        program: &[NetInstruction],
        hbm: &mut HbmStream,
        policy: HazardPolicy,
    ) -> Result<ExecStats> {
        let width = self.config.width;
        let latency = self.config.latency();
        let mut stats = ExecStats::default();
        let mut pending = PendingWrites::new(&self.config);
        // Lane values entering and leaving an adder stage, reused by
        // every slot. A lane outside a buffer's `live` mask holds 0.0, the
        // output of an idle node; only live lanes are ever cleared.
        let mut values = vec![0.0f64; width];
        let mut next = vec![0.0f64; width];
        let (mut live, mut next_live) = (0u128, 0u128);
        let mut cycle: u64 = 0;

        for (idx, inst) in program.iter().enumerate() {
            if inst.width() != width {
                return Err(MibError::WidthMismatch {
                    instruction: inst.width(),
                    machine: width,
                });
            }

            // Earliest hazard-free issue cycle, held back by the *binding*
            // hazard (the pending write with the latest visibility cycle)
            // so the strict-mode error carries the same provenance the
            // static timing predictor reports.
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

            // ---- Functional evaluation, over the slot's lanes only ----
            // Multiplier stage (stream words consumed in lane order).
            clear_lanes(&mut values, live & !inst.input_mask());
            live = inst.input_mask();
            for (lane, src) in inst.input_locs() {
                let v = match src {
                    LaneSource::Reg { addr } => self.regs.read(lane, addr)?,
                    LaneSource::Stream => self.stream_word(hbm, idx, &mut stats)?,
                    LaneSource::RegTimesStream { addr, negate } => {
                        let r = self.regs.read(lane, addr)?;
                        let s = self.stream_word(hbm, idx, &mut stats)?;
                        if negate {
                            -(r * s)
                        } else {
                            r * s
                        }
                    }
                    LaneSource::RegTimesLatch { addr, negate } => {
                        let p = self.regs.read(lane, addr)? * self.latches[lane];
                        if negate {
                            -p
                        } else {
                            p
                        }
                    }
                    LaneSource::RegTimesImm { addr, imm } => self.regs.read(lane, addr)? * imm,
                    LaneSource::StreamTimesLatch { negate } => {
                        let p = self.stream_word(hbm, idx, &mut stats)? * self.latches[lane];
                        if negate {
                            -p
                        } else {
                            p
                        }
                    }
                };
                values[lane] = v;
            }
            // Adder stages.
            for s in 0..inst.stages() {
                let bit = 1usize << s;
                let (direct, cross) = inst.stage_inputs(s);
                let active = direct | cross;
                clear_lanes(&mut next, next_live & !active);
                next_live = active;
                for lane in lanes(active) {
                    next[lane] = match (direct >> lane & 1 != 0, cross >> lane & 1 != 0) {
                        (true, true) => values[lane] + values[lane ^ bit],
                        (true, false) => values[lane],
                        _ => values[lane ^ bit],
                    };
                }
                std::mem::swap(&mut values, &mut next);
                std::mem::swap(&mut live, &mut next_live);
            }
            // Output multiplier stage (consumes stream words after the
            // input stage, in lane order).
            for (lane, negate) in inst.out_mul_locs() {
                let s = self.stream_word(hbm, idx, &mut stats)?;
                values[lane] *= if negate { -s } else { s };
            }
            live |= inst.out_mul_mask();
            // Writeback stage.
            for (lane, w) in inst.write_locs() {
                let v = values[lane];
                match w.mode {
                    WriteMode::Store => self.regs.write(lane, w.addr, v)?,
                    WriteMode::Add => self.regs.accumulate(lane, w.addr, v)?,
                    WriteMode::StoreRecip => self.regs.write(lane, w.addr, 1.0 / v)?,
                    WriteMode::Latch => self.latches[lane] = v,
                    WriteMode::Min => {
                        let cur = self.regs.read(lane, w.addr)?;
                        self.regs.write(lane, w.addr, cur.min(v))?;
                    }
                    WriteMode::Max => {
                        let cur = self.regs.read(lane, w.addr)?;
                        self.regs.write(lane, w.addr, cur.max(v))?;
                    }
                    WriteMode::MaxAbs => {
                        let cur = self.regs.read(lane, w.addr)?;
                        self.regs.write(lane, w.addr, cur.max(v.abs()))?;
                    }
                }
            }
            stats.flops += inst.flop_count();
            stats.reg_reads += inst.reg_read_count();
            stats.reg_writes += inst.write_count();
            pending.record(idx, issue + latency, inst);

            stats.slots += 1;
            stats.busy_nodes += inst.busy_nodes() as u64;
            stats.count_kind(inst.kind);
            cycle = issue + 1;
        }
        let drain = if stats.slots > 0 { latency } else { 0 };
        stats.cycles = cycle + drain;
        Ok(stats)
    }

    fn stream_word(
        &mut self,
        hbm: &mut HbmStream,
        instruction: usize,
        stats: &mut ExecStats,
    ) -> Result<f64> {
        let w = hbm
            .next_word()
            .ok_or(MibError::StreamExhausted { instruction })?;
        stats.hbm_words += 1;
        Ok(w)
    }
}

/// Zeroes the lanes of `mask` in `buf`.
fn clear_lanes(buf: &mut [f64], mask: u128) {
    for lane in lanes(mask) {
        buf[lane] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{InstrKind, LaneWrite};

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
        inst.kind = InstrKind::Mac;
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
        let stats = m.run(&[inst], &mut hbm, HazardPolicy::Strict).unwrap();
        // Expected: sum(x .* w) = 1+2+6+4+5+6+7+4 = 35.
        assert_eq!(m.regs().read(3, 10).unwrap(), 35.0);
        assert_eq!(stats.hbm_words, 8);
        assert!(stats.flops >= 8 + 7); // 8 multiplies + 7 adds
    }

    #[test]
    fn permutation_moves_values_across_banks() {
        let mut m = machine8();
        preload(&mut m, 0, &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]);
        // Rotate by 3: element at lane i goes to lane (i + 3) % 8.
        // A rotation is a butterfly-routable permutation.
        let mut inst = NetInstruction::nop(8);
        inst.kind = InstrKind::Permute;
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
        m.run(&[inst], &mut hbm, HazardPolicy::Strict).unwrap();
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
        bcast.kind = InstrKind::Broadcast;
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
        elim.kind = InstrKind::ColElim;
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
            &[bcast.clone(), elim.clone()],
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
            .run(&[bcast, elim], &mut hbm, HazardPolicy::Stall)
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
        m.run(&[inst], &mut HbmStream::empty(), HazardPolicy::Strict)
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
        m.run(&[inst], &mut HbmStream::empty(), HazardPolicy::Strict)
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
        let err = m.run(&[inst], &mut HbmStream::empty(), HazardPolicy::Stall);
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
            .run(&[producer, consumer], &mut hbm, HazardPolicy::Stall)
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
        let err = m.run(&[p0, p1, consumer], &mut hbm, HazardPolicy::Strict);
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
            .run(&[], &mut HbmStream::empty(), HazardPolicy::Strict)
            .unwrap();
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.slots, 0);
    }
}
