//! The compiler's cost oracle: exact cycle costs for compiled schedules,
//! without simulation.
//!
//! [`static_cost`] wraps `mib-verify`'s exact timing predictor
//! ([`mib_verify::timing::predict`]) for the compiler's own [`Schedule`]
//! type. The prediction is **not** a model: it is provably equal to what
//! `Machine::run` measures (the differential test suite pins the full
//! `ExecStats` across every benchmark program), at a fraction of the
//! simulation cost because no functional state is computed. This is the
//! trusted signal a schedule autotuner can search against: comparing two
//! candidate schedules costs two predictions, not two simulations.
//!
//! The lowering's `ScheduleQuality` trace events record the predicted
//! cycles for offline analysis. [`lower_bound`] is the packing bound the
//! cycles are held against.

use mib_core::machine::HazardPolicy;
use mib_core::MibConfig;
use mib_verify::timing;

use crate::schedule::Schedule;

/// Exact static cost of a schedule, as the machine would measure it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticCost {
    /// Total execution cycles (issue + pipeline drain; a schedule the
    /// strict policy accepts never stalls) — bitwise equal to
    /// `ExecStats::cycles` of a real run.
    pub cycles: u64,
    /// Issue slots (one per instruction).
    pub slots: u64,
}

/// Predicts the exact cost of a schedule under the strict hazard policy
/// (the policy certified schedules run under).
///
/// Returns `None` when the machine would reject the program — a width,
/// address, stream or hazard fault. Compiled schedules never hit this
/// path ([`crate::verify::checked_schedule`] asserts so); callers probing
/// *candidate* schedules use the `None` as a rejection verdict.
pub fn static_cost(s: &Schedule, config: &MibConfig) -> Option<StaticCost> {
    let t = timing::predict(&s.program, s.hbm.len(), config, HazardPolicy::Strict).ok()?;
    Some(StaticCost {
        cycles: t.stats.cycles,
        slots: t.stats.slots,
    })
}

/// A lower bound on the cycles of any packing of the schedule's logical
/// instructions (the same instructions and registers): the largest of
///
/// * the kernel's dependence depth ([`Schedule::depth`]);
/// * the slots claiming the busiest footprint resource — each node and
///   each write port serves one slot per cycle;
/// * busy nodes over the `C·(log₂C + 1)` nodes of a slot;
/// * HBM words over the `C` words a slot streams;
///
/// plus the drain. `cycles − lower_bound` is the most any re-packing
/// could save.
pub fn lower_bound(s: &Schedule, config: &MibConfig) -> u64 {
    if s.program.is_empty() {
        return 0;
    }
    let mut claims: Vec<u64> = Vec::new();
    let (mut busy, mut words) = (0u64, 0u64);
    for inst in &s.program {
        busy += inst.busy_nodes() as u64;
        words += inst.stream_words() as u64;
        let footprint = inst.footprint();
        claims.resize(footprint.len() * 64, 0);
        for (k, &word) in footprint.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                claims[k * 64 + bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
    }
    let busiest = claims.iter().copied().max().unwrap_or(0);
    let slots = s
        .depth
        .max(busiest)
        .max(busy.div_ceil(config.total_nodes() as u64))
        .max(words.div_ceil(config.width as u64));
    slots + config.latency()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use crate::schedule::{schedule, ScheduleOptions};
    use mib_core::hbm::HbmStream;
    use mib_core::instruction::{LaneSource, LaneWrite, NetInstruction, WriteMode};
    use mib_core::machine::Machine;

    fn config() -> MibConfig {
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
    fn cost_matches_machine_on_a_compiled_schedule() {
        let cfg = config();
        let mut b = KernelBuilder::new("chain", 8, cfg.latency());
        b.push(mov(0, 0, 1), vec![]);
        b.push(mov(0, 1, 2), vec![]);
        b.push(mov(3, 0, 1), vec![]);
        let s = schedule(&b.finish(), ScheduleOptions::default());
        let cost = static_cost(&s, &cfg).expect("compiled schedule is runnable");
        let stats = Machine::new(cfg)
            .run(
                &s.program,
                &mut HbmStream::new(s.hbm.clone()),
                HazardPolicy::Strict,
            )
            .unwrap();
        assert_eq!(cost.cycles, stats.cycles);
        assert_eq!(cost.slots, stats.slots);
        // The dependent pair sets the bound, and the schedule meets it.
        assert_eq!(s.depth, cfg.latency() + 1);
        assert_eq!(lower_bound(&s, &cfg), cost.cycles);
    }

    #[test]
    fn the_busiest_port_bounds_independent_work() {
        let cfg = config();
        // Nine independent writes into lane 0's bank share its write port:
        // nine slots, though no instruction depends on another.
        let mut b = KernelBuilder::new("port", 8, cfg.latency());
        for to in 0..9 {
            b.push(mov(0, 20 + to, to), vec![]);
        }
        let s = schedule(&b.finish(), ScheduleOptions::default());
        assert_eq!(s.depth, 1);
        assert_eq!(lower_bound(&s, &cfg), 9 + cfg.latency());
        assert_eq!(static_cost(&s, &cfg).unwrap().cycles, 9 + cfg.latency());
    }

    #[test]
    fn rejected_program_has_no_cost() {
        let cfg = config();
        // Back-to-back RAW: strict execution rejects, so there is no cost.
        let s = Schedule {
            program: vec![mov(0, 0, 1), mov(0, 1, 2)],
            hbm: Vec::new(),
            slot_of: vec![0, 1],
            logical_count: 2,
            forced_appends: 0,
            depth: 0,
        };
        assert!(static_cost(&s, &cfg).is_none());
    }

    #[test]
    fn empty_schedule_costs_zero() {
        let cfg = config();
        let s = schedule(
            &KernelBuilder::new("empty", 8, cfg.latency()).finish(),
            ScheduleOptions::default(),
        );
        let cost = static_cost(&s, &cfg).unwrap();
        assert_eq!(cost.cycles, 0);
        assert_eq!(cost.slots, 0);
    }
}
