//! First-fit multi-issue scheduling (Section IV.B of the paper).
//!
//! Every logical instruction is encoded once as a hardware-occupancy
//! footprint bitset: one bit per network node (`C·(log₂C + 1)` bits) plus
//! one per register write port ([`NetInstruction::footprint`]). Scheduling
//! is bin packing: walk the instructions in their initial (algorithm)
//! order; place each into the **first** issue slot that is at or after its
//! dependency-ready slot and whose already-packed occupancy does not
//! collide. Dependency-ready slots encode the pipeline data hazards (RAW =
//! full latency), so the packed program is hazard-free by construction —
//! the machine's strict verification mode re-checks this.
//!
//! Packing touches one flat occupancy array, `slots × footprint words`
//! long, and one reused footprint buffer, and nothing else per slot. Once
//! every instruction has its slot, each slot is built once from its
//! instructions in kernel order ([`NetInstruction::merged`]): lane masks
//! first, then every lane entry placed by rank into stores sized for
//! exactly their lanes. Kernel order matters: the output multipliers are
//! not part of the footprint, and a merge takes them lane-wise from the
//! later instruction. Each slot's HBM words follow in the same pass,
//! stably sorted by key.
//!
//! With `multi_issue` disabled the scheduler reproduces the paper's
//! "before reordering" baseline (Figure 8, top left): one instruction per
//! slot in program order, with empty slots inserted to satisfy data
//! hazards.

use mib_core::instruction::NetInstruction;
use mib_core::program::Program;

use crate::kernel::Kernel;

/// Options controlling the scheduler — the knobs of the Fig. 8 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleOptions {
    /// Pack independent instructions into shared slots (first-fit). When
    /// `false`, instructions stay in order, one per slot, with nop padding
    /// for data hazards.
    pub multi_issue: bool,
    /// Cap on how far past the ready slot first-fit probes before giving up
    /// and appending a fresh slot (bounds compile time on dense programs).
    pub probe_limit: usize,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            multi_issue: true,
            probe_limit: 4096,
        }
    }
}

/// A scheduled program: one (possibly merged) network instruction per issue
/// slot, plus the HBM stream laid out in consumption order.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Issue slots (nop slots included), shared by every clone.
    pub program: Program,
    /// HBM words in exactly the order the machine consumes them.
    pub hbm: Vec<f64>,
    /// Issue slot assigned to each logical instruction.
    pub slot_of: Vec<usize>,
    /// How many instructions exhausted the first-fit probe limit and were
    /// placed in force-appended fresh slots. Nonzero means packing quality
    /// degraded (`verify_schedules` holds the suite's total to a baseline);
    /// correctness is unaffected.
    pub forced_appends: usize,
    /// Slots the kernel's dependences alone require: one past the latest
    /// slot any logical instruction could issue in if every slot had room
    /// for everything (the longest path of `(producer, delay)` edges). No
    /// schedule of the kernel is shorter.
    pub depth: u64,
}

impl Schedule {
    /// Number of logical instructions packed.
    pub fn logical_count(&self) -> usize {
        self.slot_of.len()
    }

    /// Issue slots used (the paper's "total execution clock cycles" metric
    /// for Fig. 8, before adding pipeline drain).
    pub fn slots(&self) -> usize {
        self.program.len()
    }

    /// Non-empty issue slots.
    pub fn busy_slots(&self) -> usize {
        self.program.iter().filter(|i| !i.is_nop()).count()
    }
}

/// Runs the scheduler over a kernel.
pub fn schedule(kernel: &Kernel, opts: ScheduleOptions) -> Schedule {
    let width = kernel.width;
    let n = kernel.len();
    // Footprint words per slot, as `NetInstruction::footprint` lays them.
    let words = (width * (width.trailing_zeros() as usize + 2)).div_ceil(64);
    // Slot `t`'s packed occupancy is `occupancy[t * words..(t + 1) * words]`.
    let mut occupancy: Vec<u64> = Vec::new();
    let mut slot_of: Vec<usize> = Vec::with_capacity(n);
    let mut forced_appends = 0usize;
    let mut earliest: Vec<u64> = Vec::with_capacity(n);
    let mut fp: Vec<u64> = Vec::with_capacity(words);

    for (i, inst) in kernel.instrs().iter().enumerate() {
        // Dependency-ready slot, and the one it would be if every earlier
        // instruction had issued at its own.
        let mut ready: u64 = 0;
        let mut floor: u64 = 0;
        for &(dep, delay) in kernel.deps(i) {
            ready = ready.max(slot_of[dep] as u64 + delay);
            floor = floor.max(earliest[dep] + delay);
        }
        earliest.push(floor);
        inst.footprint_into(&mut fp);
        debug_assert_eq!(fp.len(), words);
        let mut t = ready as usize;
        if opts.multi_issue {
            // First-fit probe.
            let mut probes = 0usize;
            while t < occupancy.len() / words {
                let slot = &occupancy[t * words..(t + 1) * words];
                if slot.iter().zip(&fp).all(|(a, b)| a & b == 0) {
                    break;
                }
                t += 1;
                probes += 1;
                if probes > opts.probe_limit {
                    // Append beyond the end.
                    forced_appends += 1;
                    t = occupancy.len() / words;
                }
            }
        } else if let Some(&prev) = slot_of.last() {
            // Sequential: strictly after the previous instruction.
            t = t.max(prev + 1);
        }
        if occupancy.len() < (t + 1) * words {
            occupancy.resize((t + 1) * words, 0);
        }
        for (a, b) in occupancy[t * words..(t + 1) * words].iter_mut().zip(&fp) {
            *a |= b;
        }
        slot_of.push(t);
    }

    // Each slot's instructions in kernel order: a stable sort by slot.
    let slots = occupancy.len() / words;
    let mut members: Vec<usize> = (0..n).collect();
    members.sort_by_key(|&i| slot_of[i]);

    // Merge each slot once, and lay out its HBM words: within a slot the
    // machine consumes stream words in key order.
    let mut program = Vec::with_capacity(slots);
    let mut hbm = Vec::with_capacity(kernel.stream_words());
    let mut slot_words: Vec<(usize, f64)> = Vec::new();
    let mut rest = &members[..];
    for t in 0..slots {
        let (placed, tail) = rest.split_at(rest.partition_point(|&i| slot_of[i] == t));
        rest = tail;
        program.push(NetInstruction::merged(
            width,
            placed.iter().map(|&i| &kernel.instrs()[i]),
        ));
        slot_words.clear();
        for &i in placed {
            slot_words.extend_from_slice(kernel.stream(i));
        }
        slot_words.sort_by_key(|&(key, _)| key);
        hbm.extend(slot_words.iter().map(|&(_, w)| w));
    }
    Schedule {
        program: program.into(),
        hbm,
        slot_of,
        forced_appends,
        depth: earliest.iter().max().map_or(0, |&e| e + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use mib_core::instruction::{LaneSource, LaneWrite, WriteMode};

    fn mov(width: usize, lane: usize, from: usize, to: usize) -> NetInstruction {
        let mut i = NetInstruction::nop(width);
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
    fn independent_instructions_share_a_slot() {
        let mut b = KernelBuilder::new("t", 8, 5);
        for lane in 0..8 {
            b.push(mov(8, lane, 0, 1), vec![]);
        }
        let s = schedule(&b.finish(), ScheduleOptions::default());
        assert_eq!(
            s.slots(),
            1,
            "8 disjoint single-lane moves pack into one slot"
        );
        assert!(s.slot_of.iter().all(|&t| t == 0));
    }

    #[test]
    fn single_issue_keeps_them_apart() {
        let mut b = KernelBuilder::new("t", 8, 5);
        for lane in 0..8 {
            b.push(mov(8, lane, 0, 1), vec![]);
        }
        let s = schedule(
            &b.finish(),
            ScheduleOptions {
                multi_issue: false,
                ..ScheduleOptions::default()
            },
        );
        assert_eq!(s.slots(), 8);
    }

    #[test]
    fn raw_dependency_spaces_by_latency() {
        let mut b = KernelBuilder::new("t", 8, 5);
        b.push(mov(8, 0, 0, 1), vec![]);
        b.push(mov(8, 0, 1, 2), vec![]); // reads (0,1)
        let s = schedule(&b.finish(), ScheduleOptions::default());
        assert_eq!(s.slot_of[1] - s.slot_of[0], 5);
        assert_eq!(s.slots(), 6);
        // The gap slots are nops.
        assert_eq!(s.busy_slots(), 2);
    }

    #[test]
    fn independent_work_fills_hazard_gaps() {
        let mut b = KernelBuilder::new("t", 8, 5);
        b.push(mov(8, 0, 0, 1), vec![]);
        b.push(mov(8, 0, 1, 2), vec![]); // dependent chain on lane 0
        for lane in 1..6 {
            b.push(mov(8, lane, 0, 1), vec![]); // independent
        }
        let s = schedule(&b.finish(), ScheduleOptions::default());
        // Independent moves land in slot 0 alongside the first instruction.
        for i in 2..7 {
            assert_eq!(s.slot_of[i], 0, "instruction {i}");
        }
        assert_eq!(s.slots(), 6);
    }

    #[test]
    fn stream_words_follow_slot_lane_order() {
        let mut b = KernelBuilder::new("t", 8, 5);
        // Two stream loads pushed in reverse lane order; merged into one
        // slot, the machine consumes lane 1 before lane 5... i.e. sorted.
        let mut i1 = NetInstruction::nop(8);
        i1.set_input(5, LaneSource::Stream);
        i1.route(5, 5);
        i1.set_write(
            5,
            LaneWrite {
                addr: 0,
                mode: WriteMode::Store,
            },
        );
        b.push(i1, vec![(5, 55.0)]);
        let mut i2 = NetInstruction::nop(8);
        i2.set_input(1, LaneSource::Stream);
        i2.route(1, 1);
        i2.set_write(
            1,
            LaneWrite {
                addr: 0,
                mode: WriteMode::Store,
            },
        );
        b.push(i2, vec![(1, 11.0)]);
        let s = schedule(&b.finish(), ScheduleOptions::default());
        assert_eq!(s.slots(), 1);
        assert_eq!(s.hbm, vec![11.0, 55.0]);
    }

    #[test]
    fn exhausted_probe_limit_forces_appends_and_counts_them() {
        let mut b = KernelBuilder::new("t", 8, 5);
        // Three writers of the same destination (0,1): WAW chains them one
        // cycle apart, and with probe_limit 0 every occupied probe slot
        // forces an append instead of probing further.
        b.push(mov(8, 0, 2, 1), vec![]);
        b.push(mov(8, 0, 3, 1), vec![]);
        b.push(mov(8, 0, 4, 1), vec![]);
        // Plus an independent lane-0 reader that collides with slot 0.
        b.push(mov(8, 0, 5, 6), vec![]);
        let kernel = b.finish();
        let tight = schedule(
            &kernel,
            ScheduleOptions {
                probe_limit: 0,
                ..ScheduleOptions::default()
            },
        );
        let loose = schedule(&kernel, ScheduleOptions::default());
        assert_eq!(loose.forced_appends, 0);
        assert!(
            tight.forced_appends > 0,
            "probe_limit 0 must force appends on collisions"
        );
        // Forced appends degrade packing, never correctness: each logical
        // instruction still owns a collision-free slot at or after its
        // dependency-ready slot.
        assert!(tight.slots() >= loose.slots());
        for i in 0..kernel.len() {
            for &(p, delay) in kernel.deps(i) {
                assert!(
                    tight.slot_of[i] as u64 >= tight.slot_of[p] as u64 + delay,
                    "instruction {i} violates its dependency on {p}"
                );
            }
        }
    }

    #[test]
    fn multi_issue_never_reorders_conflicting_writes() {
        let mut b = KernelBuilder::new("t", 8, 5);
        let w1 = b.push(mov(8, 0, 2, 1), vec![]);
        let w2 = b.push(mov(8, 0, 3, 1), vec![]); // same destination (0,1)
        let s = schedule(&b.finish(), ScheduleOptions::default());
        assert!(s.slot_of[w2] > s.slot_of[w1]);
    }
}
