//! Execution statistics of the MIB pipeline.

use crate::instruction::InstrKind;

/// Counters collected while the machine executes a program.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecStats {
    /// Total cycles including stalls and the final pipeline drain.
    pub cycles: u64,
    /// Issue slots executed (merged instructions).
    pub slots: u64,
    /// Cycles lost to data-hazard stalls (0 for a well-scheduled program).
    pub stall_cycles: u64,
    /// Sum over slots of busy node counts (spatial utilization numerator).
    pub busy_nodes: u64,
    /// Floating-point operations performed (multiplies + adds + recips).
    pub flops: u64,
    /// HBM words streamed.
    pub hbm_words: u64,
    /// Register reads performed.
    pub reg_reads: u64,
    /// Register writes performed (including accumulates and latches).
    pub reg_writes: u64,
    /// Slots broken down by primitive kind, indexed by
    /// [`InstrKind::index`]: Mac, ColElim, Broadcast, Permute,
    /// Elementwise, Prefetch, Nop.
    pub slots_by_kind: [u64; InstrKind::COUNT],
}

impl ExecStats {
    /// Records a slot of the given kind.
    pub fn count_kind(&mut self, kind: InstrKind) {
        self.slots_by_kind[kind.index()] += 1;
    }

    /// Spatial utilization: busy nodes / (cycles × total nodes).
    pub fn utilization(&self, total_nodes: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.busy_nodes as f64 / (self.cycles as f64 * total_nodes as f64)
    }

    /// Merges another run's counters into this one (e.g. summing phases).
    pub fn merge(&mut self, other: &ExecStats) {
        self.cycles += other.cycles;
        self.slots += other.slots;
        self.stall_cycles += other.stall_cycles;
        self.busy_nodes += other.busy_nodes;
        self.flops += other.flops;
        self.hbm_words += other.hbm_words;
        self.reg_reads += other.reg_reads;
        self.reg_writes += other.reg_writes;
        for i in 0..InstrKind::COUNT {
            self.slots_by_kind[i] += other.slots_by_kind[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let s = ExecStats {
            cycles: 10,
            busy_nodes: 60,
            ..ExecStats::default()
        };
        assert!((s.utilization(12) - 0.5).abs() < 1e-12);
        assert_eq!(ExecStats::default().utilization(12), 0.0);
    }

    #[test]
    fn kind_counting_and_merge() {
        let mut a = ExecStats::default();
        a.count_kind(InstrKind::Mac);
        a.count_kind(InstrKind::Mac);
        a.count_kind(InstrKind::Permute);
        assert_eq!(a.slots_by_kind[0], 2);
        assert_eq!(a.slots_by_kind[3], 1);
        let mut b = ExecStats {
            cycles: 5,
            flops: 7,
            ..ExecStats::default()
        };
        b.count_kind(InstrKind::Mac);
        b.merge(&a);
        assert_eq!(b.slots_by_kind[0], 3);
        assert_eq!(b.flops, 7);
    }
}
