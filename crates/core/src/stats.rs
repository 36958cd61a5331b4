//! Execution statistics of the MIB pipeline.

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
}

impl ExecStats {
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
    fn merge_sums_every_counter() {
        let a = ExecStats {
            cycles: 1,
            slots: 2,
            stall_cycles: 3,
            busy_nodes: 4,
        };
        let mut b = ExecStats {
            cycles: 5,
            slots: 6,
            stall_cycles: 7,
            busy_nodes: 8,
        };
        b.merge(&a);
        assert_eq!(
            b,
            ExecStats {
                cycles: 6,
                slots: 8,
                stall_cycles: 10,
                busy_nodes: 12,
            }
        );
    }
}
