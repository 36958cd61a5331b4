/// Static configuration of an MIB instance.
///
/// The paper's unified scalability parameter is `C`, "the maximum number of
/// data items that can be obtained from the HBM in every clock cycle"
/// (Section III.A); every architectural width is derived from it. The two
/// FPGA prototypes use `C = 16` (300 MHz) and `C = 32` (236 MHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MibConfig {
    /// Network width `C` (must be a power of two, at least 2).
    pub width: usize,
    /// Register-file depth per bank (words).
    pub bank_depth: usize,
    /// Clock frequency in Hz, used to convert cycle counts to time.
    pub clock_hz: f64,
}

impl MibConfig {
    /// The paper's `C = 16` prototype (300 MHz on the Alveo U50).
    pub fn c16() -> Self {
        MibConfig {
            width: 16,
            bank_depth: 1 << 16,
            clock_hz: 300e6,
        }
    }

    /// The paper's `C = 32` prototype (236 MHz on the Alveo U50).
    pub fn c32() -> Self {
        MibConfig {
            width: 32,
            bank_depth: 1 << 16,
            clock_hz: 236e6,
        }
    }

    /// A custom width with a default bank depth and an interpolated clock.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two or is below 2.
    pub fn with_width(width: usize) -> Self {
        assert!(
            width.is_power_of_two() && width >= 2,
            "width must be a power of two >= 2"
        );
        // Wider networks close timing at lower clocks (300 MHz at C=16,
        // 236 MHz at C=32 in the paper); extrapolate mildly.
        let clock_hz = match width {
            0..=16 => 300e6,
            17..=32 => 236e6,
            33..=64 => 200e6,
            _ => 160e6,
        };
        MibConfig {
            width,
            bank_depth: 1 << 16,
            clock_hz,
        }
    }

    /// Number of adder stages, `log₂C`.
    pub fn stages(&self) -> usize {
        self.width.trailing_zeros() as usize
    }

    /// Total node count `C·(log₂C + 1)` — multiplier stage plus adder
    /// stages. 192 for `C = 32`, matching Figure 8 of the paper.
    pub fn total_nodes(&self) -> usize {
        self.width * (self.stages() + 1)
    }

    /// Pipeline latency in cycles from issue to result visibility:
    /// multiplier stage + `log₂C` adder stages + writeback.
    pub fn latency(&self) -> u64 {
        self.stages() as u64 + 2
    }

    /// Converts a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }
}

impl Default for MibConfig {
    fn default() -> Self {
        MibConfig::c32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c32_matches_paper_node_count() {
        let c = MibConfig::c32();
        assert_eq!(c.width, 32);
        assert_eq!(c.stages(), 5);
        assert_eq!(c.total_nodes(), 192); // "192 nodes" in Fig. 8
    }

    #[test]
    fn c16_latency_and_time() {
        let c = MibConfig::c16();
        assert_eq!(c.stages(), 4);
        assert_eq!(c.latency(), 6);
        assert!((c.cycles_to_seconds(300_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        MibConfig::with_width(12);
    }
}
