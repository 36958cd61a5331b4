//! Architecture specifications (Table II of the paper).

use std::fmt::Write as _;

/// Specification row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Platform name used in reports.
    pub name: &'static str,
    /// Device model.
    pub model: &'static str,
    /// Process node in nanometres.
    pub process_nm: u32,
    /// Clock frequency in Hz.
    pub clock_hz: f64,
    /// Peak FLOP/s.
    pub peak_flops: f64,
    /// Memory bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Thermal design power in watts.
    pub tdp_w: f64,
    /// Software library / stack.
    pub library: &'static str,
}

/// The MIB `C = 16` prototype row.
fn mib_c16() -> PlatformSpec {
    PlatformSpec {
        name: "MIB C=16",
        model: "Alveo U50",
        process_nm: 16,
        clock_hz: 300e6,
        peak_flops: 33e9,
        bandwidth: 28.8e9,
        tdp_w: 75.0,
        library: "ours",
    }
}

/// The MIB `C = 32` prototype row.
fn mib_c32() -> PlatformSpec {
    PlatformSpec {
        name: "MIB C=32",
        model: "Alveo U50",
        process_nm: 16,
        clock_hz: 236e6,
        peak_flops: 60e9,
        bandwidth: 57.6e9,
        tdp_w: 75.0,
        library: "ours",
    }
}

/// The RSQP (CPU+FPGA) row; ranges in the paper are represented by their
/// upper ends.
pub fn rsqp() -> PlatformSpec {
    PlatformSpec {
        name: "RSQP",
        model: "Alveo (multiple)",
        process_nm: 16,
        clock_hz: 236e6,
        peak_flops: 15.1e9,
        bandwidth: 115.2e9,
        tdp_w: 75.0,
        library: "custom",
    }
}

/// The CPU baseline row (i7-10700KF).
pub fn cpu() -> PlatformSpec {
    PlatformSpec {
        name: "CPU",
        model: "i7-10700KF",
        process_nm: 14,
        clock_hz: 3.8e9,
        peak_flops: 500e9,
        bandwidth: 45.8e9,
        tdp_w: 125.0,
        library: "MKL, QDLDL",
    }
}

/// The GPU baseline row (RTX 3070).
pub fn gpu() -> PlatformSpec {
    PlatformSpec {
        name: "GPU",
        model: "RTX 3070",
        process_nm: 8,
        clock_hz: 1.75e9,
        peak_flops: 20e12,
        bandwidth: 448e9,
        tdp_w: 220.0,
        library: "cuSparse",
    }
}

/// All Table II rows in paper order.
pub fn all() -> Vec<PlatformSpec> {
    vec![mib_c16(), mib_c32(), rsqp(), cpu(), gpu()]
}

/// Renders Table II as an aligned text table.
pub fn render_table() -> String {
    let rows = all();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<18} {:>8} {:>10} {:>10} {:>12} {:>6}  Library",
        "Platform", "Model", "Process", "Clock", "GFLOPS", "BW (GB/s)", "TDP"
    );
    for s in rows {
        let _ = writeln!(
            out,
            "{:<10} {:<18} {:>6}nm {:>7.0}MHz {:>10.1} {:>12.1} {:>5.0}W  {}",
            s.name,
            s.model,
            s.process_nm,
            s.clock_hz / 1e6,
            s.peak_flops / 1e9,
            s.bandwidth / 1e9,
            s.tdp_w,
            s.library
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_values() {
        assert_eq!(mib_c16().clock_hz, 300e6);
        assert_eq!(mib_c32().clock_hz, 236e6);
        assert_eq!(cpu().peak_flops, 500e9);
        assert_eq!(gpu().peak_flops, 20e12);
        assert_eq!(gpu().bandwidth, 448e9);
        assert_eq!(all().len(), 5);
    }

    #[test]
    fn render_contains_all_rows() {
        let t = render_table();
        for s in all() {
            assert!(t.contains(s.name), "{} missing", s.name);
        }
    }
}
