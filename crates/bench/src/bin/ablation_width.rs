//! Ablation: network width sweep (`C ∈ {8, 16, 32, 64}`).
//!
//! The paper's scalability parameter `C` trades resources for parallelism
//! (Section III.A); this ablation measures how one representative problem's
//! per-iteration cycle count and utilization scale with width, including
//! the clock-frequency penalty wider networks pay.

use std::fmt::Write as _;

use mib_bench::run_reference;
use mib_compiler::lower::lower;
use mib_core::MibConfig;
use mib_problems::{instance, Domain};
use mib_qp::KktBackend;

fn main() {
    let inst = instance(Domain::Portfolio, 8);
    let mut body = String::new();
    body.push_str("== Ablation: network width sweep (portfolio instance 8, OSQP-indirect) ==\n\n");
    let (result, _) = run_reference(&inst, KktBackend::Indirect);
    let settings = mib_bench::eval_settings(KktBackend::Indirect);
    let _ = writeln!(
        body,
        "{:>4} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "C", "clock", "iter cycles", "pcg cycles", "total ms", "speed vs C=8"
    );
    let mut base_ms = None;
    for width in [8usize, 16, 32, 64] {
        let config = MibConfig::with_width(width);
        let lowered = lower(&inst.problem, &settings, config).expect("lowering succeeds");
        let seconds = mib_bench::mib_solve_seconds(&lowered, &result);
        let ms = seconds * 1e3;
        let base = *base_ms.get_or_insert(ms);
        let _ = writeln!(
            body,
            "{:>4} {:>6.0}MHz {:>12} {:>12} {:>12.3} {:>11.2}x",
            width,
            config.clock_hz / 1e6,
            lowered.iteration_cycles(),
            lowered.pcg_cycles(),
            ms,
            base / ms
        );
    }
    body.push_str("\nWider networks cut cycles per iteration but pay in clock frequency\n");
    body.push_str("and resources (Fig. 9) — the trade-off behind the paper's two\n");
    body.push_str("prototype widths.\n");
    mib_bench::emit_report("ablation_width", &body);
}
