//! Compiler-side verification: the `mib-verify` static pass over compiled
//! schedules, plus a kernel-aware **packing cross-check** that only the
//! compiler can run (it needs the logical instruction stream).
//!
//! Program-level verification ([`verify_schedule`]) proves the published
//! slots are something the machine's strict execution accepts. The packing
//! cross-check (`verify_packing`) additionally proves the scheduler
//! *placed* instructions legally: every dependency distance is respected,
//! the logical instructions of each slot re-merge without collisions, and
//! the re-merged slots and re-assembled HBM stream are bitwise identical
//! to what [`crate::schedule::schedule`] published.
//!
//! The lowering pipeline calls [`checked_schedule`] instead of the raw
//! scheduler: in builds with debug assertions (debug builds and the
//! `checked` profile) every schedule is verified immediately after
//! packing, and the program cache re-verifies the value-refreshed load
//! program on every hit.

use mib_core::instruction::NetInstruction;
use mib_core::MibConfig;
use mib_qp::profile::Certification;
use mib_verify::{DiagKind, Diagnostic, Report};

use crate::kernel::Kernel;
use crate::lower::LoweredQp;
use crate::schedule::{schedule, Schedule, ScheduleOptions};

/// Statically verifies a compiled schedule, folding in the scheduler's
/// forced-append count as a warning.
pub fn verify_schedule(name: &str, s: &Schedule, config: &MibConfig) -> Report {
    let mut report = mib_verify::verify_program(name, &s.program, s.hbm.len(), config);
    if s.forced_appends > 0 {
        report
            .diagnostics
            .push(Diagnostic::global(DiagKind::ForcedAppends {
                count: s.forced_appends,
            }));
    }
    report
}

/// Cross-checks a schedule against the kernel it was packed from:
///
/// 1. every logical instruction sits at or after its dependency-ready slot,
/// 2. the logical instructions assigned to each slot merge collision-free,
/// 3. the re-merged slots equal the published program bitwise,
/// 4. the re-assembled HBM stream equals the published stream.
///
/// Returns the findings (all error severity); empty means the packing is
/// provably faithful.
fn verify_packing(kernel: &Kernel, s: &Schedule) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if s.slot_of.len() != kernel.instrs.len() {
        diags.push(Diagnostic::global(DiagKind::PackingSlotMismatch));
        return diags;
    }

    // 1. Dependency distances.
    for (c, li) in kernel.instrs.iter().enumerate() {
        let slot_c = s.slot_of[c] as u64;
        for &(p, delay) in &li.deps {
            let slot_p = s.slot_of[p] as u64;
            let actual = slot_c.saturating_sub(slot_p);
            if slot_c < slot_p + delay {
                diags.push(
                    Diagnostic::at_slot(
                        s.slot_of[c],
                        DiagKind::PackingDependency {
                            logical: c,
                            producer: p,
                            required: delay,
                            actual,
                        },
                    )
                    .with_logical(c),
                );
            }
        }
    }

    // 2. Re-merge each slot's logical instructions, re-assemble the stream.
    let mut rebuilt: Vec<NetInstruction> = s
        .program
        .iter()
        .map(|_| NetInstruction::nop(kernel.width))
        .collect();
    let mut streams: Vec<Vec<(usize, f64)>> = vec![Vec::new(); s.program.len()];
    for (idx, li) in kernel.instrs.iter().enumerate() {
        let t = s.slot_of[idx];
        if t >= rebuilt.len() {
            diags.push(Diagnostic::global(DiagKind::PackingSlotMismatch).with_logical(idx));
            continue;
        }
        match rebuilt[t].try_merge(&li.inst) {
            Ok(merged) => rebuilt[t] = merged,
            Err(e) => diags.push(
                Diagnostic::at_slot(
                    t,
                    DiagKind::PackingCollision {
                        logical: idx,
                        detail: e.to_string(),
                    },
                )
                .with_logical(idx),
            ),
        }
        streams[t].extend_from_slice(&li.stream);
    }

    // 3. Slot equality (skip slots already reported as collisions — their
    // rebuild is incomplete by construction).
    let collided: Vec<usize> = diags
        .iter()
        .filter(|d| matches!(d.kind, DiagKind::PackingCollision { .. }))
        .filter_map(|d| d.slot)
        .collect();
    for (t, (got, want)) in rebuilt.iter().zip(&s.program).enumerate() {
        if got != want && !collided.contains(&t) {
            diags.push(Diagnostic::at_slot(t, DiagKind::PackingSlotMismatch));
        }
    }

    // 4. Stream equality: within a slot the machine consumes words in the
    // kernel's lane-order sort keys, slots in issue order.
    let mut hbm = Vec::with_capacity(s.hbm.len());
    for slot_stream in &mut streams {
        slot_stream.sort_by_key(|&(lane, _)| lane);
        hbm.extend(slot_stream.iter().map(|&(_, w)| w));
    }
    if hbm.len() != s.hbm.len() {
        diags.push(Diagnostic::global(DiagKind::PackingStreamMismatch {
            word: hbm.len().min(s.hbm.len()),
        }));
    } else if let Some(word) = hbm
        .iter()
        .zip(&s.hbm)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        diags.push(Diagnostic::global(DiagKind::PackingStreamMismatch { word }));
    }

    diags
}

/// Full verification of a kernel's schedule: program-level analysis plus
/// the packing cross-check, as one report.
pub fn verify_kernel_schedule(kernel: &Kernel, s: &Schedule, config: &MibConfig) -> Report {
    let mut report = verify_schedule(&kernel.name, s, config);
    report.diagnostics.extend(verify_packing(kernel, s));
    report
}

/// Schedules a kernel and — in builds with debug assertions — immediately
/// verifies the result, program-level and packing-level.
///
/// # Panics
///
/// Panics with the full report if verification finds an error-severity
/// defect: a schedule the machine would reject must never leave the
/// compiler silently.
pub fn checked_schedule(kernel: &Kernel, opts: ScheduleOptions, config: &MibConfig) -> Schedule {
    let s = schedule(kernel, opts);
    if cfg!(debug_assertions) {
        let report = verify_kernel_schedule(kernel, &s, config);
        assert!(
            report.is_certified(),
            "compiler produced an uncertifiable schedule:\n{report}"
        );
        // Cross-check against the cost oracle: a certified schedule must
        // predict strict acceptance, stall-free, and the report's timing
        // must agree with the oracle's (they run the same predictor
        // through two call paths).
        let cost = crate::cost::static_cost(&s, config)
            .expect("certified schedule must have a static cost");
        assert_eq!(
            cost.stall_cycles, 0,
            "certified schedule predicts stalls: {cost:?}"
        );
        let timing = report.timing.expect("certified schedule has timing");
        assert_eq!(
            cost.cycles, timing.predicted_cycles,
            "cost oracle and verifier timing disagree"
        );
    }
    s
}

/// Re-verifies a cache-refreshed load schedule (program-level only — the
/// cache does not retain the kernel).
pub(crate) fn maybe_verify_refreshed_load(s: &Schedule, config: &MibConfig) {
    if cfg!(debug_assertions) {
        let report = verify_schedule("load(cache-hit)", s, config);
        assert!(
            report.is_certified(),
            "cache-refreshed load schedule failed verification:\n{report}"
        );
    }
}

/// Verifies every program of a lowered QP and packages the result as the
/// solver-facing [`Certification`]. Empty programs (e.g. the direct
/// variant's PCG slot) are skipped.
pub fn certify_lowered(lowered: &LoweredQp) -> Certification {
    let programs = [
        ("load", &lowered.load),
        ("setup", &lowered.setup),
        ("iteration", &lowered.iteration),
        ("pcg", &lowered.pcg_iteration),
        ("check", &lowered.check),
    ];
    Certification {
        certificates: programs
            .into_iter()
            .filter(|(_, s)| !s.program.is_empty())
            .map(|(name, s)| verify_schedule(name, s, &lowered.config).certificate())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use mib_core::instruction::{LaneSource, LaneWrite, WriteMode};
    use mib_verify::Severity;

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

    fn chain_kernel() -> Kernel {
        let mut b = KernelBuilder::new("chain", 8, config().latency());
        b.push(mov(0, 0, 1), vec![]);
        b.push(mov(0, 1, 2), vec![]); // RAW on (0,1)
        b.push(mov(3, 0, 1), vec![]); // independent
        b.finish()
    }

    #[test]
    fn faithful_packing_passes_cross_check() {
        let kernel = chain_kernel();
        let s = schedule(&kernel, ScheduleOptions::default());
        assert!(verify_packing(&kernel, &s).is_empty());
        let report = verify_kernel_schedule(&kernel, &s, &config());
        assert!(report.is_certified(), "{report}");
    }

    #[test]
    fn shrunk_dependency_gap_is_caught() {
        let kernel = chain_kernel();
        let mut s = schedule(&kernel, ScheduleOptions::default());
        // Move the consumer one slot after its producer: both the packing
        // cross-check and the program-level dataflow must object.
        let producer_slot = s.slot_of[0];
        let old_slot = s.slot_of[1];
        let inst = s.program[old_slot].clone();
        s.program[old_slot] = NetInstruction::nop(8);
        s.program[producer_slot + 1] = inst;
        s.slot_of[1] = producer_slot + 1;
        let diags = verify_packing(&kernel, &s);
        assert!(diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::PackingDependency { logical: 1, .. })));
        let report = verify_kernel_schedule(&kernel, &s, &config());
        assert!(!report.is_certified());
        assert!(report
            .errors()
            .any(|d| matches!(d.kind, DiagKind::HazardRead { .. })));
    }

    #[test]
    fn corrupted_slot_is_caught() {
        let kernel = chain_kernel();
        let mut s = schedule(&kernel, ScheduleOptions::default());
        // Tamper with a published slot without telling slot_of.
        let t = s.slot_of[2];
        s.program[t] = s.program[t].try_merge(&mov(5, 0, 1)).unwrap();
        let diags = verify_packing(&kernel, &s);
        assert!(diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::PackingSlotMismatch)));
    }

    #[test]
    fn colliding_placement_is_caught() {
        // Two moves on the same lane cannot share a slot; force slot_of to
        // claim they do and the re-merge must report the port collision.
        let mut b = KernelBuilder::new("collide", 8, config().latency());
        b.push(mov(0, 0, 1), vec![]);
        b.push(mov(0, 5, 6), vec![]); // same lane as logical 0
        let kernel = b.finish();
        let mut s = schedule(&kernel, ScheduleOptions::default());
        s.slot_of = vec![0, 0];
        s.program = vec![s.program[0].clone()];
        let diags = verify_packing(&kernel, &s);
        assert!(
            diags
                .iter()
                .any(|d| matches!(d.kind, DiagKind::PackingCollision { logical: 1, .. })),
            "{diags:?}"
        );
    }

    #[test]
    fn dropped_stream_word_is_caught() {
        let mut b = KernelBuilder::new("stream", 8, config().latency());
        let mut i = NetInstruction::nop(8);
        i.set_input(2, LaneSource::Stream);
        i.route(2, 2);
        i.set_write(
            2,
            LaneWrite {
                addr: 0,
                mode: WriteMode::Store,
            },
        );
        b.push(i, vec![(2, 7.5)]);
        let kernel = b.finish();
        let mut s = schedule(&kernel, ScheduleOptions::default());
        s.hbm.pop();
        let diags = verify_packing(&kernel, &s);
        assert!(diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::PackingStreamMismatch { .. })));
        // Program-level verification independently flags the underflow.
        let report = verify_schedule("stream", &s, &config());
        assert!(report
            .errors()
            .any(|d| matches!(d.kind, DiagKind::StreamUnderflow { .. })));
    }

    #[test]
    fn forced_appends_surface_as_warning() {
        let mut b = KernelBuilder::new("tight", 8, config().latency());
        b.push(mov(0, 2, 1), vec![]);
        b.push(mov(0, 3, 1), vec![]);
        b.push(mov(0, 4, 1), vec![]);
        b.push(mov(0, 5, 6), vec![]);
        let kernel = b.finish();
        let s = schedule(
            &kernel,
            ScheduleOptions {
                probe_limit: 0,
                ..ScheduleOptions::default()
            },
        );
        assert!(s.forced_appends > 0);
        let report = verify_kernel_schedule(&kernel, &s, &config());
        // Degraded packing is still collision-free and hazard-free.
        assert!(report.is_certified(), "{report}");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d.kind, DiagKind::ForcedAppends { count } if count > 0)));
        assert!(report.count(Severity::Warning) >= 1);
    }

    #[test]
    fn checked_schedule_accepts_compiler_output() {
        let kernel = chain_kernel();
        let s = checked_schedule(&kernel, ScheduleOptions::default(), &config());
        assert_eq!(s.logical_count, 3);
    }
}
