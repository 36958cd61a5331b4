//! Differential tests between static certification (`mib-verify`'s
//! strict prediction) and the cycle-accurate machine in strict hazard
//! mode.
//!
//! The contract under test: a program is statically certified
//! (`predict(…, HazardPolicy::Strict)` is `Ok`) **iff**
//! `Machine::run(Strict)` executes it without error on a stream of the
//! given length. Random op-tuple programs exercise the hazard/latency
//! rules from both sides; seeded mutations of known-good compiled
//! schedules (slot swaps, shrunk latency gaps, dropped HBM words) check
//! that every dynamically observable corruption is also caught
//! statically.

use mib::compiler::elementwise::load_vec;
use mib::compiler::spmv::{mac_spmv, SpmvOptions};
use mib::compiler::{schedule, Allocator, KernelBuilder, ScheduleOptions};
use mib::core::hbm::HbmStream;
use mib::core::instruction::{LaneSource, LaneWrite, NetInstruction, WriteMode};
use mib::core::machine::{HazardPolicy, Machine};
use mib::core::MibConfig;
use mib::sparse::CscMatrix;
use mib::verify::predict;
use proptest::prelude::*;

fn config() -> MibConfig {
    MibConfig {
        width: 8,
        bank_depth: 32,
        clock_hz: 1e6,
    }
}

/// One random op as an integer tuple: (kind, lane, src addr, dst addr,
/// preceding nop gap). Interpreted by [`build_program`].
type OpTuple = (usize, usize, usize, usize, usize);

/// Interprets op tuples into a straight-line network program. Kinds:
/// register move, stream load, accumulating (RMW) write, latch load, and
/// a latch-multiplied read — together they cover every hazard class the
/// machine checks (register RAW, RMW read-before-write, latch RAW).
fn build_program(ops: &[OpTuple], cfg: &MibConfig) -> Vec<NetInstruction> {
    let mut program = Vec::new();
    for &(kind, lane, src, dst, gap) in ops {
        let lane = lane % cfg.width;
        let src = src % cfg.bank_depth;
        let dst = dst % cfg.bank_depth;
        for _ in 0..gap {
            program.push(NetInstruction::nop(cfg.width));
        }
        let mut i = NetInstruction::nop(cfg.width);
        let (input, write) = match kind % 5 {
            0 => (
                LaneSource::Reg { addr: src },
                LaneWrite {
                    addr: dst,
                    mode: WriteMode::Store,
                },
            ),
            1 => (
                LaneSource::Stream,
                LaneWrite {
                    addr: dst,
                    mode: WriteMode::Store,
                },
            ),
            2 => (
                LaneSource::Reg { addr: src },
                LaneWrite {
                    addr: dst,
                    mode: WriteMode::Add,
                },
            ),
            3 => (
                LaneSource::Reg { addr: src },
                LaneWrite {
                    addr: 0,
                    mode: WriteMode::Latch,
                },
            ),
            _ => (
                LaneSource::RegTimesLatch {
                    addr: src,
                    negate: false,
                },
                LaneWrite {
                    addr: dst,
                    mode: WriteMode::Store,
                },
            ),
        };
        i.set_input(lane, input);
        i.route(lane, lane);
        i.set_write(lane, write);
        program.push(i);
    }
    program
}

/// Runs both sides and returns (statically certified, machine accepted).
fn both_verdicts(program: &[NetInstruction], hbm: Vec<f64>, cfg: &MibConfig) -> (bool, bool) {
    let certified = predict(program, hbm.len(), cfg, HazardPolicy::Strict).is_ok();
    let mut m = Machine::new(*cfg);
    let dynamic = m
        .run(program, &mut HbmStream::new(hbm), HazardPolicy::Strict)
        .is_ok();
    (certified, dynamic)
}

/// A known-good compiled schedule (SpMV over a small dense-ish matrix)
/// used as the mutation substrate.
fn compiled_spmv() -> (Vec<NetInstruction>, Vec<f64>, MibConfig) {
    let cfg = MibConfig {
        width: 8,
        bank_depth: 2048,
        clock_hz: 1e6,
    };
    let rows = [0usize, 0, 1, 1, 2, 3, 3, 4, 5, 5];
    let cols = [0usize, 3, 1, 2, 0, 3, 4, 2, 1, 4];
    let vals = [1.5, -2.0, 0.5, 3.0, -1.0, 2.5, 0.25, -0.75, 1.25, -3.5];
    let a = CscMatrix::from_triplet_parts(6, 5, &rows, &cols, &vals).unwrap();
    let x: Vec<f64> = (0..5).map(|i| i as f64 - 1.5).collect();
    let mut alloc = Allocator::new(cfg.width);
    let xl = alloc.alloc(5);
    let yl = alloc.alloc(6);
    let mut b = KernelBuilder::new("spmv", cfg.width, cfg.latency());
    load_vec(&mut b, xl, &x);
    mac_spmv(
        &mut b,
        &mut alloc,
        &a.to_csr(),
        xl,
        yl,
        false,
        SpmvOptions::default(),
    );
    let s = schedule(&b.finish(), ScheduleOptions::default());
    (s.program, s.hbm, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random op-tuple programs with an exactly-sized stream: the static
    /// verdict agrees with strict execution in every case.
    #[test]
    fn random_programs_agree_with_strict_machine(
        ops in proptest::collection::vec(
            (0usize..5, 0usize..8, 0usize..32, 0usize..32, 0usize..4),
            1..24,
        ),
    ) {
        let cfg = config();
        let program = build_program(&ops, &cfg);
        let consumed: usize = program.iter().map(|i| i.stream_words()).sum();
        let hbm: Vec<f64> = (0..consumed).map(|k| k as f64 + 0.5).collect();
        let (certified, dynamic) = both_verdicts(&program, hbm, &cfg);
        prop_assert_eq!(
            certified, dynamic,
            "static verdict {} vs machine {}", certified, dynamic
        );
    }

    /// Stream-length perturbations: a short stream is rejected by both
    /// sides; a surplus stream blocks neither (the machine tolerates
    /// leftover words).
    #[test]
    fn stream_length_mismatches_agree(
        ops in proptest::collection::vec(
            (0usize..5, 0usize..8, 0usize..32, 0usize..32, 0usize..4),
            1..16,
        ),
        delta in -1isize..2,
    ) {
        let cfg = config();
        let program = build_program(&ops, &cfg);
        let consumed: usize = program.iter().map(|i| i.stream_words()).sum();
        let provided = consumed.saturating_add_signed(delta);
        let hbm: Vec<f64> = (0..provided).map(|k| k as f64 + 0.5).collect();
        let (certified, dynamic) = both_verdicts(&program, hbm, &cfg);
        prop_assert_eq!(certified, dynamic);
        if delta < 0 && consumed > 0 {
            prop_assert!(!certified, "short stream must fail statically");
        }
    }

    /// Slot-swap mutations of a clean compiled schedule: the static
    /// verdict tracks strict execution, so every dynamically caught swap
    /// is also caught statically.
    #[test]
    fn slot_swap_mutations_agree(a in 0usize..1000, b in 0usize..1000) {
        let (mut program, hbm, cfg) = compiled_spmv();
        let n = program.len();
        let (a, b) = (a % n, b % n);
        program.swap(a, b);
        let (certified, dynamic) = both_verdicts(&program, hbm, &cfg);
        prop_assert_eq!(
            certified, dynamic,
            "swap ({}, {}): static {} vs machine {}", a, b, certified, dynamic
        );
    }

    /// Shrunk-latency mutations (delete one slot, pulling every later
    /// instruction a cycle earlier): static and dynamic verdicts agree.
    #[test]
    fn slot_deletion_mutations_agree(k in 0usize..1000) {
        let (mut program, mut hbm, cfg) = compiled_spmv();
        let k = k % program.len();
        let dropped = program.remove(k);
        // Keep the stream aligned with the surviving instructions so the
        // mutation isolates the timing change (the dropped words belong
        // to the removed slot; which positions they occupied is the
        // prefix sum of the preceding slots' consumption).
        let offset: usize = program[..k].iter().map(|i| i.stream_words()).sum();
        for _ in 0..dropped.stream_words() {
            hbm.remove(offset);
        }
        let (certified, dynamic) = both_verdicts(&program, hbm, &cfg);
        prop_assert_eq!(
            certified, dynamic,
            "delete {}: static {} vs machine {}", k, certified, dynamic
        );
    }
}

/// The unmutated substrate is clean on both sides — the mutation tests
/// above start from a genuinely certified program.
#[test]
fn unmutated_substrate_is_clean() {
    let (program, hbm, cfg) = compiled_spmv();
    let (certified, dynamic) = both_verdicts(&program, hbm, &cfg);
    assert!(certified && dynamic);
}

/// Dropping the final HBM word off a clean compiled schedule is caught
/// statically (stream underflow) and dynamically (stream exhaustion).
#[test]
fn dropped_hbm_word_is_caught_statically() {
    let (program, mut hbm, cfg) = compiled_spmv();
    assert!(!hbm.is_empty());
    hbm.pop();
    let (certified, dynamic) = both_verdicts(&program, hbm, &cfg);
    assert!(!certified, "certification must reject the short stream");
    assert!(!dynamic, "machine must also reject it");
}

/// Shrinking an exact-latency gap by one slot turns a clean hand-built
/// chain into a RAW hazard that both sides reject.
#[test]
fn shrunk_latency_gap_is_caught_statically() {
    let cfg = config();
    let latency = cfg.latency() as usize;
    let mov = |src: usize, dst: usize| {
        let mut i = NetInstruction::nop(cfg.width);
        i.set_input(0, LaneSource::Reg { addr: src });
        i.route(0, 0);
        i.set_write(
            0,
            LaneWrite {
                addr: dst,
                mode: WriteMode::Store,
            },
        );
        i
    };
    let mut program = vec![mov(0, 1)];
    program.extend((0..latency - 1).map(|_| NetInstruction::nop(cfg.width)));
    program.push(mov(1, 2));
    // With `latency - 1` nops the read sits exactly at the write's
    // visibility cycle: clean on both sides.
    let (certified, dynamic) = both_verdicts(&program, Vec::new(), &cfg);
    assert!(certified && dynamic, "exact-latency spacing is legal");
    // Removing one nop shrinks the gap below the pipeline latency.
    program.remove(1);
    let (certified, dynamic) = both_verdicts(&program, Vec::new(), &cfg);
    assert!(!certified, "certification must reject the shrunk gap");
    assert!(!dynamic, "machine must also reject it");
}

/// Exhaustive adjacent-swap sweep over the compiled substrate: static
/// certification catches every mutation strict execution catches (a 100%
/// catch rate on dynamically observable corruptions), and the two sides
/// never disagree in either direction.
#[test]
fn adjacent_swap_sweep_catch_rate() {
    let (program, hbm, cfg) = compiled_spmv();
    let mut dynamic_rejects = 0usize;
    let mut static_rejects = 0usize;
    for k in 1..program.len() {
        let mut mutant = program.clone();
        mutant.swap(k - 1, k);
        let (certified, dynamic) = both_verdicts(&mutant, hbm.clone(), &cfg);
        assert_eq!(certified, dynamic, "swap ({}, {}) disagrees", k - 1, k);
        if !dynamic {
            dynamic_rejects += 1;
        }
        if !certified {
            static_rejects += 1;
        }
    }
    assert_eq!(static_rejects, dynamic_rejects);
    assert!(
        dynamic_rejects > 0,
        "the sweep must contain at least one corrupting mutation"
    );
}
