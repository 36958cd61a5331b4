//! Property tests for the static timing analyzer: the prediction must
//! move **exactly** as the machine moves, under arbitrary program
//! mutations.
//!
//! Three attack surfaces:
//! - random op-tuple programs (every hazard class, both hazard
//!   policies): prediction equals simulation bitwise on acceptance, and
//!   reproduces the identical fault on rejection; an accepted stalling
//!   prediction and the critical path agree on cycles and stalls;
//! - seeded mutations of a known-good compiled schedule — slot swaps,
//!   inserted bubbles, dropped HBM words — each must shift the predicted
//!   cycles exactly as it shifts the measured cycles;
//! - `ProgramCache` round-trips: a cache-hit schedule must predict
//!   bitwise identically to the freshly lowered one.

use mib::compiler::elementwise::load_vec;
use mib::compiler::spmv::{mac_spmv, SpmvOptions};
use mib::compiler::{schedule, Allocator, KernelBuilder, ProgramCache, ScheduleOptions};
use mib::core::critical_path::critical_path;
use mib::core::hbm::HbmStream;
use mib::core::instruction::{LaneSource, LaneWrite, NetInstruction, WriteMode};
use mib::core::machine::{HazardPolicy, Machine};
use mib::core::program::Program;
use mib::core::timing;
use mib::core::MibConfig;
use mib::sparse::CscMatrix;
use proptest::prelude::*;

fn config() -> MibConfig {
    MibConfig {
        width: 8,
        bank_depth: 32,
        clock_hz: 1e6,
    }
}

/// One random op as an integer tuple: (kind, lane, src addr, dst addr,
/// preceding nop gap). Same interpretation as `tests/proptest_verify.rs`:
/// register move, stream load, accumulating (RMW) write, latch load, and
/// a latch-multiplied read — every hazard class the predictor replays.
type OpTuple = (usize, usize, usize, usize, usize);

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

/// Asserts the prediction equals the machine outcome exactly for one
/// (program, stream, policy) triple: full stats equality on acceptance, identical error value on rejection. Returns the agreed
/// cycle count when the program is accepted.
fn assert_exact(
    program: &[NetInstruction],
    hbm: &[f64],
    cfg: &MibConfig,
    policy: HazardPolicy,
) -> Option<u64> {
    let program = Program::from(program.to_vec());
    let predicted = timing::predict(&program, hbm.len(), cfg, policy);
    let simulated = Machine::new(*cfg).run(&program, &mut HbmStream::new(hbm.to_vec()), policy);
    match (predicted, simulated) {
        (Ok(p), Ok(stats)) => {
            assert_eq!(p.stats, stats, "stats must match bitwise ({policy:?})");
            Some(stats.cycles)
        }
        (Err(pe), Err(me)) => {
            assert_eq!(pe, me, "predicted fault must be the machine's fault");
            None
        }
        (p, m) => panic!("verdicts diverge ({policy:?}): predicted {p:?}, machine {m:?}"),
    }
}

/// A known-good compiled schedule (SpMV over a small sparse matrix) used
/// as the mutation substrate.
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
    (s.program.to_vec(), s.hbm, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random op-tuple programs under both policies: the prediction is
    /// exact whether the program stalls, runs clean, or faults. Where the
    /// stalling run is accepted, the critical path accounts for the same
    /// cycles and stalls.
    #[test]
    fn random_programs_predict_exactly(
        ops in proptest::collection::vec(
            (0usize..5, 0usize..8, 0usize..32, 0usize..32, 0usize..4),
            1..24,
        ),
        surplus in 0usize..2,
    ) {
        let cfg = config();
        let program = build_program(&ops, &cfg);
        let consumed: usize = program.iter().map(|i| i.stream_words()).sum();
        let hbm: Vec<f64> = (0..consumed + surplus).map(|k| k as f64 + 0.5).collect();
        assert_exact(&program, &hbm, &cfg, HazardPolicy::Stall);
        assert_exact(&program, &hbm, &cfg, HazardPolicy::Strict);
        if let Ok(p) = timing::predict(&program.clone().into(), hbm.len(), &cfg, HazardPolicy::Stall) {
            let path = critical_path(&program, &cfg);
            prop_assert_eq!(path.cycles, p.stats.cycles);
            prop_assert_eq!(path.stall_cycles, p.stats.stall_cycles);
        }
    }

    /// Slot-swap mutations of the compiled substrate: whatever the swap
    /// does to the machine (reorder cleanly, introduce stalls, fault),
    /// the prediction does the identical thing.
    #[test]
    fn slot_swap_mutations_predict_exactly(a in 0usize..1000, b in 0usize..1000) {
        let (mut program, hbm, cfg) = compiled_spmv();
        let n = program.len();
        let (a, b) = (a % n, b % n);
        program.swap(a, b);
        assert_exact(&program, &hbm, &cfg, HazardPolicy::Stall);
        assert_exact(&program, &hbm, &cfg, HazardPolicy::Strict);
    }

    /// Inserted bubbles: a nop in a certified (stall-free) schedule moves
    /// both the machine and the prediction by exactly one cycle.
    #[test]
    fn inserted_bubble_moves_prediction_by_one(k in 0usize..1000) {
        let (mut program, hbm, cfg) = compiled_spmv();
        let baseline = assert_exact(&program, &hbm, &cfg, HazardPolicy::Stall)
            .expect("substrate is clean");
        let k = k % (program.len() + 1);
        program.insert(k, NetInstruction::nop(cfg.width));
        let mutated = assert_exact(&program, &hbm, &cfg, HazardPolicy::Stall)
            .expect("a bubble cannot fault a clean schedule");
        prop_assert_eq!(mutated, baseline + 1);
    }

    /// Dropped HBM words: the prediction faults with the machine's exact
    /// `StreamExhausted` error — same instruction, same value.
    #[test]
    fn dropped_hbm_words_predict_the_same_fault(drop in 1usize..4) {
        let (program, mut hbm, cfg) = compiled_spmv();
        prop_assert!(hbm.len() >= drop, "substrate streams enough words");
        hbm.truncate(hbm.len() - drop);
        let verdict = assert_exact(&program, &hbm, &cfg, HazardPolicy::Stall);
        prop_assert!(verdict.is_none(), "short stream must fault both sides");
        assert_exact(&program, &hbm, &cfg, HazardPolicy::Strict);
    }
}

/// The unmutated substrate is clean and predicts exactly under both
/// policies — the mutation properties above start from a real baseline.
#[test]
fn unmutated_substrate_predicts_exactly() {
    let (program, hbm, cfg) = compiled_spmv();
    let stall = assert_exact(&program, &hbm, &cfg, HazardPolicy::Stall);
    let strict = assert_exact(&program, &hbm, &cfg, HazardPolicy::Strict);
    assert!(stall.is_some() && stall == strict);
}

/// `ProgramCache` round-trip: a cache hit shares the compiled programs,
/// and the static prediction over the shared program must be bitwise
/// identical to the fresh one — stats and per-slot issue cycles.
#[test]
fn cache_hit_predicts_bitwise_identically() {
    let p_mat = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
        .upper_triangle()
        .unwrap();
    let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
    let problem = |q0: f64| {
        mib::qp::Problem::new(
            p_mat.clone(),
            vec![q0, 1.0],
            a.clone(),
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.7, 0.7],
        )
        .unwrap()
    };
    let config = MibConfig {
        width: 8,
        bank_depth: 1 << 14,
        clock_hz: 1e6,
    };
    let settings = mib::qp::Settings::default();
    let mut cache = ProgramCache::new();
    let fresh = cache
        .lower_cached(&problem(1.0), &settings, config)
        .unwrap();
    // Same sparsity pattern, new values: this is the cache-hit path.
    let hit = cache
        .lower_cached(&problem(-2.0), &settings, config)
        .unwrap();
    assert_eq!(cache.hits(), 1, "second lowering must hit the cache");
    for (name, f, h) in [
        ("setup", &fresh.setup, &hit.setup),
        ("iteration", &fresh.iteration, &hit.iteration),
        ("check", &fresh.check, &hit.check),
    ] {
        if f.program.is_empty() {
            continue;
        }
        // The hit shares the miss's program and so its prediction memo:
        // hold that against a fresh copy's own prediction.
        let copy = Program::from(f.program.to_vec());
        let pf = timing::predict(&copy, f.hbm.len(), &config, HazardPolicy::Strict)
            .unwrap_or_else(|e| panic!("{name}: fresh prediction failed: {e}"));
        let ph = timing::predict(&h.program, h.hbm.len(), &config, HazardPolicy::Strict)
            .unwrap_or_else(|e| panic!("{name}: cached prediction failed: {e}"));
        assert_eq!(pf.stats, ph.stats, "{name}: cached stats must be identical");
        assert_eq!(
            pf.issue_cycles, ph.issue_cycles,
            "{name}: cached per-slot issue cycles must be identical"
        );
    }
}
