//! Enabled-mode tracing tests for the compiler: tracing leaves the
//! lowered programs exactly as they are with tracing off, lowering opens
//! its compiler spans, and the program cache counts its miss and hit.
//!
//! Lives in its own integration-test binary: the mib-trace enable flag is
//! process-global, and cargo runs test binaries sequentially, so enabling
//! tracing here cannot perturb the unit tests. The single `#[test]` keeps
//! the binary's own tests from racing each other.

use mib_compiler::cache::ProgramCache;
use mib_compiler::lower::{lower, LoweredQp};
use mib_compiler::{static_cost, Schedule};
use mib_core::MibConfig;
use mib_qp::{KktBackend, Problem, Settings};
use mib_sparse::CscMatrix;
use mib_trace::{Category, Event};

fn small_problem(q0: f64) -> Problem {
    let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
        .upper_triangle()
        .unwrap();
    let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
    Problem::new(
        p,
        vec![q0, 1.0],
        a,
        vec![1.0, 0.0, 0.0],
        vec![1.0, 0.7, 0.7],
    )
    .unwrap()
}

fn config() -> MibConfig {
    MibConfig {
        width: 8,
        bank_depth: 1 << 14,
        clock_hz: 1e6,
    }
}

/// Slots, logical instructions, forced appends and exact cycles of one
/// program.
fn shape(s: &Schedule) -> (usize, usize, usize, Option<u64>) {
    (
        s.slots(),
        s.logical_count(),
        s.forced_appends,
        static_cost(s, &config()).map(|c| c.cycles),
    )
}

/// Asserts that two lowerings produced the same five programs.
fn assert_same_programs(traced: &LoweredQp, plain: &LoweredQp, what: &str) {
    let programs = |l: &LoweredQp| {
        [
            ("load", shape(&l.load)),
            ("setup", shape(&l.setup)),
            ("iteration", shape(&l.iteration)),
            ("pcg", shape(&l.pcg_iteration)),
            ("check", shape(&l.check)),
        ]
    };
    for ((name, on), (_, off)) in programs(traced).into_iter().zip(programs(plain)) {
        assert_eq!(on, off, "{what}: the {name} program changed under tracing");
    }
}

#[test]
fn tracing_leaves_lowered_programs_unchanged() {
    let direct = Settings::default();
    let indirect = Settings::with_backend(KktBackend::Indirect);
    let plain = |q0: f64, settings: &Settings| lower(&small_problem(q0), settings, config());
    let plain_direct = plain(1.0, &direct).unwrap();
    let plain_indirect = plain(1.0, &indirect).unwrap();
    let plain_hit = plain(-2.0, &direct).unwrap();
    assert!(
        plain_direct.iteration.slots() > 0 && plain_indirect.pcg_iteration.slots() > 0,
        "both variants lower real programs"
    );

    mib_trace::clear();
    mib_trace::enable();
    let traced_direct = lower(&small_problem(1.0), &direct, config()).unwrap();
    let traced_indirect = lower(&small_problem(1.0), &indirect, config()).unwrap();
    let mut cache = ProgramCache::new();
    let miss = cache
        .lower_cached(&small_problem(1.0), &direct, config())
        .unwrap();
    let hit = cache
        .lower_cached(&small_problem(-2.0), &direct, config())
        .unwrap();
    mib_trace::disable();
    let trace = mib_trace::take();

    assert_same_programs(&traced_direct, &plain_direct, "direct lower");
    assert_same_programs(&traced_indirect, &plain_indirect, "indirect lower");
    assert_same_programs(&miss, &plain_direct, "cache miss");
    assert_same_programs(&hit, &plain_hit, "cache hit");
    // A miss for the first pattern, a hit for the re-valued one.
    assert_eq!((cache.misses(), cache.hits()), (1, 1));

    // Compiler spans: every lowering opens `lower`, the direct pipeline
    // opens `analyze`, and each program opens `build` around its kernel's
    // construction and `schedule` around its packing: four per direct
    // lowering (load, setup, iteration, check) and four per indirect one
    // (load, iteration, pcg, check). Every lowering fills its load map
    // under `load_map` once. A cache hit builds and schedules nothing: it
    // shares the miss's programs, `load` included.
    let begins = |name: &str| {
        trace
            .records()
            .filter(
                |r| matches!(r.event, Event::Begin { name: n, cat } if n == name && cat == Category::Compiler),
            )
            .count()
    };
    assert_eq!(begins("lower"), 3, "direct + indirect lower + cache miss");
    assert_eq!(begins("analyze"), 2, "direct lower + cache miss");
    assert_eq!(begins("build"), 4 + 4 + 4);
    assert_eq!(begins("schedule"), 4 + 4 + 4);
    assert_eq!(begins("load_map"), 3);
    // The phases add up: each opens directly inside `lower`, never inside
    // another phase, so `lower` is their sum plus a remainder. The
    // permutation router's `route` is part of building its kernel.
    let mut open: Vec<&str> = Vec::new();
    for r in trace.records() {
        match r.event {
            Event::Begin {
                name,
                cat: Category::Compiler,
            } => {
                let parent = match name {
                    "lower" => None,
                    "route" => Some("build"),
                    _ => Some("lower"),
                };
                assert_eq!(open.last().copied(), parent, "the parent of {name}");
                open.push(name);
            }
            Event::End {
                name,
                cat: Category::Compiler,
            } => assert_eq!(open.pop(), Some(name)),
            _ => {}
        }
    }
    assert!(open.is_empty());
    assert_eq!(trace.dropped(), 0);
}
