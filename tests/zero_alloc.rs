//! Counting-allocator proof of the workspace-centric solve pipeline: after
//! [`Solver::new`], a [`Solver::solve_into`] performs **zero** heap
//! allocations — across the ADMM iteration, the KKT solve (both backends)
//! and the residual/termination paths — *with the mib-trace
//! instrumentation compiled in and disabled*: every potential span or
//! event in the measured region costs one relaxed atomic load and nothing
//! else.
//!
//! The crates themselves `#![forbid(unsafe_code)]`, so the `GlobalAlloc`
//! shim lives here in the integration-test binary. Counting is per-thread
//! (a thread-local counter) so the harness running other tests on sibling
//! threads cannot pollute a measurement. No test in this binary may call
//! `mib::trace::enable()` or build an obs-enabled server — enabled-mode
//! behavior is covered by `tests/trace_pipeline.rs` and
//! `tests/obs_flight.rs`, which cargo runs as separate processes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mib::compiler::lower::{lower, LoweredQp};
use mib::compiler::{ProgramCache, Schedule};
use mib::core::hbm::HbmStream;
use mib::core::machine::{HazardPolicy, Machine};
use mib::core::MibConfig;
use mib::problems::{instance, portfolio, Domain};
use mib::qp::linsys::IndirectKkt;
use mib::qp::{KktBackend, Problem, Settings, Solver, Status, INFTY};

struct CountingAlloc;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so allocations during TLS teardown don't panic.
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Number of heap allocations the current thread performs inside `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_COUNT.with(|c| c.get());
    f();
    ALLOC_COUNT.with(|c| c.get()) - before
}

/// Disabled-mode tracing is allocation-free in isolation: a dense loop of
/// potential spans and gated events touches neither the heap nor
/// thread-local storage. (The solve tests below prove the same property
/// end-to-end through the instrumented `solve_into`.)
#[test]
fn disabled_tracing_instrumentation_allocates_nothing() {
    assert!(
        !mib::trace::enabled(),
        "zero_alloc tests measure disabled-mode tracing only"
    );
    let allocs = allocations_during(|| {
        for _ in 0..10_000 {
            let tracing = mib::trace::enabled();
            let _span = mib::trace::span_if(tracing, "probe", mib::trace::Category::Solver);
            mib::trace::record_if(
                tracing,
                mib::trace::Event::Mark {
                    name: "m",
                    cat: mib::trace::Category::Solver,
                    value: 0.0,
                },
            );
        }
    });
    assert_eq!(allocs, 0, "disabled-mode tracing allocated {allocs} times");
}

/// The disabled observability plane is allocation-free on the paths the
/// serving hot path calls: admissions and sheds, stamped ones included.
#[test]
fn disabled_obs_plane_allocates_nothing() {
    let server = mib::serve::QpServer::default();
    let obs = server.obs();
    assert!(!obs.is_active());
    let now = std::time::Instant::now();
    let allocs = allocations_during(|| {
        for id in 0..1000 {
            obs.record_admitted(now);
            obs.record_shed(id, "queue_full", now);
        }
    });
    assert_eq!(allocs, 0, "the disabled plane allocated {allocs} times");
    server.shutdown();
}

/// The SIMD kernels never touch the heap: every kernel works in
/// caller-provided buffers.
#[test]
fn simd_kernels_perform_zero_allocations() {
    use mib::sparse::simd;
    let n = 1 << 10;
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
    let mut y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
    let mut out = vec![0.0; n];
    let l = vec![-0.5; n];
    let u = vec![0.5; n];
    let idx: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
    let allocs = allocations_during(|| {
        let d = simd::dot(&x, &y);
        let m = simd::norm_inf_sum3(&x, &y, &l);
        simd::axpy_into(&mut y, 0.25, &x);
        simd::ew_prod_into(&mut out, &x, &y);
        simd::project_box_into(&mut y, &l, &u);
        let g = simd::gather_dot(&x, &idx, &y);
        simd::scatter_axpy(&mut out, &idx, &x, 0.5);
        // Fold the reduction results into an output so none of the calls
        // can be optimized away.
        out[0] += (d + m + g) * 1e-300;
    });
    assert_eq!(
        allocs, 0,
        "SIMD kernels performed {allocs} heap allocations"
    );
}

fn assert_solve_is_allocation_free(problem: Problem, backend: KktBackend) {
    let settings = Settings::with_backend(backend);

    let mut solver = Solver::new(problem, settings).expect("setup");
    // Warm-up: the first solve sizes the result buffers (and lets lazy
    // one-time costs, e.g. TLS init, happen outside the measurement).
    let mut result = solver.solve();
    assert_eq!(
        result.status,
        Status::Solved,
        "{backend:?} warm-up must solve"
    );

    solver.reset();
    let allocs = allocations_during(|| solver.solve_into(&mut result));
    assert_eq!(result.status, Status::Solved);
    // On the direct backend an adaptive-ρ update runs inside the measured
    // solve, so the in-place refactorization is covered too. (The
    // indirect re-evaluation is measured on the assembled path below.)
    if backend == KktBackend::Direct {
        assert!(
            result.profile.rho_updates >= 1,
            "the measured direct solve must refactor"
        );
    }
    assert_eq!(
        allocs, 0,
        "{backend:?} solve_into performed {allocs} heap allocations; \
         the workspace pipeline must perform none"
    );
}

#[test]
fn direct_solve_into_performs_zero_allocations() {
    assert_solve_is_allocation_free(portfolio(30, 5, 7), KktBackend::Direct);
}

/// The portfolio plus the `huber[1]` suite instance, on which the
/// pre-test tightens the PCG tolerance, so that path runs inside the
/// measured `solve_into` too.
#[test]
fn indirect_solve_into_performs_zero_allocations() {
    assert_solve_is_allocation_free(portfolio(30, 5, 7), KktBackend::Indirect);
    assert_solve_is_allocation_free(instance(Domain::Huber, 1).problem, KktBackend::Indirect);
}

/// The indirect backend with `S` assembled (the sparse-row SVM suite
/// instance passes the size guard; the portfolio above stays matrix-free):
/// `reset` re-installs the base `ρ` after the warm-up's adaptive update,
/// and the measured solve updates `ρ` again, so both re-evaluations of the
/// assembled values run inside the measured region.
#[test]
fn assembled_indirect_solve_and_rho_updates_perform_zero_allocations() {
    let problem = instance(Domain::Svm, 1).problem;
    let settings = Settings::with_backend(KktBackend::Indirect);
    let kkt = IndirectKkt::new(
        problem.p(),
        problem.a(),
        settings.sigma,
        &vec![settings.rho; problem.num_constraints()],
        settings.eps_pcg_min,
    );
    assert!(
        kkt.reduced_matrix().is_some(),
        "svm[1] must take the assembled path"
    );
    let mut solver = Solver::new(problem, settings).expect("setup");
    let mut result = solver.solve();
    assert_eq!(result.status, Status::Solved, "warm-up must solve");
    assert!(
        result.profile.rho_updates >= 1,
        "warm-up must update rho so that reset re-installs it"
    );
    let allocs = allocations_during(|| {
        solver.reset();
        solver.solve_into(&mut result);
    });
    assert_eq!(result.status, Status::Solved);
    assert!(
        result.profile.rho_updates >= 1,
        "the measured solve must update rho"
    );
    assert_eq!(
        allocs, 0,
        "assembled indirect reset + solve_into allocated {allocs} times"
    );
}

/// The PDQP backend shares the zero-allocation contract: restarted
/// primal-dual iterations, epoch averaging, restarts and the candidate
/// KKT scoring all run out of the preallocated workspace.
#[test]
fn pdqp_solve_into_performs_zero_allocations() {
    let problem = portfolio(30, 5, 7);
    let settings = Settings {
        max_iter: 500_000,
        ..Settings::with_algorithm(mib::qp::Algorithm::Pdqp)
    };
    let mut solver = Solver::new(problem, settings).expect("setup");
    let mut result = solver.solve();
    assert_eq!(result.status, Status::Solved, "pdqp warm-up must solve");
    solver.reset();
    let allocs = allocations_during(|| solver.solve_into(&mut result));
    assert_eq!(result.status, Status::Solved);
    assert_eq!(
        allocs, 0,
        "pdqp solve_into performed {allocs} heap allocations; \
         the first-order pipeline must perform none"
    );
}

/// The pooled-solver request path — new `q`, new bounds, `reset`, solve —
/// on a warm solver allocates nothing on any backend: the updates
/// validate only the new vectors and write the problem data in place.
#[test]
fn parametric_update_reset_and_solve_perform_zero_allocations() {
    for settings in [
        Settings::default(),
        Settings::with_backend(KktBackend::Indirect),
        Settings {
            max_iter: 500_000,
            ..Settings::with_algorithm(mib::qp::Algorithm::Pdqp)
        },
    ] {
        let label = format!("{} {}", settings.algorithm, settings.backend.name());
        let problem = portfolio(24, 4, 3);
        let q: Vec<f64> = problem.q().iter().map(|v| v + 0.01).collect();
        let l = problem.l().to_vec();
        let u: Vec<f64> = problem
            .u()
            .iter()
            .map(|&v| if v.abs() < INFTY { v + 0.05 } else { v })
            .collect();
        let mut solver = Solver::new(problem, settings).expect("setup");
        let mut result = solver.solve();
        assert_eq!(result.status, Status::Solved, "{label} warm-up must solve");
        let allocs = allocations_during(|| {
            solver.update_q(&q).expect("finite q");
            solver.update_bounds(&l, &u).expect("ordered bounds");
            solver.reset();
            solver.solve_into(&mut result);
        });
        assert_eq!(result.status, Status::Solved, "{label}");
        assert_eq!(
            allocs, 0,
            "{label}: update + reset + solve_into allocated {allocs} times"
        );
    }
}

/// Parametric re-solves (the batch workload's inner loop) are also
/// allocation-free once the update vectors live outside the solver.
#[test]
fn warm_started_resolve_performs_zero_allocations() {
    let problem = portfolio(24, 4, 3);
    let mut solver = Solver::new(problem, Settings::default()).expect("setup");
    let mut result = solver.solve();
    assert_eq!(result.status, Status::Solved);
    // Second solve warm-starts from the first solution.
    let allocs = allocations_during(|| solver.solve_into(&mut result));
    assert_eq!(result.status, Status::Solved);
    assert_eq!(allocs, 0, "warm-started re-solve allocated {allocs} times");
}

/// A compiled program's repeated run on the simulated machine allocates
/// nothing. Under the key of its first run, `Machine::run` takes the
/// `Program`'s memoised result and decoded slots and executes them in the
/// machine's own scratch words. Under another key (here `Stall` after a
/// `Strict` first run) it builds the whole program into the machine's own
/// decoded form and pending-write window, which later runs reuse. The
/// program is an `accel`-style one: the direct ADMM iteration of a suite
/// instance at C = 32, unscaled, fixed ρ.
#[test]
fn repeated_machine_run_performs_zero_allocations() {
    let config = MibConfig::c32();
    let settings = Settings {
        scaling_iters: 0,
        adaptive_rho: false,
        ..Settings::with_backend(KktBackend::Direct)
    };
    let lowered = lower(&instance(Domain::Portfolio, 0).problem, &settings, config)
        .expect("the instance lowers");
    let iteration = &lowered.iteration;
    let mut machine = Machine::new(config);
    let first = machine.run(
        &iteration.program,
        &mut HbmStream::new(iteration.hbm.clone()),
        HazardPolicy::Strict,
    );
    assert!(first.is_ok(), "first run: {first:?}");
    let mut hbm = HbmStream::new(iteration.hbm.clone());
    let mut again = None;
    let allocs = allocations_during(|| {
        again = Some(machine.run(&iteration.program, &mut hbm, HazardPolicy::Strict));
    });
    assert_eq!(again, Some(first.clone()));
    assert_eq!(hbm.remaining(), 0, "the run consumes its stream");
    assert_eq!(
        allocs, 0,
        "a repeated Machine::run allocated {allocs} times"
    );

    // Under another key: the first such run sizes the machine's scratch.
    let stall = machine.run(
        &iteration.program,
        &mut HbmStream::new(iteration.hbm.clone()),
        HazardPolicy::Stall,
    );
    assert_eq!(stall, first, "the program never stalls");
    for run in 2..=3 {
        let mut hbm = HbmStream::new(iteration.hbm.clone());
        let mut again = None;
        let allocs = allocations_during(|| {
            again = Some(machine.run(&iteration.program, &mut hbm, HazardPolicy::Stall));
        });
        assert_eq!(again, Some(stall.clone()), "Stall run {run}");
        assert_eq!(hbm.remaining(), 0, "Stall run {run} consumes its stream");
        assert_eq!(
            allocs, 0,
            "Stall run {run}, under a key other than the memo's, allocated {allocs} times"
        );
    }
}

/// A program-cache hit's whole plan allocates nothing on the machine the
/// miss's plan ran on: the hit shares every program with the miss, `load`
/// included, so each run reads a memo built under the same key. The plan
/// is `accel`'s (load, the factorization, five iterations each with a PCG
/// iteration on the indirect variant, the check) for a suite instance at
/// C = 32, the hit a new `q`.
#[test]
fn cache_hit_plan_performs_zero_allocations() {
    fn plan(l: &LoweredQp) -> Vec<&Schedule> {
        let mut plan = vec![&l.load, &l.setup];
        for _ in 0..5 {
            plan.extend([&l.iteration, &l.pcg_iteration]);
        }
        plan.push(&l.check);
        plan.retain(|s| !s.program.is_empty());
        plan
    }
    let config = MibConfig::c32();
    let problem = instance(Domain::Portfolio, 0).problem;
    let (p, q, a, l, u) = problem.clone().into_parts();
    let q = q.iter().map(|v| 0.75 * v + 0.125).collect();
    let revalued = Problem::new(p, q, a, l, u).expect("re-valued problem is valid");
    for backend in [KktBackend::Direct, KktBackend::Indirect] {
        let settings = Settings {
            scaling_iters: 0,
            adaptive_rho: false,
            ..Settings::with_backend(backend)
        };
        let mut cache = ProgramCache::new();
        let miss = cache
            .lower_cached(&problem, &settings, config)
            .expect("the instance lowers");
        let hit = cache
            .lower_cached(&revalued, &settings, config)
            .expect("the instance lowers");
        assert_eq!((cache.misses(), cache.hits()), (1, 1), "{backend:?}");
        let mut machine = Machine::new(config);
        for s in plan(&miss) {
            let run = machine.run(
                &s.program,
                &mut HbmStream::new(s.hbm.clone()),
                HazardPolicy::Strict,
            );
            assert!(run.is_ok(), "{backend:?} miss: {run:?}");
        }
        let hit_plan = plan(&hit);
        let mut streams: Vec<HbmStream> = hit_plan
            .iter()
            .map(|s| HbmStream::new(s.hbm.clone()))
            .collect();
        let mut runs = Vec::with_capacity(hit_plan.len());
        let allocs = allocations_during(|| {
            for (s, hbm) in hit_plan.iter().zip(&mut streams) {
                runs.push(machine.run(&s.program, hbm, HazardPolicy::Strict));
            }
        });
        assert!(runs.iter().all(Result::is_ok), "{backend:?} hit: {runs:?}");
        assert_eq!(
            allocs, 0,
            "{backend:?}: a cache hit's plan allocated {allocs} times"
        );
    }
}

/// Lowering allocates per kernel and per slot, not per lane and per
/// logical instruction. Over `accel`'s 25 lowerings (suite indices 0 and 3
/// of every domain at C = 32 in both variants, index 0 at C = 16 direct,
/// under the unscaled fixed-ρ settings the machine models), a miss makes
/// 3.99 heap allocations per logical instruction in an optimised build and
/// 9.18 in a build with debug assertions, which certifies every schedule:
/// about two lane stores per logical instruction and per busy slot, each
/// allocated once at its exact size. When lanes were added one by one and
/// slots merged pairwise the figures were 6.00 and 15.19, so each bound
/// sits just above today's figure and below those.
#[test]
fn lowering_allocates_per_kernel_not_per_instruction() {
    let mut allocs = 0;
    let mut logical = 0;
    for domain in Domain::all() {
        let mut specs = Vec::new();
        for index in [0, 3] {
            specs.push((index, KktBackend::Direct, MibConfig::c32()));
            specs.push((index, KktBackend::Indirect, MibConfig::c32()));
        }
        specs.push((0, KktBackend::Direct, MibConfig::c16()));
        for (index, backend, config) in specs {
            let settings = Settings {
                scaling_iters: 0,
                adaptive_rho: false,
                ..Settings::with_backend(backend)
            };
            let problem = instance(domain, index).problem;
            let mut lowered = None;
            allocs += allocations_during(|| {
                lowered = Some(lower(&problem, &settings, config));
            });
            let l = lowered.expect("lowering ran").expect("the instance lowers");
            logical += [&l.load, &l.setup, &l.iteration, &l.pcg_iteration, &l.check]
                .iter()
                .map(|s| s.logical_count())
                .sum::<usize>();
        }
    }
    let per_instr = allocs as f64 / logical as f64;
    let bound = if cfg!(debug_assertions) { 9.5 } else { 4.25 };
    assert!(
        per_instr <= bound,
        "lowering made {allocs} allocations for {logical} logical instructions, \
         {per_instr:.2} each, above the bound of {bound}"
    );
}
