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
//! `mib::trace::enable()` — enabled-mode behavior is covered by
//! `tests/trace_pipeline.rs`, which cargo runs as a separate process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
    let settings = Settings {
        backend,
        // Force adaptive-rho refactorizations during the measured solve so
        // the numeric-refactor path is covered too.
        adaptive_rho_interval: 10,
        ..Settings::default()
    };

    let mut solver = Solver::new(problem, settings).expect("setup");
    // Warm-up: the first solve sizes the result buffers (and lets lazy
    // one-time costs, e.g. TLS init, happen outside the measurement).
    let mut result = solver.solve();
    assert_eq!(
        result.status,
        Status::Solved,
        "{backend:?} warm-up must solve"
    );
    assert!(
        result.iterations > 10,
        "problem too easy to exercise adaptive rho"
    );

    solver.reset();
    let allocs = allocations_during(|| solver.solve_into(&mut result));
    assert_eq!(result.status, Status::Solved);
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
    let settings = Settings {
        backend: KktBackend::Indirect,
        adaptive_rho_interval: 10,
        ..Settings::default()
    };
    let kkt = IndirectKkt::new(
        problem.p(),
        problem.a(),
        settings.sigma,
        &vec![settings.rho; problem.num_constraints()],
        settings.eps_pcg_start,
        settings.eps_pcg_min,
        settings.max_pcg_iter,
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
