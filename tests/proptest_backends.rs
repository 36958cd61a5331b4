//! Property tests parameterized over the solver configurations.
//!
//! One [`Solver`] envelope serves ADMM with the direct and the indirect
//! KKT backend and PDQP, and none of them may weaken the determinism
//! contract the serving layer is built on: for **every** configuration,
//! a pooled solver that has served arbitrary earlier traffic
//! and is then re-parameterized, `reset()` and warm-started from a prior
//! result must produce answers **bitwise** identical to a fresh clone of
//! the template given the same updates. `warm_start_from` must reject
//! mismatched dimensions without touching the iterates. Every answer a
//! configuration reports `Solved` must also meet OSQP's stopping
//! criterion, recomputed on the unscaled problem by `OsqpCriterion`,
//! which shares no code with the solvers.

use mib::problems::random_qp;
use mib::qp::{Algorithm, KktBackend, QpError, Settings, SolveResult, Solver};
use mib_bench::answer::OsqpCriterion;
use proptest::prelude::*;

/// Suite-sized settings for ADMM-direct, ADMM-indirect and PDQP, each with
/// its label: PDQP takes many more (cheap) first-order iterations than
/// factorized ADMM, so its cap is higher.
fn configurations() -> [(&'static str, Settings); 3] {
    let admm = |backend| Settings {
        max_iter: 4_000,
        ..Settings::with_backend(backend)
    };
    let pdqp = Settings {
        max_iter: 200_000,
        ..Settings::with_algorithm(Algorithm::Pdqp)
    };
    [
        ("admm-direct", admm(KktBackend::Direct)),
        ("admm-indirect", admm(KktBackend::Indirect)),
        ("pdqp", pdqp),
    ]
}

/// Holds `r`, if `solver` reports it `Solved`, to OSQP's criterion on
/// the problem `solver` holds now.
fn assert_right(solver: &Solver, r: &SolveResult, what: &str) {
    if r.status.is_solved() {
        let s = solver.settings();
        let c = OsqpCriterion::of(solver.problem(), s.eps_abs, s.eps_rel, &r.x, &r.y, &r.z);
        assert!(
            c.holds(),
            "{what}: a Solved answer misses the criterion: {c:?}"
        );
    }
}

fn assert_bitwise(a: &SolveResult, b: &SolveResult, what: &str) {
    assert_eq!(a.status, b.status, "{what}: status");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.algorithm, b.algorithm, "{what}: algorithm");
    assert!(
        a.x.iter()
            .zip(&b.x)
            .all(|(p, q)| p.to_bits() == q.to_bits()),
        "{what}: x is not bitwise equal"
    );
    assert!(
        a.y.iter()
            .zip(&b.y)
            .all(|(p, q)| p.to_bits() == q.to_bits()),
        "{what}: y is not bitwise equal"
    );
    assert_eq!(
        a.obj_val.to_bits(),
        b.obj_val.to_bits(),
        "{what}: obj_val is not bitwise equal"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pooled-solver invariant, per configuration: after serving a perturbed
    /// request, `update_q` + `reset` + `warm_start_from` a donor result
    /// reproduces a fresh template clone bitwise.
    #[test]
    fn pooled_reset_and_warm_start_match_fresh_clone(
        n in 2usize..7,
        m in 2usize..9,
        seed in 0u64..10_000,
    ) {
        let problem = random_qp(n, m, 0.6, seed);
        let base_q = problem.q().to_vec();
        for (label, settings) in configurations() {
            let template = Solver::new(problem.clone(), settings.clone()).unwrap();
            prop_assert_eq!(template.settings(), &settings);

            // A donor solution to warm-start from.
            let donor = template.clone().solve();
            assert_right(&template, &donor, label);

            // The pooled solver serves an unrelated perturbed request
            // first, dirtying its iterates and workspace.
            let mut pooled = template.clone();
            let dirty_q: Vec<f64> = base_q.iter().map(|&v| v - 0.3).collect();
            pooled.update_q(&dirty_q).unwrap();
            let dirty = pooled.solve();
            assert_right(&pooled, &dirty, label);

            // Both solvers now serve the same request from the same warm
            // start; the pooled one must forget its history completely.
            let qk: Vec<f64> = base_q.iter().map(|&v| v + 0.2).collect();
            pooled.update_q(&qk).unwrap();
            pooled.reset();
            pooled.warm_start_from(&donor).unwrap();
            let served = pooled.solve();
            assert_right(&pooled, &served, label);

            let mut fresh = template.clone();
            fresh.update_q(&qk).unwrap();
            fresh.reset();
            fresh.warm_start_from(&donor).unwrap();
            let expect = fresh.solve();
            assert_right(&fresh, &expect, label);

            assert_bitwise(&served, &expect, label);
        }
    }

    /// Dimension validation, per configuration: a donor result from a
    /// different-shaped problem is rejected with `QpError::InvalidProblem`
    /// and the solve proceeds exactly as if the call never happened.
    #[test]
    fn mismatched_warm_start_is_rejected_and_harmless(
        n in 2usize..6,
        m in 2usize..8,
        seed in 0u64..10_000,
    ) {
        let problem = random_qp(n, m, 0.6, seed);
        let foreign = random_qp(n + 1, m + 2, 0.6, seed ^ 0xbeef);
        for (label, settings) in configurations() {
            let template = Solver::new(problem.clone(), settings.clone()).unwrap();
            let mut foreign_solver = Solver::new(foreign.clone(), settings).unwrap();
            let foreign_donor = foreign_solver.solve();
            assert_right(&foreign_solver, &foreign_donor, label);

            let mut solver = template.clone();
            let err = solver.warm_start_from(&foreign_donor).unwrap_err();
            prop_assert!(
                matches!(err, QpError::InvalidProblem(_)),
                "expected InvalidProblem, got {err:?}"
            );
            let after_rejection = solver.solve();
            let untouched = template.clone().solve();
            assert_right(&solver, &after_rejection, label);
            assert_right(&template, &untouched, label);
            assert_bitwise(&after_rejection, &untouched, label);
        }
    }
}
