//! Property tests for the workspace-centric solve pipeline.
//!
//! The staged, allocation-free iteration in `mib-qp` must be **bitwise**
//! equivalent to a plainly written allocating ADMM implementation (the
//! structure of the pre-workspace solver): same stage arithmetic, fresh
//! `Vec`s every iteration, allocating LDLᵀ solves. Any reordering of
//! floating-point operations introduced by the refactor would show up here
//! as a bit difference.

use mib::problems::random_qp;
use mib::qp::kkt::KktMatrix;
use mib::qp::{Problem, Settings, Solver, Status, INFTY};
use mib::sparse::ldl::LdlSolver;
use mib::sparse::order::Ordering;
use proptest::prelude::*;

/// Per-constraint step sizes, mirroring the solver's rule.
fn rho_vec_for(settings: &Settings, l: &[f64], u: &[f64]) -> Vec<f64> {
    l.iter()
        .zip(u)
        .map(|(&lo, &hi)| {
            if lo <= -INFTY && hi >= INFTY {
                settings.rho_min
            } else if lo == hi {
                (settings.rho * settings.rho_eq_scale).clamp(settings.rho_min, settings.rho_max)
            } else {
                settings.rho
            }
        })
        .collect()
}

/// The reference: a direct-backend ADMM loop written the allocating way,
/// with no scaling and no adaptive rho. Returns the iterates after `iters`
/// full iterations from a cold start.
fn reference_admm(
    problem: &Problem,
    settings: &Settings,
    iters: usize,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let (q, l, u) = (problem.q(), problem.l(), problem.u());
    let rho_vec = rho_vec_for(settings, l, u);
    let rho_inv: Vec<f64> = rho_vec.iter().map(|&r| 1.0 / r).collect();
    let kkt = KktMatrix::assemble(problem.p(), problem.a(), settings.sigma, &rho_vec).unwrap();
    let ldl = LdlSolver::new(kkt.matrix(), Ordering::MinDegree).unwrap();

    let (mut x, mut y, mut z) = (vec![0.0; n], vec![0.0; m], vec![0.0; m]);
    let alpha = settings.alpha;
    for _ in 0..iters {
        let mut rhs = Vec::with_capacity(n + m);
        for j in 0..n {
            rhs.push(settings.sigma * x[j] - q[j]);
        }
        for i in 0..m {
            rhs.push(z[i] - rho_inv[i] * y[i]);
        }
        let sol = ldl.solve(&rhs);
        let (xtilde, nu) = sol.split_at(n);
        let ztilde: Vec<f64> = (0..m).map(|i| z[i] + rho_inv[i] * (nu[i] - y[i])).collect();
        for j in 0..n {
            x[j] = alpha * xtilde[j] + (1.0 - alpha) * x[j];
        }
        for i in 0..m {
            let z_relaxed = alpha * ztilde[i] + (1.0 - alpha) * z[i];
            let w = z_relaxed + rho_inv[i] * y[i];
            let z_new = w.max(l[i]).min(u[i]);
            y[i] += rho_vec[i] * (z_relaxed - z_new);
            z[i] = z_new;
        }
    }
    (x, y, z)
}

/// Solves ended by a pre-test-triggered check, off the 25-iteration check
/// grid, still match the allocating reference bitwise. The `(n, m, seed)`
/// triples are fixed inputs known to stop off the grid.
#[test]
fn solves_stopped_off_the_check_grid_match_allocating_reference() {
    let settings = Settings {
        scaling_iters: 0,
        adaptive_rho: false,
        max_iter: 60,
        ..Settings::default()
    };
    for (n, m, seed) in [
        (2, 2, 946),
        (2, 2, 2518),
        (3, 3, 3997),
        (4, 5, 8962),
        (5, 4, 2021),
    ] {
        let problem = random_qp(n, m, 0.5, seed);
        let result = Solver::new(problem.clone(), settings.clone())
            .unwrap()
            .solve();
        assert_eq!(result.status, Status::Solved, "({n}, {m}, {seed})");
        assert!(
            !result.iterations.is_multiple_of(settings.check_termination),
            "({n}, {m}, {seed}) stopped on the grid at {}",
            result.iterations
        );
        let (x_ref, y_ref, z_ref) = reference_admm(&problem, &settings, result.iterations);
        assert_eq!(result.x, x_ref, "({n}, {m}, {seed}): x diverged");
        assert_eq!(result.y, y_ref, "({n}, {m}, {seed}): y diverged");
        assert_eq!(result.z, z_ref, "({n}, {m}, {seed}): z diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The workspace pipeline reproduces the allocating reference bitwise
    /// on random sparse QPs (identity scaling so the iterates are directly
    /// comparable; adaptive rho off to keep the step size fixed).
    #[test]
    fn staged_solve_matches_allocating_reference(
        n in 2usize..7,
        m in 2usize..9,
        seed in 0u64..10_000,
    ) {
        let problem = random_qp(n, m, 0.5, seed);
        let settings = Settings {
            scaling_iters: 0,
            adaptive_rho: false,
            max_iter: 60,
            ..Settings::default()
        };
        let mut solver = Solver::new(problem.clone(), settings.clone()).unwrap();
        let result = solver.solve();
        // Whatever the exit reason, the iterates completed exactly
        // `result.iterations` full iterations.
        let (x_ref, y_ref, z_ref) = reference_admm(&problem, &settings, result.iterations);
        prop_assert_eq!(&result.x, &x_ref, "x diverged from the allocating reference");
        prop_assert_eq!(&result.y, &y_ref, "y diverged");
        prop_assert_eq!(&result.z, &z_ref, "z diverged");
    }

    /// `solve_into` reusing one result across a stream of problems matches
    /// fresh `solve` calls bitwise — buffer reuse must never leak state.
    #[test]
    fn solve_into_reuse_matches_fresh_solves(seed in 0u64..10_000) {
        let problem = random_qp(5, 7, 0.6, seed);
        let base_q = problem.q().to_vec();
        let mut reused = Solver::new(problem.clone(), Settings::default()).unwrap();
        let mut fresh = Solver::new(problem, Settings::default()).unwrap();
        let mut result = reused.solve();
        for step in 0..4 {
            let qk: Vec<f64> = base_q.iter().map(|&v| v + 0.1 * step as f64).collect();
            reused.update_q(&qk).unwrap();
            reused.reset();
            reused.solve_into(&mut result);
            fresh.update_q(&qk).unwrap();
            fresh.reset();
            let want = fresh.solve();
            prop_assert_eq!(&result.x, &want.x, "step {}", step);
            prop_assert_eq!(result.iterations, want.iterations, "step {}", step);
            prop_assert_eq!(result.status, want.status, "step {}", step);
        }
    }
}
