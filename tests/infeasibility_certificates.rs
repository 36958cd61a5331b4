//! Infeasibility certificates checked by something other than the solver:
//! every primal- or dual-infeasible verdict of ADMM, on the direct and on
//! the indirect KKT backend, must return a `SolveResult.certificate` that
//! meets OSQP's conditions, recomputed on the unscaled problem by
//! [`certifies`] with plain loops over the CSC arrays. PDQP has no
//! infeasibility detection, so it is not run here.

use mib::qp::{KktBackend, Problem, Settings, Solver, Status, INFTY};
use mib::sparse::CscMatrix;
use mib_bench::answer::certifies;

/// `x ≥ 1` and `x ≤ 0` at once.
fn one_variable_primal_infeasible() -> Problem {
    let a = CscMatrix::from_dense(2, 1, &[1.0, 1.0]);
    Problem::new(
        CscMatrix::identity(1),
        vec![0.0],
        a,
        vec![1.0, -INFTY],
        vec![INFTY, 0.0],
    )
    .unwrap()
}

/// `x₁ ≥ 1`, `x₂ ≥ 1` and `x₁ + x₂ ≤ 1`, plus a feasible box row on `x₃`:
/// only a combination of the first three rows proves it.
fn several_rows_primal_infeasible() -> Problem {
    #[rustfmt::skip]
    let a = CscMatrix::from_dense(4, 3, &[
        1.0, 0.0, 0.0,
        0.0, 1.0, 0.0,
        1.0, 1.0, 0.0,
        0.0, 0.0, 1.0,
    ]);
    Problem::new(
        CscMatrix::identity(3),
        vec![1.0, -1.0, 0.5],
        a,
        vec![1.0, 1.0, -INFTY, -1.0],
        vec![INFTY, INFTY, 1.0, 1.0],
    )
    .unwrap()
}

/// Minimise `x` subject to `x ≤ 0`: unbounded below.
fn one_variable_dual_infeasible() -> Problem {
    Problem::new(
        CscMatrix::zeros(1, 1),
        vec![1.0],
        CscMatrix::identity(1),
        vec![-INFTY],
        vec![0.0],
    )
    .unwrap()
}

/// Minimise `−x₁ − x₂ + x₃²/2` subject to `x₁ = x₂`, `x₁ ≥ 0`, `x₂ ≥ 0`
/// and `|x₃| ≤ 1`: unbounded along `(1, 1, 0)`, which three of the four
/// rows constrain.
fn several_rows_dual_infeasible() -> Problem {
    let p = CscMatrix::from_dense(3, 3, &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
    #[rustfmt::skip]
    let a = CscMatrix::from_dense(4, 3, &[
        1.0, -1.0, 0.0,
        1.0, 0.0, 0.0,
        0.0, 1.0, 0.0,
        0.0, 0.0, 1.0,
    ]);
    Problem::new(
        p.upper_triangle().unwrap(),
        vec![-1.0, -1.0, 0.0],
        a,
        vec![0.0, 0.0, 0.0, -1.0],
        vec![0.0, INFTY, INFTY, 1.0],
    )
    .unwrap()
}

/// Solves `problem` on both ADMM backends; each must report `status` with
/// a certificate that [`certifies`] it, and that certifies nothing once
/// negated.
fn assert_certified(label: &str, problem: &Problem, status: Status) {
    for backend in [KktBackend::Direct, KktBackend::Indirect] {
        let r = Solver::new(problem.clone(), Settings::with_backend(backend))
            .unwrap()
            .solve();
        assert_eq!(r.status, status, "{label} on {backend:?}");
        assert!(
            certifies(problem, status, &r.certificate),
            "{label} on {backend:?}: certificate {:?} fails OSQP's conditions",
            r.certificate
        );
        let negated: Vec<f64> = r.certificate.iter().map(|c| -c).collect();
        assert!(
            !certifies(problem, status, &negated),
            "{label} on {backend:?}"
        );
    }
}

#[test]
fn primal_infeasibility_certificates_meet_osqp_conditions() {
    assert_certified(
        "one variable",
        &one_variable_primal_infeasible(),
        Status::PrimalInfeasible,
    );
    assert_certified(
        "several rows",
        &several_rows_primal_infeasible(),
        Status::PrimalInfeasible,
    );
}

#[test]
fn dual_infeasibility_certificates_meet_osqp_conditions() {
    assert_certified(
        "one variable",
        &one_variable_dual_infeasible(),
        Status::DualInfeasible,
    );
    assert_certified(
        "several rows",
        &several_rows_dual_infeasible(),
        Status::DualInfeasible,
    );
}
