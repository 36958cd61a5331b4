//! Answer checks that share no code with the solvers, recomputed on the
//! unscaled problem with plain loops over the CSC arrays: OSQP's stopping
//! criterion for a `Solved` answer, and OSQP's infeasibility conditions
//! for a certificate. A solver that reports a status its answer does not
//! back is caught by something other than itself.

use mib_qp::{Problem, Status, INFTY};

/// Relative slack on both bounds. The solver sums the same products in
/// its kernels' order, so a residual that stopped just under its bound can
/// read a few ulps above it here.
const ROUNDING_SLACK: f64 = 1e-9;

/// OSQP's infeasibility tolerance (`EPS_PRIM_INF` and `EPS_DUAL_INF`).
const EPS_INF: f64 = 1e-4;

/// OSQP's two residuals of an answer and the bounds its tolerances give
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsqpCriterion {
    /// `‖Ax − z‖∞`.
    pub prim: f64,
    /// `eps_abs + eps_rel · max(‖Ax‖∞, ‖z‖∞)`.
    pub eps_prim: f64,
    /// `‖Px + q + Aᵀy‖∞`.
    pub dual: f64,
    /// `eps_abs + eps_rel · max(‖Px‖∞, ‖q‖∞, ‖Aᵀy‖∞)`.
    pub eps_dual: f64,
}

impl OsqpCriterion {
    /// Recomputes the criterion of the answer `(x, y, z)` to `problem`.
    /// A non-finite entry anywhere makes both residuals NaN.
    ///
    /// # Panics
    ///
    /// If a vector's length does not match the problem.
    pub fn of(
        problem: &Problem,
        eps_abs: f64,
        eps_rel: f64,
        x: &[f64],
        y: &[f64],
        z: &[f64],
    ) -> Self {
        let (n, m) = (problem.num_vars(), problem.num_constraints());
        assert!(x.len() == n && y.len() == m && z.len() == m, "answer size");
        let q = problem.q();
        let (ax, aty, px) = (
            a_times(problem, x),
            at_times(problem, y),
            p_times(problem, x),
        );

        let mut prim = 0.0;
        for i in 0..m {
            prim = max_nan(prim, ax[i] - z[i]);
        }
        let mut dual = 0.0;
        for j in 0..n {
            dual = max_nan(dual, px[j] + q[j] + aty[j]);
        }
        OsqpCriterion {
            prim,
            eps_prim: eps_abs + eps_rel * max_nan(norm_inf(&ax), norm_inf(z)),
            dual,
            eps_dual: eps_abs
                + eps_rel * max_nan(max_nan(norm_inf(&px), norm_inf(q)), norm_inf(&aty)),
        }
    }

    /// Whether both residuals are within their bounds (up to
    /// `ROUNDING_SLACK`); false when either is NaN.
    pub fn holds(&self) -> bool {
        let slack = 1.0 + ROUNDING_SLACK;
        self.prim <= self.eps_prim * slack && self.dual <= self.eps_dual * slack
    }
}

/// Whether `certificate` proves `status` for `problem` under OSQP's
/// conditions with `ε = 1e-4`:
/// - `PrimalInfeasible`, `δy`: `‖Aᵀδy‖∞ ≤ ε‖δy‖∞` and
///   `uᵀδy₊ + lᵀδy₋ ≤ −ε‖δy‖∞`;
/// - `DualInfeasible`, `δx`: `‖Pδx‖∞ ≤ ε‖δx‖∞`, `qᵀδx ≤ −ε‖δx‖∞`, and
///   `Aδx` in the recession cone of `[l, u]`: `(Aδx)ᵢ ≤ ε‖δx‖∞` where `uᵢ`
///   is finite and `≥ −ε‖δx‖∞` where `lᵢ` is.
///
/// False for any other status, a certificate of the wrong length, and a
/// zero or non-finite one.
pub fn certifies(problem: &Problem, status: Status, certificate: &[f64]) -> bool {
    let norm = norm_inf(certificate);
    if !(norm > 0.0 && norm.is_finite()) {
        return false;
    }
    let tol = EPS_INF * norm;
    let (l, u) = (problem.l(), problem.u());
    match status {
        Status::PrimalInfeasible if certificate.len() == problem.num_constraints() => {
            let mut support = 0.0;
            for (i, &d) in certificate.iter().enumerate() {
                if d > 0.0 {
                    support += u[i] * d;
                } else if d < 0.0 {
                    support += l[i] * d;
                }
            }
            norm_inf(&at_times(problem, certificate)) <= tol && support <= -tol
        }
        Status::DualInfeasible if certificate.len() == problem.num_vars() => {
            let mut qdx = 0.0;
            for (qj, dj) in problem.q().iter().zip(certificate) {
                qdx += qj * dj;
            }
            let recedes = a_times(problem, certificate)
                .iter()
                .enumerate()
                .all(|(i, &v)| (u[i] >= INFTY || v <= tol) && (l[i] <= -INFTY || v >= -tol));
            norm_inf(&p_times(problem, certificate)) <= tol && qdx <= -tol && recedes
        }
        _ => false,
    }
}

/// `Ax`.
fn a_times(problem: &Problem, x: &[f64]) -> Vec<f64> {
    let a = problem.a();
    let mut ax = vec![0.0; problem.num_constraints()];
    for (j, &xj) in x.iter().enumerate() {
        for k in a.col_ptr()[j]..a.col_ptr()[j + 1] {
            ax[a.row_ind()[k]] += a.values()[k] * xj;
        }
    }
    ax
}

/// `Aᵀy`.
fn at_times(problem: &Problem, y: &[f64]) -> Vec<f64> {
    let a = problem.a();
    let mut aty = vec![0.0; problem.num_vars()];
    for (j, atyj) in aty.iter_mut().enumerate() {
        for k in a.col_ptr()[j]..a.col_ptr()[j + 1] {
            *atyj += a.values()[k] * y[a.row_ind()[k]];
        }
    }
    aty
}

/// `Px`, with `P` stored by its upper triangle: each off-diagonal entry
/// stands for itself and its mirror.
fn p_times(problem: &Problem, x: &[f64]) -> Vec<f64> {
    let p = problem.p();
    let mut px = vec![0.0; problem.num_vars()];
    for j in 0..px.len() {
        for k in p.col_ptr()[j]..p.col_ptr()[j + 1] {
            let (i, v) = (p.row_ind()[k], p.values()[k]);
            px[i] += v * x[j];
            if i != j {
                px[j] += v * x[i];
            }
        }
    }
    px
}

/// `max(acc, |v|)`, NaN once either is NaN.
fn max_nan(acc: f64, v: f64) -> f64 {
    if acc.is_nan() || v.is_nan() {
        f64::NAN
    } else {
        acc.max(v.abs())
    }
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |acc, &e| max_nan(acc, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_problems::{instance, Domain};
    use mib_qp::{Settings, Solver};
    use mib_sparse::CscMatrix;

    #[test]
    fn a_solved_answer_holds_and_a_perturbed_one_does_not() {
        let problem = instance(Domain::Mpc, 0).problem;
        let s = Settings::default();
        let r = Solver::new(problem.clone(), s.clone()).unwrap().solve();
        assert!(r.status.is_solved());
        let c = OsqpCriterion::of(&problem, s.eps_abs, s.eps_rel, &r.x, &r.y, &r.z);
        assert!(c.holds(), "{c:?}");

        let mut z = r.z.clone();
        z[0] += 1.0;
        let c = OsqpCriterion::of(&problem, s.eps_abs, s.eps_rel, &r.x, &r.y, &z);
        assert!(!c.holds() && c.prim > c.eps_prim, "{c:?}");

        let mut y = r.y.clone();
        y[0] += 1.0;
        let c = OsqpCriterion::of(&problem, s.eps_abs, s.eps_rel, &r.x, &y, &r.z);
        assert!(!c.holds() && c.dual > c.eps_dual, "{c:?}");

        let mut x = r.x.clone();
        x[0] = f64::NAN;
        let c = OsqpCriterion::of(&problem, s.eps_abs, s.eps_rel, &x, &r.y, &r.z);
        assert!(!c.holds(), "{c:?}");
    }

    /// `x₁ ≥ 1`, `x₂ ≥ 1`, `x₁ + x₂ ≤ s` and `|x₃| ≤ 1`: infeasible for
    /// `s < 2`.
    fn sum_capped_at(s: f64) -> Problem {
        let a = CscMatrix::from_dense(
            4,
            3,
            &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        );
        let (l, u) = (vec![1.0, 1.0, -INFTY, -1.0], vec![INFTY, INFTY, s, 1.0]);
        Problem::new(CscMatrix::identity(3), vec![0.0; 3], a, l, u).unwrap()
    }

    /// Minimise `qᵀx + p·x₁²/2` subject to `x₁ = x₂`, `x₁ ≥ 0`, `x₂ ≥ 0`.
    fn ray_problem(p: f64, q: [f64; 2]) -> Problem {
        let pm = CscMatrix::from_dense(2, 2, &[p, 0.0, 0.0, 0.0]);
        let a = CscMatrix::from_dense(3, 2, &[1.0, -1.0, 1.0, 0.0, 0.0, 1.0]);
        let (l, u) = (vec![0.0, 0.0, 0.0], vec![0.0, INFTY, INFTY]);
        Problem::new(pm, q.to_vec(), a, l, u).unwrap()
    }

    #[test]
    fn a_certificate_holds_only_while_every_condition_does() {
        let primal = Status::PrimalInfeasible;
        let dy = [-1.0, -1.0, 1.0, 0.0];
        assert!(certifies(&sum_capped_at(1.0), primal, &dy));
        // Support uᵀδy₊ + lᵀδy₋ = 0: the rows' bounds meet, no gap.
        assert!(!certifies(&sum_capped_at(2.0), primal, &dy));
        // ‖Aᵀδy‖∞ = 0.5 with the support still negative.
        assert!(!certifies(
            &sum_capped_at(1.0),
            primal,
            &[-1.0, -1.0, 1.0, 0.5]
        ));
        assert!(!certifies(&sum_capped_at(1.0), primal, &[0.0; 4]));
        assert!(!certifies(
            &sum_capped_at(1.0),
            Status::DualInfeasible,
            &dy[..3]
        ));

        let dual = Status::DualInfeasible;
        let dx = [1.0, 1.0];
        assert!(certifies(&ray_problem(0.0, [-1.0, -1.0]), dual, &dx));
        // qᵀδx = 0: no descent along the ray.
        assert!(!certifies(&ray_problem(0.0, [1.0, -1.0]), dual, &dx));
        // ‖Pδx‖∞ = 1: the ray curves back up.
        assert!(!certifies(&ray_problem(1.0, [-1.0, -1.0]), dual, &dx));
        // (Aδx)₁ = 0.5 leaves the equality row x₁ = x₂.
        assert!(!certifies(
            &ray_problem(0.0, [-1.0, -1.0]),
            dual,
            &[1.0, 0.5]
        ));
        // Along −δx the objective qᵀx = x₁ + x₂ descends, but (Aδx)₂ = −1
        // leaves the half-line x₁ ≥ 0.
        assert!(!certifies(
            &ray_problem(0.0, [1.0, 1.0]),
            dual,
            &[-1.0, -1.0]
        ));
        assert!(!certifies(
            &ray_problem(0.0, [-1.0, -1.0]),
            Status::Solved,
            &dx
        ));
    }
}
