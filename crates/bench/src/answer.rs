//! An answer check that shares no code with the solvers: OSQP's stopping
//! criterion recomputed on the unscaled problem with plain loops over the
//! CSC arrays, so a solver that reports `Solved` on an answer that does not
//! meet its own tolerance is caught by something other than itself.

use mib_qp::Problem;

/// Relative slack on both bounds. The solver sums the same products in
/// its kernels' order, so a residual that stopped just under its bound can
/// read a few ulps above it here.
const ROUNDING_SLACK: f64 = 1e-9;

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
        let (a, p, q) = (problem.a(), problem.p(), problem.q());

        let mut ax = vec![0.0; m];
        let mut aty = vec![0.0; n];
        for j in 0..n {
            for k in a.col_ptr()[j]..a.col_ptr()[j + 1] {
                let (i, v) = (a.row_ind()[k], a.values()[k]);
                ax[i] += v * x[j];
                aty[j] += v * y[i];
            }
        }
        // `P` is stored by its upper triangle: each off-diagonal entry
        // stands for itself and its mirror.
        let mut px = vec![0.0; n];
        for j in 0..n {
            for k in p.col_ptr()[j]..p.col_ptr()[j + 1] {
                let (i, v) = (p.row_ind()[k], p.values()[k]);
                px[i] += v * x[j];
                if i != j {
                    px[j] += v * x[i];
                }
            }
        }

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
}
