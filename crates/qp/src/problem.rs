use mib_sparse::CscMatrix;

use crate::{QpError, Result};

/// A convex quadratic program in OSQP standard form (equation (1) of the
/// paper):
///
/// ```text
/// minimize   (1/2) xᵀ P x + qᵀ x
/// subject to l ≤ A x ≤ u
/// ```
///
/// `P` must be positive semidefinite and is stored by its **upper triangle**
/// only (the OSQP convention). `A` is a general `m × n` sparse matrix.
/// Infinite bounds are encoded as values with magnitude `≥` [`INFTY`](crate::INFTY).
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    p: CscMatrix,
    q: Vec<f64>,
    a: CscMatrix,
    l: Vec<f64>,
    u: Vec<f64>,
}

impl Problem {
    /// Creates and validates a problem.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`] if:
    /// * dimensions are inconsistent,
    /// * `P` is not square, not upper-triangular-stored, or `n == 0`,
    /// * any `l[i] > u[i]`,
    /// * any entry of `P`, `q` or `A` is non-finite,
    /// * any bound is NaN.
    pub fn new(p: CscMatrix, q: Vec<f64>, a: CscMatrix, l: Vec<f64>, u: Vec<f64>) -> Result<Self> {
        let n = q.len();
        let m = l.len();
        if n == 0 {
            return Err(QpError::InvalidProblem("problem has zero variables".into()));
        }
        if p.nrows() != n || p.ncols() != n {
            return Err(QpError::InvalidProblem(format!(
                "P is {}x{} but q has length {n}",
                p.nrows(),
                p.ncols()
            )));
        }
        if !p.is_upper_triangular() {
            return Err(QpError::InvalidProblem(
                "P must be stored by its upper triangle".into(),
            ));
        }
        if a.ncols() != n || a.nrows() != m {
            return Err(QpError::InvalidProblem(format!(
                "A is {}x{} but expected {m}x{n}",
                a.nrows(),
                a.ncols()
            )));
        }
        if u.len() != m {
            return Err(QpError::InvalidProblem(format!(
                "l has length {m} but u has length {}",
                u.len()
            )));
        }
        check_bounds(&l, &u)?;
        if p.values().iter().any(|v| !v.is_finite())
            || a.values().iter().any(|v| !v.is_finite())
            || q.iter().any(|v| !v.is_finite())
        {
            return Err(QpError::InvalidProblem(
                "P, q and A entries must be finite".into(),
            ));
        }
        Ok(Problem { p, q, a, l, u })
    }

    /// Replaces `q` in place, validating only the new vector.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`] on a length mismatch or a
    /// non-finite entry; the problem is then unchanged.
    pub(crate) fn set_q(&mut self, q: &[f64]) -> Result<()> {
        if q.len() != self.q.len() {
            return Err(QpError::InvalidProblem(format!(
                "q has length {} but problem has {} variables",
                q.len(),
                self.q.len()
            )));
        }
        if q.iter().any(|v| !v.is_finite()) {
            return Err(QpError::InvalidProblem("q entries must be finite".into()));
        }
        self.q.copy_from_slice(q);
        Ok(())
    }

    /// Replaces the bounds `l`, `u` in place, validating only the new
    /// vectors.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::InvalidProblem`] on a length mismatch, a NaN
    /// bound or any `l[i] > u[i]`; the problem is then unchanged.
    pub(crate) fn set_bounds(&mut self, l: &[f64], u: &[f64]) -> Result<()> {
        if l.len() != self.l.len() || u.len() != self.u.len() {
            return Err(QpError::InvalidProblem("bound length mismatch".into()));
        }
        check_bounds(l, u)?;
        self.l.copy_from_slice(l);
        self.u.copy_from_slice(u);
        Ok(())
    }

    /// Number of decision variables `n`.
    pub fn num_vars(&self) -> usize {
        self.q.len()
    }

    /// Number of constraints `m`.
    pub fn num_constraints(&self) -> usize {
        self.l.len()
    }

    /// The objective matrix `P` (upper triangle storage).
    pub fn p(&self) -> &CscMatrix {
        &self.p
    }

    /// The linear objective term `q`.
    pub fn q(&self) -> &[f64] {
        &self.q
    }

    /// The constraint matrix `A`.
    pub fn a(&self) -> &CscMatrix {
        &self.a
    }

    /// The lower bounds `l`.
    pub fn l(&self) -> &[f64] {
        &self.l
    }

    /// The upper bounds `u`.
    pub fn u(&self) -> &[f64] {
        &self.u
    }

    /// Total nonzeros `nnz(P) + nnz(A)` — the problem-size metric the
    /// paper's benchmark suite is parameterized by.
    pub fn total_nnz(&self) -> usize {
        self.p.nnz() + self.a.nnz()
    }

    /// Evaluates the objective `(1/2) xᵀPx + qᵀx`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let px = self.p.sym_upper_mul_vec(x);
        0.5 * mib_sparse::vector::dot(x, &px) + mib_sparse::vector::dot(&self.q, x)
    }

    /// Maximum violation of `l ≤ Ax ≤ u` at `x` (0 when feasible).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn constraint_violation(&self, x: &[f64]) -> f64 {
        let ax = self.a.mul_vec(x);
        ax.iter()
            .zip(self.l.iter().zip(&self.u))
            .map(|(&v, (&lo, &hi))| (lo - v).max(v - hi).max(0.0))
            .fold(0.0f64, f64::max)
    }

    /// Decomposes into the raw parts `(P, q, A, l, u)`.
    pub fn into_parts(self) -> (CscMatrix, Vec<f64>, CscMatrix, Vec<f64>, Vec<f64>) {
        (self.p, self.q, self.a, self.l, self.u)
    }
}

/// Rejects NaN bounds and rows with `l[i] > u[i]`.
fn check_bounds(l: &[f64], u: &[f64]) -> Result<()> {
    for (i, (&lo, &hi)) in l.iter().zip(u).enumerate() {
        if lo.is_nan() || hi.is_nan() {
            return Err(QpError::InvalidProblem(format!("nan bound at row {i}")));
        }
        if lo > hi {
            return Err(QpError::InvalidProblem(format!(
                "lower bound {lo} exceeds upper bound {hi} at row {i}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Problem {
        let p = CscMatrix::from_dense(2, 2, &[2.0, 0.0, 0.0, 2.0]);
        let a = CscMatrix::identity(2);
        Problem::new(p, vec![-1.0, -1.0], a, vec![0.0, 0.0], vec![1.0, 1.0]).unwrap()
    }

    #[test]
    fn dimensions_reported() {
        let pr = tiny();
        assert_eq!(pr.num_vars(), 2);
        assert_eq!(pr.num_constraints(), 2);
        assert_eq!(pr.total_nnz(), 4);
    }

    #[test]
    fn objective_and_violation() {
        let pr = tiny();
        // f(x) = x0^2 + x1^2 - x0 - x1, at (1, 1): 2 - 2 = 0.
        assert_eq!(pr.objective(&[1.0, 1.0]), 0.0);
        assert_eq!(pr.constraint_violation(&[0.5, 0.5]), 0.0);
        assert_eq!(pr.constraint_violation(&[2.0, 0.5]), 1.0);
        assert_eq!(pr.constraint_violation(&[-0.5, 0.5]), 0.5);
    }

    #[test]
    fn rejects_bad_bounds() {
        let p = CscMatrix::identity(1);
        let a = CscMatrix::identity(1);
        assert!(Problem::new(p.clone(), vec![0.0], a.clone(), vec![2.0], vec![1.0]).is_err());
        assert!(Problem::new(p, vec![0.0], a, vec![f64::NAN], vec![1.0]).is_err());
    }

    #[test]
    fn in_place_updates_validate_and_leave_rejected_data_untouched() {
        let mut pr = tiny();
        let before = pr.clone();
        assert!(pr.set_q(&[1.0]).is_err());
        assert!(pr.set_q(&[1.0, f64::INFINITY]).is_err());
        assert!(pr.set_bounds(&[0.0], &[1.0, 1.0]).is_err());
        assert!(pr.set_bounds(&[0.0, 2.0], &[1.0, 1.0]).is_err());
        assert!(pr.set_bounds(&[0.0, f64::NAN], &[1.0, 1.0]).is_err());
        assert_eq!(pr, before, "a rejected update must change nothing");

        pr.set_q(&[3.0, -4.0]).unwrap();
        pr.set_bounds(&[-1.0, -2e30], &[1.0, 2e30]).unwrap();
        let want = Problem::new(
            before.p().clone(),
            vec![3.0, -4.0],
            before.a().clone(),
            vec![-1.0, -2e30],
            vec![1.0, 2e30],
        )
        .unwrap();
        assert_eq!(pr, want);
    }

    #[test]
    fn rejects_lower_triangular_p() {
        let p = CscMatrix::from_dense(2, 2, &[1.0, 0.0, 1.0, 1.0]);
        let a = CscMatrix::identity(2);
        assert!(Problem::new(p, vec![0.0; 2], a, vec![0.0; 2], vec![1.0; 2]).is_err());
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let p = CscMatrix::identity(2);
        let a = CscMatrix::identity(3);
        assert!(Problem::new(p, vec![0.0; 2], a, vec![0.0; 3], vec![1.0; 3]).is_err());
    }
}
