//! Sparse LDLᵀ factorization with separate symbolic and numeric phases.
//!
//! This is the factorization the OSQP-direct variant uses for the KKT system
//! (Section II.C of the paper): an *up-looking* algorithm that grows `L` row
//! by row, following equation (5). The symbolic phase analyses the sparsity
//! pattern once (elimination tree + column counts + the full pattern of `L`);
//! the numeric phase recomputes values only — exactly the split OSQP exploits
//! when the step size `ρ` changes and the KKT matrix "needs to be numerically
//! refactored again (but not symbolically refactored)".
//!
//! The KKT matrix is quasi-definite, so `D` carries both signs; any exactly
//! zero pivot aborts with [`SparseError::ZeroPivot`].

use crate::etree::EliminationTree;
use crate::{CscMatrix, Permutation, Result, SparseError};

/// Symbolic LDLᵀ analysis of a symmetric matrix (upper triangle storage).
///
/// Holds everything that depends only on the sparsity pattern: the
/// elimination tree, the column pointers of `L` and scratch sizing. One
/// `LdlSymbolic` can numerically factor any matrix with the same pattern.
#[derive(Debug, Clone)]
pub struct LdlSymbolic {
    n: usize,
    etree: EliminationTree,
    /// Column pointers of the strictly-lower-triangular `L` (length `n+1`).
    l_col_ptr: Vec<usize>,
}

impl LdlSymbolic {
    /// Analyses the pattern of `a` (square, upper triangle).
    ///
    /// # Errors
    ///
    /// Propagates [`SparseError::NotSquare`] / [`SparseError::InvalidStructure`]
    /// from elimination-tree construction.
    pub fn new(a: &CscMatrix) -> Result<Self> {
        let etree = EliminationTree::from_upper(a)?;
        let n = a.ncols();
        let mut l_col_ptr = vec![0usize; n + 1];
        for i in 0..n {
            l_col_ptr[i + 1] = l_col_ptr[i] + etree.col_counts()[i];
        }
        Ok(LdlSymbolic {
            n,
            etree,
            l_col_ptr,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The elimination tree computed during analysis.
    pub fn etree(&self) -> &EliminationTree {
        &self.etree
    }

    /// Number of strictly-below-diagonal nonzeros of `L`.
    pub fn l_nnz(&self) -> usize {
        self.l_col_ptr[self.n]
    }

    /// Runs the numeric factorization of `a`, which must have the same
    /// pattern used for analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ZeroPivot`] if an exactly zero pivot arises.
    pub fn factor(&self, a: &CscMatrix) -> Result<LdlFactor> {
        let mut f = LdlFactor::new_uninit(self);
        self.refactor(a, &mut f)?;
        Ok(f)
    }

    /// Re-runs the numeric factorization into an existing factor, reusing
    /// all allocations. `a` must have the pattern used for analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ZeroPivot`] on an exactly zero pivot, and
    /// [`SparseError::DimensionMismatch`] if `a` has the wrong size.
    pub fn refactor(&self, a: &CscMatrix, f: &mut LdlFactor) -> Result<()> {
        let n = self.n;
        if a.ncols() != n || a.nrows() != n {
            return Err(SparseError::DimensionMismatch {
                op: "ldl refactor",
                lhs: (n, n),
                rhs: a.shape(),
            });
        }
        let parent = self.etree.parent();

        // Version-tagged workspace: mark[i] == k means "visited for row k".
        let mark = &mut f.work_mark;
        mark.fill(usize::MAX);
        let y = &mut f.work_y;
        y.fill(0.0);
        let pattern = &mut f.work_pattern;
        // fill[i]: number of entries written so far to column i of L.
        let fill = &mut f.work_fill;
        fill.fill(0);
        let mut flops = 0u64;

        for k in 0..n {
            // Scatter column k of A (upper triangle) into the accumulator and
            // collect the elimination reach of row k.
            pattern.clear();
            let mut d_kk = 0.0;
            for (i, v) in a.col(k) {
                if i == k {
                    d_kk = v;
                    continue;
                }
                y[i] = v;
                // Walk i -> parent -> ... -> k, collecting unvisited nodes.
                let mut node = i;
                while node != k && mark[node] != k {
                    pattern.push(node);
                    mark[node] = k;
                    node = parent[node];
                    debug_assert!(node != crate::etree::NO_PARENT, "etree path must reach k");
                }
            }
            // Ascending order is a topological order of the within-pattern
            // dependencies (an L(r, i) dependency implies r is an ancestor
            // of i, and ancestors have larger indices).
            pattern.sort_unstable();

            // Sparse forward substitution: solve L11 * (D11 * l_k) = a_k.
            for &i in pattern.iter() {
                let yi = y[i];
                y[i] = 0.0;
                let col_start = self.l_col_ptr[i];
                // `y -= l * yi` as `y += l * (-yi)`: IEEE negation is
                // exact, so this is bitwise identical to the subtract loop.
                let r = col_start..col_start + fill[i];
                crate::simd::scatter_axpy(y, &f.l_row_ind[r.clone()], &f.l_values[r], -yi);
                let di = f.d[i];
                // di == 0 cannot happen: rows < k already produced valid pivots.
                let l_ki = yi / di;
                d_kk -= yi * l_ki;
                let dst = col_start + fill[i];
                f.l_row_ind[dst] = k;
                f.l_values[dst] = l_ki;
                // 2 flops per scatter-update entry, plus the division and
                // the two-flop diagonal update.
                flops += 2 * fill[i] as u64 + 3;
                fill[i] += 1;
            }
            if d_kk == 0.0 {
                return Err(SparseError::ZeroPivot(k));
            }
            f.d[k] = d_kk;
            f.dinv[k] = 1.0 / d_kk;
        }
        f.flops = flops;
        // Allocation-free on purpose: this runs inside the solver's
        // zero-allocation adaptive-rho refactorization path even in builds
        // with debug assertions enabled.
        debug_assert!(
            (0..n).all(|i| fill[i] == self.etree.col_counts()[i]),
            "numeric fill must match symbolic column counts"
        );
        Ok(())
    }
}

/// A numeric LDLᵀ factorization: `P A Pᵀ = L D Lᵀ` with `L` unit lower
/// triangular (the unit diagonal is implicit) and `D` diagonal.
#[derive(Debug, Clone)]
pub struct LdlFactor {
    n: usize,
    l_col_ptr: Vec<usize>,
    l_row_ind: Vec<usize>,
    l_values: Vec<f64>,
    d: Vec<f64>,
    dinv: Vec<f64>,
    flops: u64,
    // Reusable numeric workspaces (sized once at allocation).
    work_mark: Vec<usize>,
    work_y: Vec<f64>,
    work_pattern: Vec<usize>,
    work_fill: Vec<usize>,
}

impl LdlFactor {
    fn new_uninit(sym: &LdlSymbolic) -> Self {
        let n = sym.n;
        let nnz = sym.l_nnz();
        LdlFactor {
            n,
            l_col_ptr: sym.l_col_ptr.clone(),
            l_row_ind: vec![0; nnz],
            l_values: vec![0.0; nnz],
            d: vec![0.0; n],
            dinv: vec![0.0; n],
            flops: 0,
            work_mark: vec![usize::MAX; n],
            work_y: vec![0.0; n],
            work_pattern: Vec::with_capacity(n),
            work_fill: vec![0; n],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The diagonal factor `D`.
    pub fn d(&self) -> &[f64] {
        &self.d
    }

    /// Exact floating-point operation count of the most recent numeric
    /// factorization (the column-elimination work the MIB profiler
    /// attributes to the factor step).
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Column pointers of the strictly lower triangular `L`.
    pub fn l_col_ptr(&self) -> &[usize] {
        &self.l_col_ptr
    }

    /// Row indices of `L` (per column, ascending).
    pub fn l_row_ind(&self) -> &[usize] {
        &self.l_row_ind
    }

    /// Values of `L`.
    pub fn l_values(&self) -> &[f64] {
        &self.l_values
    }

    /// Number of strictly-below-diagonal nonzeros of `L`.
    pub fn l_nnz(&self) -> usize {
        self.l_row_ind.len()
    }

    /// Returns `L` (strictly lower part, unit diagonal implicit) as a
    /// [`CscMatrix`].
    pub fn l_matrix(&self) -> CscMatrix {
        CscMatrix::from_parts(
            self.n,
            self.n,
            self.l_col_ptr.clone(),
            self.l_row_ind.clone(),
            self.l_values.clone(),
        )
        .expect("factor arrays satisfy csc invariants")
    }

    /// Solves `L x = b` in place (unit diagonal), using **column-oriented**
    /// substitution — the "column elimination" primitive of the paper
    /// (equations (8)–(12)).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn l_solve(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "l_solve: rhs has wrong length");
        for j in 0..self.n {
            let xj = x[j];
            if xj != 0.0 {
                // `x -= l * xj` as `x += l * (-xj)` (exact negation).
                let r = self.l_col_ptr[j]..self.l_col_ptr[j + 1];
                crate::simd::scatter_axpy(x, &self.l_row_ind[r.clone()], &self.l_values[r], -xj);
            }
        }
    }

    /// Solves `Lᵀ x = b` in place (unit diagonal), using **row-oriented**
    /// substitution — the MAC primitive of the paper (equation (7) applied
    /// to `Lᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    fn lt_solve(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "lt_solve: rhs has wrong length");
        for j in (0..self.n).rev() {
            let r = self.l_col_ptr[j]..self.l_col_ptr[j + 1];
            let s = crate::simd::gather_dot(&self.l_values[r.clone()], &self.l_row_ind[r], x);
            x[j] -= s;
        }
    }

    /// Applies `x <- D⁻¹ x` (element-wise multiply by the reciprocal
    /// diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    fn d_solve(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "d_solve: rhs has wrong length");
        crate::simd::mul_assign(x, &self.dinv);
    }

    /// Solves `(L D Lᵀ) x = b` in place via forward–backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    fn solve_in_place(&self, x: &mut [f64]) {
        self.l_solve(x);
        self.d_solve(x);
        self.lt_solve(x);
    }

    /// Solves `(L D Lᵀ) x = b` into a caller-provided buffer — the
    /// allocation-free triangular-solve kernel.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n` or `x.len() != n`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "solve_into: rhs has wrong length");
        assert_eq!(x.len(), self.n, "solve_into: out has wrong length");
        x.copy_from_slice(b);
        self.solve_in_place(x);
    }

    /// Solves `(L D Lᵀ) x = b`, returning a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

/// A complete direct solver: fill-reducing permutation + symbolic analysis +
/// numeric factorization of a symmetric (upper-triangle-stored) matrix.
///
/// This is the software twin of the paper's OSQP-direct KKT backend: the
/// permutation is realized on the MIB machine by the `permutate` /
/// `inverse_permutate` network schedules, `L`/`D`/`Lᵀ` solves by the
/// `L_solve` / `D_solve` / `Lt_solve` schedules of Listing 1.
#[derive(Debug, Clone)]
pub struct LdlSolver {
    perm: Permutation,
    permuted: CscMatrix,
    symbolic: LdlSymbolic,
    factor: LdlFactor,
    /// Pattern of the original (unpermuted) matrix, for validating value
    /// updates without rebuilding the permuted matrix.
    orig_col_ptr: Vec<usize>,
    orig_row_ind: Vec<usize>,
    /// `val_map[k]` is the slot in `permuted.values()` holding original
    /// entry `k` (storage order). `None` when the original matrix carried
    /// duplicate coordinates, in which case value updates fall back to the
    /// allocating rebuild.
    val_map: Option<Vec<usize>>,
}

impl LdlSolver {
    /// Orders (with the given ordering method), analyses and factors `a`.
    ///
    /// # Errors
    ///
    /// Propagates structural errors and [`SparseError::ZeroPivot`].
    pub fn new(a: &CscMatrix, method: crate::order::Ordering) -> Result<Self> {
        let perm = crate::order::compute(a, method)?;
        let permuted = perm.sym_perm_upper(a)?;
        let symbolic = LdlSymbolic::new(&permuted)?;
        let factor = symbolic.factor(&permuted)?;
        let val_map = build_value_map(a, &perm, &permuted);
        Ok(LdlSolver {
            perm,
            permuted,
            symbolic,
            factor,
            orig_col_ptr: a.col_ptr().to_vec(),
            orig_row_ind: a.row_ind().to_vec(),
            val_map,
        })
    }

    /// The fill-reducing permutation in use.
    pub fn perm(&self) -> &Permutation {
        &self.perm
    }

    /// The symbolic analysis (pattern-only data).
    pub fn symbolic(&self) -> &LdlSymbolic {
        &self.symbolic
    }

    /// The current numeric factor.
    pub fn factor(&self) -> &LdlFactor {
        &self.factor
    }

    /// Updates the numeric values of the matrix (same pattern as the one the
    /// solver was built from) and refactors without symbolic analysis.
    ///
    /// Allocation-free on the common path: values are scattered through the
    /// precomputed original-slot → permuted-slot map and the numeric
    /// factorization reuses the factor's workspaces.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if the pattern differs, or
    /// [`SparseError::ZeroPivot`] from the factorization.
    pub fn update_values(&mut self, a: &CscMatrix) -> Result<()> {
        if a.col_ptr() != &self.orig_col_ptr[..] || a.row_ind() != &self.orig_row_ind[..] {
            return Err(SparseError::InvalidStructure(
                "update_values requires the original sparsity pattern".into(),
            ));
        }
        match &self.val_map {
            Some(map) => {
                let dst = self.permuted.values_mut();
                for (k, &slot) in map.iter().enumerate() {
                    dst[slot] = a.values()[k];
                }
            }
            None => {
                // Duplicate coordinates in the original: rebuild (sums them).
                self.permuted = self.perm.sym_perm_upper(a)?;
            }
        }
        self.symbolic.refactor(&self.permuted, &mut self.factor)
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut work = vec![0.0; b.len()];
        let mut out = vec![0.0; b.len()];
        self.solve_into(b, &mut work, &mut out);
        out
    }

    /// Solves `A x = b` into caller-provided buffers: `work` holds the
    /// permuted intermediate, `out` receives the solution. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if any buffer length differs from the matrix dimension.
    pub fn solve_into(&self, b: &[f64], work: &mut [f64], out: &mut [f64]) {
        self.perm.apply_into(b, work);
        self.factor.solve_in_place(work);
        self.perm.apply_inv_into(work, out);
    }
}

/// Maps each stored entry of `a` (storage order) to the slot of
/// `permuted = P A Pᵀ` holding its value. Returns `None` if two entries of
/// `a` collide in the permuted matrix (duplicate coordinates): the rebuild
/// path must then be used so duplicates keep summing.
fn build_value_map(a: &CscMatrix, perm: &Permutation, permuted: &CscMatrix) -> Option<Vec<usize>> {
    if a.nnz() != permuted.nnz() {
        return None;
    }
    let inv = perm.inv();
    let mut map = Vec::with_capacity(a.nnz());
    let mut seen = vec![false; permuted.nnz()];
    for (i, j, _) in a.iter() {
        let (i2, j2) = (inv[i], inv[j]);
        let (r, c) = if i2 <= j2 { (i2, j2) } else { (j2, i2) };
        let range = permuted.col_range(c);
        let rows = &permuted.row_ind()[range.clone()];
        let slot = range.start + rows.binary_search(&r).ok()?;
        if seen[slot] {
            return None;
        }
        seen[slot] = true;
        map.push(slot);
    }
    Some(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::Ordering;

    /// Dense symmetric positive definite test matrix (upper triangle).
    fn spd_upper() -> CscMatrix {
        // A = [ 4 1 0 2 ]
        //     [ 1 5 1 0 ]
        //     [ 0 1 6 1 ]
        //     [ 2 0 1 7 ]
        CscMatrix::from_dense(
            4,
            4,
            &[
                4.0, 1.0, 0.0, 2.0, //
                0.0, 5.0, 1.0, 0.0, //
                0.0, 0.0, 6.0, 1.0, //
                0.0, 0.0, 0.0, 7.0,
            ],
        )
    }

    fn full_from_upper(u: &CscMatrix) -> Vec<f64> {
        let n = u.nrows();
        let mut d = vec![0.0; n * n];
        for (i, j, v) in u.iter() {
            d[i * n + j] = v;
            d[j * n + i] = v;
        }
        d
    }

    fn reconstruct(f: &LdlFactor) -> Vec<f64> {
        let n = f.n();
        let l = f.l_matrix().to_dense();
        let mut ld = vec![0.0; n * n];
        // (L + I) * D
        for i in 0..n {
            for j in 0..n {
                let lij = if i == j { 1.0 } else { l[i * n + j] };
                ld[i * n + j] = lij * f.d()[j];
            }
        }
        // (LD) * (L + I)^T
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    let ljk = if j == k { 1.0 } else { l[j * n + k] };
                    acc += ld[i * n + k] * ljk;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_upper();
        let sym = LdlSymbolic::new(&a).unwrap();
        let f = sym.factor(&a).unwrap();
        let rec = reconstruct(&f);
        let full = full_from_upper(&a);
        for (x, y) in rec.iter().zip(&full) {
            assert!((x - y).abs() < 1e-12, "reconstruction mismatch: {x} vs {y}");
        }
    }

    #[test]
    fn solve_matches_direct_inversion() {
        let a = spd_upper();
        let sym = LdlSymbolic::new(&a).unwrap();
        let f = sym.factor(&a).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = f.solve(&b);
        // Check A x == b using the symmetric product.
        let ax = a.sym_upper_mul_vec(&x);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn quasi_definite_kkt_factors() {
        // KKT-style quasi-definite matrix:
        // [ P + σI   Aᵀ  ]
        // [ A      -1/ρ I]
        // with P = diag(1, 2), A = [1 1], σ = 1e-6, ρ = 10.
        let sigma = 1e-6;
        let rho = 10.0;
        let d = vec![
            1.0 + sigma,
            0.0,
            1.0,
            0.0,
            2.0 + sigma,
            1.0,
            1.0,
            1.0,
            -1.0 / rho,
        ];
        let a = CscMatrix::from_dense(3, 3, &d).upper_triangle().unwrap();
        let sym = LdlSymbolic::new(&a).unwrap();
        let f = sym.factor(&a).unwrap();
        // One negative pivot (one constraint row).
        assert_eq!(f.d().iter().filter(|&&v| v < 0.0).count(), 1);
        let b = [1.0, -1.0, 0.5];
        let x = f.solve(&b);
        let ax = a.sym_upper_mul_vec(&x);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn refactor_reuses_pattern() {
        let a = spd_upper();
        let sym = LdlSymbolic::new(&a).unwrap();
        let mut f = sym.factor(&a).unwrap();
        // Scale values; same pattern.
        let a2 = a.map_values(|v| v * 2.0);
        sym.refactor(&a2, &mut f).unwrap();
        let b = [1.0, 0.0, 0.0, 1.0];
        let x = f.solve(&b);
        let ax = a2.sym_upper_mul_vec(&x);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn zero_pivot_reported() {
        let a = CscMatrix::from_dense(2, 2, &[0.0, 0.0, 0.0, 1.0]);
        let sym = LdlSymbolic::new(&a).unwrap();
        assert!(matches!(sym.factor(&a), Err(SparseError::ZeroPivot(0))));
    }

    #[test]
    fn solver_with_ordering_round_trips() {
        let a = spd_upper();
        for method in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            let solver = LdlSolver::new(&a, method).unwrap();
            let b = [4.0, 3.0, 2.0, 1.0];
            let x = solver.solve(&b);
            let ax = a.sym_upper_mul_vec(&x);
            for (u, v) in ax.iter().zip(&b) {
                assert!((u - v).abs() < 1e-10, "ordering {method:?} failed");
            }
        }
    }

    #[test]
    fn update_values_refactors() {
        let a = spd_upper();
        let mut solver = LdlSolver::new(&a, Ordering::MinDegree).unwrap();
        let a2 = a.map_values(|v| v * 3.0);
        solver.update_values(&a2).unwrap();
        let b = [1.0, 1.0, 1.0, 1.0];
        let x = solver.solve(&b);
        let ax = a2.sym_upper_mul_vec(&x);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn l_is_strictly_lower_and_sorted() {
        let a = spd_upper();
        let f = LdlSymbolic::new(&a).unwrap().factor(&a).unwrap();
        let l = f.l_matrix();
        for (i, j, _) in l.iter() {
            assert!(i > j, "L must be strictly lower triangular");
        }
    }
}
