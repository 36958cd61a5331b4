use crate::{CsrMatrix, Result, SparseError, TripletMatrix};

/// A sparse matrix in Compressed Sparse Column (CSC) format.
///
/// CSC is the working format of the whole MIB stack: OSQP stores `P` (upper
/// triangle) and `A` in CSC, the LDLᵀ factorization consumes and produces
/// CSC, and the MIB compiler reads CSC column structure when generating
/// column-elimination network instructions.
///
/// Invariants (enforced by all constructors):
///
/// * `col_ptr.len() == ncols + 1`, `col_ptr[0] == 0`,
///   `col_ptr[ncols] == row_ind.len() == values.len()`,
/// * `col_ptr` is non-decreasing,
/// * within each column, row indices are strictly increasing (sorted, no
///   duplicates) and less than `nrows`.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_ind: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Creates an `nrows x ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CscMatrix {
            nrows,
            ncols,
            col_ptr: vec![0; ncols + 1],
            row_ind: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            nrows: n,
            ncols: n,
            col_ptr: (0..=n).collect(),
            row_ind: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    ///
    /// Zero diagonal entries are stored explicitly; callers that need a
    /// pruned matrix can use [`CscMatrix::prune`].
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        CscMatrix {
            nrows: n,
            ncols: n,
            col_ptr: (0..=n).collect(),
            row_ind: (0..n).collect(),
            values: diag.to_vec(),
        }
    }

    /// Builds a CSC matrix from triplet (COO) data, summing duplicates.
    ///
    /// # Errors
    ///
    /// Never fails for a well-formed [`TripletMatrix`]; the `Result` covers
    /// internal consistency only.
    pub fn from_triplets(t: &TripletMatrix) -> Result<Self> {
        let (rows, cols, vals) = t.parts();
        Self::from_triplet_parts(t.nrows(), t.ncols(), rows, cols, vals)
    }

    /// Builds a CSC matrix directly from parallel triplet arrays, summing
    /// duplicate entries.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if any index exceeds the
    /// dimensions, or [`SparseError::InvalidStructure`] if the arrays have
    /// mismatched lengths.
    pub fn from_triplet_parts(
        nrows: usize,
        ncols: usize,
        rows: &[usize],
        cols: &[usize],
        vals: &[f64],
    ) -> Result<Self> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(SparseError::InvalidStructure(format!(
                "triplet arrays have mismatched lengths {}/{}/{}",
                rows.len(),
                cols.len(),
                vals.len()
            )));
        }
        for (&r, &c) in rows.iter().zip(cols) {
            if r >= nrows || c >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows,
                    ncols,
                });
            }
        }
        // Count entries per column.
        let mut col_counts = vec![0usize; ncols];
        for &c in cols {
            col_counts[c] += 1;
        }
        let mut col_ptr = vec![0usize; ncols + 1];
        for j in 0..ncols {
            col_ptr[j + 1] = col_ptr[j] + col_counts[j];
        }
        // Scatter into place (unsorted within columns for now).
        let nnz = rows.len();
        let mut next = col_ptr[..ncols].to_vec();
        let mut row_ind = vec![0usize; nnz];
        let mut values = vec![0f64; nnz];
        for k in 0..nnz {
            let c = cols[k];
            let dst = next[c];
            row_ind[dst] = rows[k];
            values[dst] = vals[k];
            next[c] += 1;
        }
        // Sort each column by row index and merge duplicates.
        let mut out_ptr = vec![0usize; ncols + 1];
        let mut out_rows = Vec::with_capacity(nnz);
        let mut out_vals = Vec::with_capacity(nnz);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..ncols {
            scratch.clear();
            scratch.extend(
                row_ind[col_ptr[j]..col_ptr[j + 1]]
                    .iter()
                    .copied()
                    .zip(values[col_ptr[j]..col_ptr[j + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let (r, mut v) = scratch[i];
                let mut k = i + 1;
                while k < scratch.len() && scratch[k].0 == r {
                    v += scratch[k].1;
                    k += 1;
                }
                out_rows.push(r);
                out_vals.push(v);
                i = k;
            }
            out_ptr[j + 1] = out_rows.len();
        }
        Ok(CscMatrix {
            nrows,
            ncols,
            col_ptr: out_ptr,
            row_ind: out_rows,
            values: out_vals,
        })
    }

    /// Builds a CSC matrix from raw compressed arrays, validating every
    /// structural invariant.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] when the arrays violate the
    /// CSC invariants documented on the type.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_ind: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if col_ptr.len() != ncols + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "col_ptr has length {} but expected {}",
                col_ptr.len(),
                ncols + 1
            )));
        }
        if col_ptr[0] != 0 {
            return Err(SparseError::InvalidStructure("col_ptr[0] must be 0".into()));
        }
        if *col_ptr.last().expect("non-empty col_ptr") != row_ind.len()
            || row_ind.len() != values.len()
        {
            return Err(SparseError::InvalidStructure(format!(
                "col_ptr end {} does not match nnz arrays {}/{}",
                col_ptr[ncols],
                row_ind.len(),
                values.len()
            )));
        }
        for j in 0..ncols {
            if col_ptr[j] > col_ptr[j + 1] {
                return Err(SparseError::InvalidStructure(format!(
                    "col_ptr decreases at column {j}"
                )));
            }
            let mut prev: Option<usize> = None;
            for &r in &row_ind[col_ptr[j]..col_ptr[j + 1]] {
                if r >= nrows {
                    return Err(SparseError::InvalidStructure(format!(
                        "row index {r} out of bounds in column {j}"
                    )));
                }
                if let Some(p) = prev {
                    if r <= p {
                        return Err(SparseError::InvalidStructure(format!(
                            "row indices not strictly increasing in column {j}"
                        )));
                    }
                }
                prev = Some(r);
            }
        }
        Ok(CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_ind,
            values,
        })
    }

    /// Builds a CSC matrix from a dense row-major matrix, storing entries
    /// with `|value| > 0.0` only.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != nrows * ncols`.
    pub fn from_dense(nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols, "dense data has wrong length");
        let mut col_ptr = vec![0usize; ncols + 1];
        let mut row_ind = Vec::new();
        let mut values = Vec::new();
        for j in 0..ncols {
            for i in 0..nrows {
                let v = data[i * ncols + j];
                if v != 0.0 {
                    row_ind.push(i);
                    values.push(v);
                }
            }
            col_ptr[j + 1] = row_ind.len();
        }
        CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_ind,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.row_ind.len()
    }

    /// The column pointer array (`ncols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The row index array.
    pub fn row_ind(&self) -> &[usize] {
        &self.row_ind
    }

    /// The stored values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values (the sparsity pattern is fixed).
    ///
    /// This is the hook OSQP-style parameter updates use: the KKT matrix is
    /// re-valued in place when `rho` changes without re-running symbolic
    /// analysis.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Iterates over the `(row, value)` entries of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_ind[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Index range of column `j` into [`CscMatrix::row_ind`] / [`CscMatrix::values`].
    pub fn col_range(&self, j: usize) -> std::ops::Range<usize> {
        self.col_ptr[j]..self.col_ptr[j + 1]
    }

    /// Returns the stored value at `(i, j)`, or `0.0` if the entry is not
    /// stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let range = self.col_range(j);
        match self.row_ind[range.clone()].binary_search(&i) {
            Ok(k) => self.values[range.start + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored entries as `(row, col, value)` in
    /// column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.ncols).flat_map(move |j| self.col(j).map(move |(i, v)| (i, j, v)))
    }

    /// Returns the transpose as a new CSC matrix.
    pub fn transpose(&self) -> CscMatrix {
        let mut counts = vec![0usize; self.nrows];
        for &r in &self.row_ind {
            counts[r] += 1;
        }
        let mut col_ptr = vec![0usize; self.nrows + 1];
        for i in 0..self.nrows {
            col_ptr[i + 1] = col_ptr[i] + counts[i];
        }
        let mut next = col_ptr[..self.nrows].to_vec();
        let mut row_ind = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        for j in 0..self.ncols {
            for k in self.col_range(j) {
                let r = self.row_ind[k];
                let dst = next[r];
                row_ind[dst] = j;
                values[dst] = self.values[k];
                next[r] += 1;
            }
        }
        // Row indices of the transpose are automatically sorted because we
        // sweep columns of `self` in increasing order.
        CscMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            col_ptr,
            row_ind,
            values,
        }
    }

    // ----- SpMV kernels ---------------------------------------------------
    //
    // The `_into` methods below are the canonical allocation-free kernels;
    // every allocating spelling (`mul_vec`, `tr_mul_vec`, ...) is a thin
    // wrapper so hot paths can borrow caller-owned buffers instead.

    /// Computes `y = A * x` into a caller-provided buffer (overwriting it).
    /// This is the canonical allocation-free SpMV kernel.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x has wrong length");
        assert_eq!(y.len(), self.nrows, "spmv: y has wrong length");
        y.fill(0.0);
        self.gaxpy_into(x, y);
    }

    /// Accumulates `y += A * x` (the BLAS-style "gaxpy" update).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn gaxpy_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x has wrong length");
        assert_eq!(y.len(), self.nrows, "spmv: y has wrong length");
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                let r = self.col_range(j);
                let idx = &self.row_ind[r.clone()];
                let vals = &self.values[r];
                // Row indices within a column are strictly increasing
                // (struct invariant), so one O(1) span check detects a
                // fully contiguous column; the dense axpy then runs with
                // zero index traffic. Bitwise-neutral: the updates are
                // element-wise on distinct rows (no reduction order) and
                // IEEE multiplication commutes.
                match idx {
                    [first, .., last] if last - first == idx.len() - 1 => {
                        crate::simd::axpy_into(&mut y[*first..=*last], xj, vals);
                    }
                    _ => crate::simd::scatter_axpy(y, idx, vals, xj),
                }
            }
        }
    }

    /// Computes `y = Aᵀ * x` into a caller-provided buffer (overwriting it)
    /// without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows` or `y.len() != ncols`.
    pub fn spmv_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "spmv^T: x has wrong length");
        assert_eq!(y.len(), self.ncols, "spmv^T: y has wrong length");
        y.fill(0.0);
        self.gaxpy_t_into(x, y);
    }

    /// Accumulates `y += Aᵀ * x` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows` or `y.len() != ncols`.
    pub fn gaxpy_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "spmv^T: x has wrong length");
        assert_eq!(y.len(), self.ncols, "spmv^T: y has wrong length");
        for (j, yj) in y.iter_mut().enumerate() {
            let r = self.col_range(j);
            let idx = &self.row_ind[r.clone()];
            let vals = &self.values[r];
            // Same O(1) contiguous-column detection as `gaxpy_into`. The
            // dense dot is bitwise-identical to the gather-dot here: both
            // implement the canonical lane-chunked reduction order and the
            // contiguous indices make them read identical operands.
            *yj += match idx {
                [first, .., last] if last - first == idx.len() - 1 => {
                    crate::simd::dot(vals, &x[*first..=*last])
                }
                _ => crate::simd::gather_dot(vals, idx, x),
            };
        }
    }

    /// Computes `y = P * x` into a caller-provided buffer where `self`
    /// stores only the **upper triangle** of a symmetric matrix `P` (the
    /// OSQP storage convention for the objective matrix).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or buffer lengths mismatch.
    pub fn sym_upper_mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.nrows, "sym spmv: y has wrong length");
        y.fill(0.0);
        self.sym_upper_mul_vec_acc(x, y);
    }

    /// Computes `y = A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Computes `y = Aᵀ * x` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows`.
    pub fn tr_mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.ncols];
        self.spmv_t_into(x, &mut y);
        y
    }

    /// Computes `y = P * x` where `self` stores only the **upper triangle**
    /// of a symmetric matrix `P` (the OSQP storage convention for the
    /// objective matrix).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `x.len() != n`.
    pub fn sym_upper_mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.sym_upper_mul_vec_into(x, &mut y);
        y
    }

    /// Accumulates `y += P * x` for an upper-triangle-stored symmetric `P`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or buffer lengths mismatch.
    pub fn sym_upper_mul_vec_acc(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            self.nrows, self.ncols,
            "symmetric product requires square matrix"
        );
        assert_eq!(x.len(), self.ncols, "sym spmv: x has wrong length");
        assert_eq!(y.len(), self.nrows, "sym spmv: y has wrong length");
        for j in 0..self.ncols {
            let r = self.col_range(j);
            let rows = &self.row_ind[r.clone()];
            let vals = &self.values[r];
            debug_assert!(
                rows.iter().all(|&i| i <= j),
                "matrix is not upper triangular"
            );
            // Upper-triangle pass: y[i] += v * x[j] for every stored entry
            // of column j, diagonal included.
            crate::simd::scatter_axpy(y, rows, vals, x[j]);
            // Mirrored strictly-lower pass, as one gather-dot over the
            // strictly-upper entries (row indices are ascending, so a
            // diagonal entry is always last in the column).
            let strict = rows.len() - usize::from(rows.last() == Some(&j));
            y[j] += crate::simd::gather_dot(&vals[..strict], &rows[..strict], x);
        }
    }

    /// Extracts the upper triangle (including the diagonal) of a square
    /// matrix as a new CSC matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for rectangular inputs.
    pub fn upper_triangle(&self) -> Result<CscMatrix> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        let mut col_ptr = vec![0usize; self.ncols + 1];
        let mut row_ind = Vec::new();
        let mut values = Vec::new();
        for j in 0..self.ncols {
            for (i, v) in self.col(j) {
                if i <= j {
                    row_ind.push(i);
                    values.push(v);
                }
            }
            col_ptr[j + 1] = row_ind.len();
        }
        Ok(CscMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr,
            row_ind,
            values,
        })
    }

    /// Returns `true` if every stored entry lies on or above the diagonal.
    pub fn is_upper_triangular(&self) -> bool {
        self.iter().all(|(i, j, _)| i <= j)
    }

    /// Returns a copy with entries equal to `0.0` removed from storage.
    pub fn prune(&self) -> CscMatrix {
        let mut col_ptr = vec![0usize; self.ncols + 1];
        let mut row_ind = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for j in 0..self.ncols {
            for (i, v) in self.col(j) {
                if v != 0.0 {
                    row_ind.push(i);
                    values.push(v);
                }
            }
            col_ptr[j + 1] = row_ind.len();
        }
        CscMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr,
            row_ind,
            values,
        }
    }

    /// Applies `f` to every stored value, returning a matrix with the same
    /// pattern.
    pub fn map_values(&self, mut f: impl FnMut(f64) -> f64) -> CscMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = f(*v);
        }
        out
    }

    /// Scales row `i` by `d[i]` in place (`A <- diag(d) * A`).
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != nrows`.
    pub fn scale_rows(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.nrows, "row scaling vector has wrong length");
        for k in 0..self.row_ind.len() {
            self.values[k] *= d[self.row_ind[k]];
        }
    }

    /// Scales column `j` by `d[j]` in place (`A <- A * diag(d)`).
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != ncols`.
    pub fn scale_cols(&mut self, d: &[f64]) {
        assert_eq!(
            d.len(),
            self.ncols,
            "column scaling vector has wrong length"
        );
        for (j, &dj) in d.iter().enumerate() {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                self.values[k] *= dj;
            }
        }
    }

    /// Infinity norm of each column: `out[j] = max_i |A[i, j]|`.
    pub fn col_norms_inf(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.ncols];
        for (j, oj) in out.iter_mut().enumerate() {
            for k in self.col_range(j) {
                *oj = oj.max(self.values[k].abs());
            }
        }
        out
    }

    /// Infinity norm of each row: `out[i] = max_j |A[i, j]|`.
    pub fn row_norms_inf(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.nrows];
        for (k, &r) in self.row_ind.iter().enumerate() {
            out[r] = out[r].max(self.values[k].abs());
        }
        out
    }

    /// Column infinity norms of the full symmetric matrix whose upper
    /// triangle is stored in `self` (entries below the diagonal are mirrored).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn sym_upper_col_norms_inf(&self) -> Vec<f64> {
        assert_eq!(
            self.nrows, self.ncols,
            "symmetric norms require square matrix"
        );
        let mut out = vec![0.0f64; self.ncols];
        for (i, j, v) in self.iter() {
            let a = v.abs();
            out[j] = out[j].max(a);
            if i != j {
                out[i] = out[i].max(a);
            }
        }
        out
    }

    /// Converts to a dense row-major buffer (for tests and small examples).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows * self.ncols];
        for (i, j, v) in self.iter() {
            d[i * self.ncols + j] += v;
        }
        d
    }

    /// Converts to Compressed Sparse Row form.
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_csc(self)
    }

    /// Frobenius-style structural equality: same shape and same pattern
    /// (ignores values).
    pub fn same_pattern(&self, other: &CscMatrix) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.col_ptr == other.col_ptr
            && self.row_ind == other.row_ind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        CscMatrix::from_dense(3, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0, 5.0])
    }

    #[test]
    fn from_triplets_sums_duplicates_and_sorts() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(1, 0, 1.0).unwrap();
        t.push(0, 0, 2.0).unwrap();
        t.push(1, 0, 0.5).unwrap();
        let m = CscMatrix::from_triplets(&t).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 0), 1.5);
        assert_eq!(m.row_ind(), &[0, 1]);
    }

    #[test]
    fn from_parts_validates_structure() {
        assert!(CscMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CscMatrix::from_parts(2, 2, vec![1, 1, 1], vec![0], vec![1.0]).is_err());
        assert!(CscMatrix::from_parts(2, 2, vec![0, 2, 2], vec![1, 0], vec![1.0, 2.0]).is_err());
        assert!(CscMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 2], vec![1.0, 2.0]).is_err());
        let ok = CscMatrix::from_parts(2, 2, vec![0, 2, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(ok.is_ok());
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let y = m.mul_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn tr_mul_matches_transpose_mul() {
        let m = sample();
        let x = [1.0, -1.0, 0.5];
        assert_eq!(m.tr_mul_vec(&x), m.transpose().mul_vec(&x));
    }

    #[test]
    fn symmetric_upper_product() {
        // Full symmetric matrix:
        // [ 2 1 0 ]
        // [ 1 3 1 ]
        // [ 0 1 4 ]
        let upper = CscMatrix::from_dense(3, 3, &[2.0, 1.0, 0.0, 0.0, 3.0, 1.0, 0.0, 0.0, 4.0]);
        let y = upper.sym_upper_mul_vec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![3.0, 5.0, 5.0]);
    }

    #[test]
    fn upper_triangle_extraction() {
        let m = sample();
        let u = m.upper_triangle().unwrap();
        assert!(u.is_upper_triangular());
        assert_eq!(u.get(0, 2), 2.0);
        assert_eq!(u.get(2, 0), 0.0);
        assert_eq!(u.get(2, 2), 5.0);
    }

    #[test]
    fn scaling_rows_and_cols() {
        let mut m = sample();
        m.scale_rows(&[2.0, 1.0, 0.5]);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(2, 2), 2.5);
        m.scale_cols(&[1.0, 10.0, 2.0]);
        assert_eq!(m.get(1, 1), 30.0);
        // (0,2) was 2.0, row-scaled by 2.0 then column-scaled by 2.0.
        assert_eq!(m.get(0, 2), 8.0);
    }

    #[test]
    fn norms() {
        let m = sample();
        assert_eq!(m.col_norms_inf(), vec![4.0, 3.0, 5.0]);
        assert_eq!(m.row_norms_inf(), vec![2.0, 3.0, 5.0]);
    }

    #[test]
    fn prune_removes_explicit_zeros() {
        let m = CscMatrix::from_diag(&[1.0, 0.0, 3.0]);
        assert_eq!(m.nnz(), 3);
        let p = m.prune();
        assert_eq!(p.nnz(), 2);
        assert_eq!(p.get(2, 2), 3.0);
    }

    #[test]
    fn identity_and_diag() {
        let i = CscMatrix::identity(3);
        let x = [3.0, -1.0, 2.0];
        assert_eq!(i.mul_vec(&x), x.to_vec());
        let d = CscMatrix::from_diag(&[2.0, 3.0, 4.0]);
        assert_eq!(d.mul_vec(&x), vec![6.0, -3.0, 8.0]);
    }

    #[test]
    fn sym_norms_mirror_lower_part() {
        let upper = CscMatrix::from_dense(2, 2, &[1.0, 5.0, 0.0, 2.0]);
        // Full matrix [[1,5],[5,2]]: both column norms are 5.
        assert_eq!(upper.sym_upper_col_norms_inf(), vec![5.0, 5.0]);
    }
}
