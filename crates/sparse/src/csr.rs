use crate::CscMatrix;

/// A sparse matrix in Compressed Sparse Row (CSR) format.
///
/// The MIB compiler schedules the MAC (row-oriented multiply–accumulate)
/// primitive by walking matrix *rows*; CSR gives it contiguous access to the
/// nonzeros of each row, mirroring how the hardware streams row segments from
/// HBM (Section III.A of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_ind: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Converts a CSC matrix to CSR.
    pub fn from_csc(a: &CscMatrix) -> Self {
        // CSR of A has the same arrays as CSC of Aᵀ.
        let t = a.transpose();
        CsrMatrix {
            nrows: a.nrows(),
            ncols: a.ncols(),
            row_ptr: t.col_ptr().to_vec(),
            col_ind: t.row_ind().to_vec(),
            values: t.values().to_vec(),
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

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_ind.len()
    }

    /// The row pointer array (`nrows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The stored values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over the `(col, value)` entries of row `i` in increasing
    /// column order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_ind[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Computes `y = A * x` row by row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "csr spmv: x has wrong length");
        (0..self.nrows)
            .map(|i| self.row(i).map(|(j, v)| v * x[j]).sum())
            .collect()
    }

    /// Converts back to CSC.
    pub fn to_csc(&self) -> CscMatrix {
        // CSR arrays of A are CSC arrays of Aᵀ; transpose once more.
        CscMatrix::from_parts(
            self.ncols,
            self.nrows,
            self.row_ptr.clone(),
            self.col_ind.clone(),
            self.values.clone(),
        )
        .expect("csr invariants imply csc invariants")
        .transpose()
    }
}

impl From<&CscMatrix> for CsrMatrix {
    fn from(a: &CscMatrix) -> Self {
        CsrMatrix::from_csc(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csc_csr_round_trip() {
        let a = CscMatrix::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let r = a.to_csr();
        assert_eq!(r.nnz(), 3);
        assert_eq!(r.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(r.row(1).collect::<Vec<_>>(), vec![(1, 3.0)]);
        assert_eq!(r.to_csc(), a);
    }

    #[test]
    fn csr_spmv_matches_csc() {
        let a = CscMatrix::from_dense(3, 2, &[1.0, 2.0, 0.0, -1.0, 4.0, 0.5]);
        let x = [2.0, -3.0];
        assert_eq!(a.to_csr().mul_vec(&x), a.mul_vec(&x));
    }

    #[test]
    fn row_nnz_counts() {
        let a = CscMatrix::from_dense(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        let r = a.to_csr();
        assert_eq!(r.row(0).count(), 2);
        assert_eq!(r.row(1).count(), 1);
    }
}
