//! Reusable scratch-buffer pool for allocation-free sparse kernels.
//!
//! The `_into` kernels on [`CscMatrix`](crate::CscMatrix) and the
//! triangular solves in [`ldl`](crate::ldl) all borrow caller-provided
//! buffers. [`SparseWorkspace`] is the companion allocator: it hands out
//! zeroed `Vec<f64>` scratch buffers and takes them back for reuse, so a
//! hot loop that needs temporaries of varying sizes allocates only on its
//! first pass. Buffers are matched by capacity, so one pool serves mixed
//! `n`/`m`/`n+m` sized requests.

/// A pool of reusable `f64` scratch buffers.
///
/// `take(len)` returns a zeroed buffer of exactly `len` elements, reusing
/// the pooled buffer with the smallest sufficient capacity; `put` returns
/// a buffer to the pool. After the pool has warmed up (each concurrent
/// size seen once), `take`/`put` cycles perform no heap allocation.
///
/// # Example
///
/// ```
/// use mib_sparse::SparseWorkspace;
///
/// let mut ws = SparseWorkspace::new();
/// let buf = ws.take(8); // allocates (cold)
/// ws.put(buf);
/// let buf = ws.take(4); // reuses the 8-capacity buffer
/// assert_eq!(buf.len(), 4);
/// assert!(buf.iter().all(|&v| v == 0.0));
/// ws.put(buf);
/// assert_eq!(ws.pooled(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SparseWorkspace {
    pool: Vec<Vec<f64>>,
}

impl SparseWorkspace {
    /// An empty pool.
    pub fn new() -> Self {
        SparseWorkspace { pool: Vec::new() }
    }

    /// Checks out a zeroed buffer of length `len`.
    ///
    /// Reuses the pooled buffer with the smallest capacity `>= len` if one
    /// exists; otherwise allocates.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let best = self
            .pool
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                let mut buf = self.pool.swap_remove(i);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn put(&mut self, buf: Vec<f64>) {
        self.pool.push(buf);
    }

    /// Number of buffers currently pooled (checked in, not lent out).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Total `f64` capacity held by the pool.
    pub fn capacity(&self) -> usize {
        self.pool.iter().map(|b| b.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_length() {
        let mut ws = SparseWorkspace::new();
        let mut b = ws.take(5);
        b.fill(7.0);
        ws.put(b);
        let b = ws.take(3);
        assert_eq!(b.len(), 3);
        assert!(b.iter().all(|&v| v == 0.0), "reused buffer must be zeroed");
    }

    #[test]
    fn reuses_smallest_sufficient_buffer() {
        let mut ws = SparseWorkspace::new();
        for len in [16, 4, 64] {
            ws.put(vec![0.0; len]);
        }
        let b = ws.take(4);
        assert_eq!(b.capacity(), 4, "must pick the tightest fit");
        ws.put(b);
        let b = ws.take(10);
        assert_eq!(b.capacity(), 16);
        ws.put(b);
    }

    #[test]
    fn warm_pool_does_not_grow() {
        let mut ws = SparseWorkspace::new();
        for _ in 0..10 {
            let a = ws.take(8);
            let b = ws.take(12);
            ws.put(a);
            ws.put(b);
        }
        assert_eq!(ws.pooled(), 2);
        assert!(ws.capacity() <= 8 + 12 + 8, "pool must not accumulate");
    }

    #[test]
    fn pool_serves_spmv_scratch() {
        use crate::CscMatrix;
        let m = CscMatrix::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let mut ws = SparseWorkspace::new();
        let mut y = ws.take(m.nrows());
        m.spmv_into(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 3.0]);
        ws.put(y);
    }
}
