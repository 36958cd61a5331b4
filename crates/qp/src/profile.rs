//! FLOP accounting in terms of the paper's four primitive operations.
//!
//! Section II.E of the paper breaks the solver's core operation set into
//! four primitives and profiles 100 benchmark problems with them (Figure 3):
//!
//! * **MAC** — multiplication and accumulation (row-oriented products:
//!   `A·x`, symmetric `P·x`, the `Lᵀ` triangular solve),
//! * **permute** — vector permutation across register files (applying the
//!   fill-reducing permutation before/after the KKT solve),
//! * **column elimination** — column-oriented updates (the numeric LDLᵀ
//!   factorization, the `L` triangular solve, and `Aᵀ·y` products),
//! * **element-wise** — products, sums, reciprocals, projections, norms.
//!
//! The solver accumulates these counts exactly as it runs, so the Fig. 3
//! harness reads them off a finished solve.

use std::ops::{Add, AddAssign};

/// FLOP totals attributed to the four primitive operations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCounts {
    /// Multiply–accumulate flops (row-oriented).
    pub mac: f64,
    /// Vector elements moved across register files by permutations.
    pub permute: f64,
    /// Column-elimination flops (column-oriented updates).
    pub col_elim: f64,
    /// Element-wise flops (products, additions, comparisons, reciprocals).
    pub elementwise: f64,
}

impl OpCounts {
    /// Sum over all four primitives.
    pub fn total(&self) -> f64 {
        self.mac + self.permute + self.col_elim + self.elementwise
    }

    /// Fractional breakdown `(mac, permute, col_elim, elementwise)`;
    /// all zeros when the total is zero.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total();
        if t == 0.0 {
            return [0.0; 4];
        }
        [
            self.mac / t,
            self.permute / t,
            self.col_elim / t,
            self.elementwise / t,
        ]
    }
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            mac: self.mac + rhs.mac,
            permute: self.permute + rhs.permute,
            col_elim: self.col_elim + rhs.col_elim,
            elementwise: self.elementwise + rhs.elementwise,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

/// Full profile of one solver run: primitive totals plus a per-phase
/// breakdown and iteration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Profile {
    /// FLOPs per primitive over the whole solve.
    pub ops: OpCounts,
    /// FLOPs spent in numeric LDLᵀ factorization (direct variant only).
    pub factor_flops: f64,
    /// FLOPs spent in triangular solves (direct variant only).
    pub trisolve_flops: f64,
    /// FLOPs spent in sparse matrix–vector products.
    pub spmv_flops: f64,
    /// FLOPs spent in dense vector operations.
    pub vector_flops: f64,
    /// Number of numeric (re)factorizations performed.
    pub factor_count: usize,
    /// Total PCG iterations across all KKT solves (indirect variant only).
    pub pcg_iters: usize,
    /// ADMM iterations executed.
    pub admm_iters: usize,
    /// Full termination checks run: those on the `check_termination`
    /// cadence plus (ADMM only) those a passing pre-test triggered, or,
    /// with adaptive `ρ`, every fifth iteration.
    pub checks: usize,
    /// Number of adaptive `ρ` updates applied.
    pub rho_updates: usize,
}

impl Profile {
    /// Records factorization work (column elimination).
    pub fn add_factor(&mut self, flops: f64) {
        self.ops.col_elim += flops;
        self.factor_flops += flops;
        self.factor_count += 1;
    }

    /// Records a triangular-solve pass: the `L` solve is column elimination,
    /// the `Lᵀ` solve is MAC, the `D` solve is element-wise, and the
    /// permutations move `2(n+m)` elements.
    pub fn add_triangular_solve(&mut self, l_nnz: usize, dim: usize) {
        let l = 2.0 * l_nnz as f64;
        self.ops.col_elim += l;
        self.ops.mac += l;
        self.ops.elementwise += dim as f64;
        self.ops.permute += 2.0 * dim as f64;
        self.trisolve_flops += 2.0 * l + dim as f64;
    }

    /// Records a row-oriented product (MAC): `flops = 2 * nnz`.
    pub fn add_spmv_mac(&mut self, nnz: usize) {
        let f = 2.0 * nnz as f64;
        self.ops.mac += f;
        self.spmv_flops += f;
    }

    /// Records a column-oriented product (`Aᵀ·y`, column elimination).
    pub fn add_spmv_col_elim(&mut self, nnz: usize) {
        let f = 2.0 * nnz as f64;
        self.ops.col_elim += f;
        self.spmv_flops += f;
    }

    /// Records `flops` of element-wise vector work.
    pub fn add_vector(&mut self, flops: f64) {
        self.ops.elementwise += flops;
        self.vector_flops += flops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let c = OpCounts {
            mac: 3.0,
            permute: 1.0,
            col_elim: 4.0,
            elementwise: 2.0,
        };
        assert_eq!(c.total(), 10.0);
        assert_eq!(c.fractions(), [0.3, 0.1, 0.4, 0.2]);
        assert_eq!(OpCounts::default().fractions(), [0.0; 4]);
    }

    #[test]
    fn zero_total_fractions_produce_no_nans() {
        // A freshly constructed profile (or a solve that did no work) must
        // report all-zero fractions, never NaN — reports divide by total().
        let zero = OpCounts::default();
        assert_eq!(zero.total(), 0.0);
        let fr = zero.fractions();
        assert_eq!(fr, [0.0; 4]);
        assert!(fr.iter().all(|f| f.is_finite()), "fractions must be finite");
        // Negative-zero components must behave identically.
        let negz = OpCounts {
            mac: -0.0,
            permute: -0.0,
            col_elim: -0.0,
            elementwise: -0.0,
        };
        let fr = negz.fractions();
        assert!(fr.iter().all(|f| !f.is_nan()), "got NaN from -0.0 totals");
        assert_eq!(fr, [0.0; 4]);
        // And the full-profile path that reports consume.
        let p = Profile::default();
        assert!(p.ops.fractions().iter().all(|f| f.is_finite()));
    }

    #[test]
    fn add_accumulates() {
        let a = OpCounts {
            mac: 1.0,
            ..OpCounts::default()
        };
        let b = OpCounts {
            col_elim: 2.0,
            ..OpCounts::default()
        };
        let mut c = a;
        c += b;
        assert_eq!(c.mac, 1.0);
        assert_eq!(c.col_elim, 2.0);
    }

    #[test]
    fn profile_phase_attribution() {
        let mut p = Profile::default();
        p.add_factor(100.0);
        assert_eq!(p.ops.col_elim, 100.0);
        assert_eq!(p.factor_count, 1);
        p.add_triangular_solve(10, 4);
        // L solve: 20 col_elim; Lt solve: 20 mac; D: 4 ew; permute 8.
        assert_eq!(p.ops.col_elim, 120.0);
        assert_eq!(p.ops.mac, 20.0);
        assert_eq!(p.ops.elementwise, 4.0);
        assert_eq!(p.ops.permute, 8.0);
        p.add_spmv_mac(7);
        assert_eq!(p.ops.mac, 34.0);
        p.add_spmv_col_elim(7);
        assert_eq!(p.ops.col_elim, 134.0);
        p.add_vector(5.0);
        assert_eq!(p.ops.elementwise, 9.0);
        assert_eq!(p.spmv_flops, 28.0);
    }
}
