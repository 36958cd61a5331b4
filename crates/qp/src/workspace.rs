//! Preallocated scratch buffers for the allocation-free solve pipeline.
//!
//! Every vector the ADMM iteration, the residual computation and the two
//! KKT backends need is owned by one [`SolveWorkspace`], sized once at
//! [`Solver::new`](crate::Solver::new). The iteration, KKT solve and
//! residual paths then borrow slices from it instead of allocating — the
//! invariant the zero-allocation test in `tests/zero_alloc.rs` enforces.
//!
//! Both KKT backends ([`DirectKkt::solve`], [`IndirectKkt::solve`])
//! receive the whole workspace: they read the right-hand side from
//! [`rhs_x`] / [`rhs_z`], write the solution to [`xtilde`] / [`nu`], and
//! are free to use the scratch fields. Sharing one pool of buffers (rather
//! than per-backend fields) is what lets `DirectKkt` and `IndirectKkt`
//! reuse the same memory and keeps buffer sizing in a single place.
//!
//! [`DirectKkt::solve`]: crate::linsys::DirectKkt::solve
//! [`IndirectKkt::solve`]: crate::linsys::IndirectKkt::solve
//!
//! [`rhs_x`]: SolveWorkspace::rhs_x
//! [`rhs_z`]: SolveWorkspace::rhs_z
//! [`xtilde`]: SolveWorkspace::xtilde
//! [`nu`]: SolveWorkspace::nu

/// Scratch buffers for one solver instance (`n` variables, `m`
/// constraints). All buffers are allocated up front; no method of this
/// type allocates after construction.
#[derive(Debug, Clone)]
pub struct SolveWorkspace {
    // --- KKT exchange buffers (iteration ⇄ backend) -----------------
    /// KKT right-hand side, first block (length `n`). Input to
    /// [`DirectKkt::solve`](crate::linsys::DirectKkt::solve) and
    /// [`IndirectKkt::solve`](crate::linsys::IndirectKkt::solve).
    pub rhs_x: Vec<f64>,
    /// KKT right-hand side, second block (length `m`).
    pub rhs_z: Vec<f64>,
    /// KKT solution `x̃` (length `n`). Output of the backend.
    pub xtilde: Vec<f64>,
    /// KKT solution `ν` (length `m`). Output of the backend.
    pub nu: Vec<f64>,

    // --- ADMM iteration scratch -------------------------------------
    /// `z̃ = z + ρ⁻¹(ν − y)` (length `m`).
    pub ztilde: Vec<f64>,
    /// Relaxed constraint iterate `α z̃ + (1−α) z` (length `m`).
    pub z_relaxed: Vec<f64>,
    /// Per-iteration primal step `δx` (length `n`), input to the dual
    /// infeasibility certificate.
    pub delta_x: Vec<f64>,
    /// Per-iteration dual step `δy` (length `m`), input to the primal
    /// infeasibility certificate.
    pub delta_y: Vec<f64>,

    // --- Residual / termination scratch ------------------------------
    /// Unscaled primal iterate (length `n`).
    pub x_us: Vec<f64>,
    /// Unscaled dual iterate (length `m`).
    pub y_us: Vec<f64>,
    /// Unscaled constraint iterate (length `m`).
    pub z_us: Vec<f64>,
    /// `A x` in the original space (length `m`).
    pub ax: Vec<f64>,
    /// `P x` in the original space (length `n`).
    pub px: Vec<f64>,
    /// `Aᵀ y` in the original space (length `n`).
    pub aty: Vec<f64>,
    /// Unscaled candidate dual-infeasibility certificate `δx` (length `n`).
    pub cert_x: Vec<f64>,
    /// Unscaled candidate primal-infeasibility certificate `δy` (length `m`).
    pub cert_y: Vec<f64>,

    // --- Direct backend scratch --------------------------------------
    /// Stacked KKT right-hand side (length `n + m`).
    pub kkt_rhs: Vec<f64>,
    /// Permuted intermediate of the LDLᵀ solve (length `n + m`).
    pub kkt_work: Vec<f64>,
    /// Stacked KKT solution (length `n + m`).
    pub kkt_sol: Vec<f64>,

    // --- Indirect (PCG) backend scratch ------------------------------
    /// PCG residual (length `n`).
    pub r: Vec<f64>,
    /// PCG search direction (length `n`).
    pub pdir: Vec<f64>,
    /// `S · p` matrix–vector product (length `n`).
    pub sp: Vec<f64>,
    /// Preconditioned residual (length `n`).
    pub dvec: Vec<f64>,
    /// `A · v` intermediate of the reduced operator (length `m`).
    pub az: Vec<f64>,
    /// Reduced right-hand side `rhs_x + Aᵀ(ρ ∘ rhs_z)` (length `n`).
    pub b_red: Vec<f64>,
}

impl SolveWorkspace {
    /// Allocates all buffers for a problem with `n` variables and `m`
    /// constraints.
    pub fn new(n: usize, m: usize) -> Self {
        SolveWorkspace {
            rhs_x: vec![0.0; n],
            rhs_z: vec![0.0; m],
            xtilde: vec![0.0; n],
            nu: vec![0.0; m],
            ztilde: vec![0.0; m],
            z_relaxed: vec![0.0; m],
            delta_x: vec![0.0; n],
            delta_y: vec![0.0; m],
            x_us: vec![0.0; n],
            y_us: vec![0.0; m],
            z_us: vec![0.0; m],
            ax: vec![0.0; m],
            px: vec![0.0; n],
            aty: vec![0.0; n],
            cert_x: vec![0.0; n],
            cert_y: vec![0.0; m],
            kkt_rhs: vec![0.0; n + m],
            kkt_work: vec![0.0; n + m],
            kkt_sol: vec![0.0; n + m],
            r: vec![0.0; n],
            pdir: vec![0.0; n],
            sp: vec![0.0; n],
            dvec: vec![0.0; n],
            az: vec![0.0; m],
            b_red: vec![0.0; n],
        }
    }

    /// Number of primal variables the workspace is sized for.
    pub fn num_vars(&self) -> usize {
        self.rhs_x.len()
    }

    /// Number of constraints the workspace is sized for.
    pub fn num_constraints(&self) -> usize {
        self.rhs_z.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_consistent() {
        let ws = SolveWorkspace::new(5, 3);
        assert_eq!(ws.num_vars(), 5);
        assert_eq!(ws.num_constraints(), 3);
        assert_eq!(ws.kkt_rhs.len(), 8);
        assert_eq!(ws.az.len(), 3);
        assert_eq!(ws.b_red.len(), 5);
    }
}
