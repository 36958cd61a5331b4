//! Modified Ruiz equilibration (the scaling step OSQP performs at setup).
//!
//! Repeatedly normalizes the infinity norms of the columns of the stacked
//! matrix `[P Aᵀ; A 0]` toward 1 and rescales the cost so that gradients of
//! the quadratic and linear terms are balanced. Scaling dramatically reduces
//! ADMM iteration counts on badly conditioned problems, and the scaling
//! vectors enter the unscaled termination criteria.

use mib_sparse::{vector, CscMatrix};

use crate::INFTY;

/// Clamp applied to every per-pass scaling factor, as in OSQP
/// (`MIN_SCALING` / `MAX_SCALING`).
const MIN_SCALING: f64 = 1e-4;
/// Upper clamp for per-pass scaling factors.
const MAX_SCALING: f64 = 1e4;

/// Diagonal scalings produced by Ruiz equilibration.
///
/// The scaled problem is
/// `P̄ = c·D P D`, `q̄ = c·D q`, `Ā = E A D`, `l̄ = E l`, `ū = E u`,
/// and solutions map back as `x = D x̄`, `z = E⁻¹ z̄`, `y = E ȳ / c`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaling {
    /// Cost scaling factor `c`.
    pub c: f64,
    /// Variable scaling `D` (diagonal, length `n`).
    pub d: Vec<f64>,
    /// Constraint scaling `E` (diagonal, length `m`).
    pub e: Vec<f64>,
    /// Reciprocals of `d`.
    pub dinv: Vec<f64>,
    /// Reciprocals of `e`.
    pub einv: Vec<f64>,
    /// Reciprocal of `c`.
    pub cinv: f64,
}

impl Scaling {
    /// The identity scaling (used when `scaling_iters == 0`).
    pub fn identity(n: usize, m: usize) -> Self {
        Scaling {
            c: 1.0,
            d: vec![1.0; n],
            e: vec![1.0; m],
            dinv: vec![1.0; n],
            einv: vec![1.0; m],
            cinv: 1.0,
        }
    }

    /// Maps a scaled primal iterate back to the original space: `x = D x̄`.
    pub fn unscale_x(&self, x_scaled: &[f64]) -> Vec<f64> {
        vector::ew_prod(&self.d, x_scaled)
    }

    /// Allocation-free form of [`Scaling::unscale_x`].
    pub fn unscale_x_into(&self, x_scaled: &[f64], out: &mut [f64]) {
        vector::ew_prod_into(out, &self.d, x_scaled);
    }

    /// Maps a scaled constraint iterate back: `z = E⁻¹ z̄`.
    pub fn unscale_z(&self, z_scaled: &[f64]) -> Vec<f64> {
        vector::ew_prod(&self.einv, z_scaled)
    }

    /// Allocation-free form of [`Scaling::unscale_z`].
    pub fn unscale_z_into(&self, z_scaled: &[f64], out: &mut [f64]) {
        vector::ew_prod_into(out, &self.einv, z_scaled);
    }

    /// Maps a scaled dual iterate back: `y = E ȳ / c`.
    pub fn unscale_y(&self, y_scaled: &[f64]) -> Vec<f64> {
        self.e
            .iter()
            .zip(y_scaled)
            .map(|(&e, &y)| e * y * self.cinv)
            .collect()
    }

    /// Allocation-free form of [`Scaling::unscale_y`].
    pub fn unscale_y_into(&self, y_scaled: &[f64], out: &mut [f64]) {
        vector::prod_scale_into(out, &self.e, y_scaled, self.cinv);
    }

    /// Writes the scaled cost `q̄ = c·D q` into `out`.
    pub(crate) fn scale_q_into(&self, q: &[f64], out: &mut [f64]) {
        for ((o, &qj), &dj) in out.iter_mut().zip(q).zip(&self.d) {
            *o = qj * self.c * dj;
        }
    }

    /// Writes the scaled bound `E b` into `out`, copying infinite entries
    /// unchanged (the rule setup scaling applies).
    pub(crate) fn scale_bounds_into(&self, b: &[f64], out: &mut [f64]) {
        out.copy_from_slice(b);
        scale_bounds(out, &self.e);
    }

    /// Maps a scaled objective value back: `f = f̄ / c`.
    pub fn unscale_obj(&self, obj_scaled: f64) -> f64 {
        obj_scaled * self.cinv
    }
}

/// Scales a bound vector in place, leaving infinite entries untouched so
/// that the solver's infinity semantics survive scaling.
fn scale_bounds(bounds: &mut [f64], e: &[f64]) {
    for (b, &s) in bounds.iter_mut().zip(e) {
        if b.abs() < INFTY {
            *b *= s;
        }
    }
}

/// Runs `iters` passes of modified Ruiz equilibration **in place** on the
/// problem data, returning the accumulated [`Scaling`].
///
/// `p` must be the upper triangle of the objective matrix. With `iters == 0`
/// the data is untouched and the identity scaling is returned.
pub fn ruiz_equilibrate(
    p: &mut CscMatrix,
    q: &mut [f64],
    a: &mut CscMatrix,
    l: &mut [f64],
    u: &mut [f64],
    iters: usize,
) -> Scaling {
    let n = q.len();
    let m = l.len();
    let mut c = 1.0f64;
    let mut d = vec![1.0f64; n];
    let mut e = vec![1.0f64; m];

    for _ in 0..iters {
        // Per-pass scalings from the column norms of [P Aᵀ; A 0]:
        // variable column j sees column j of P (symmetric) and column j of A;
        // constraint column n+i sees row i of A.
        let p_norms = p.sym_upper_col_norms_inf();
        let a_col_norms = a.col_norms_inf();
        let a_row_norms = a.row_norms_inf();

        let mut delta_d = vec![1.0f64; n];
        for j in 0..n {
            let norm = p_norms[j].max(a_col_norms[j]);
            delta_d[j] = scaling_factor(norm);
        }
        let mut delta_e = vec![1.0f64; m];
        for i in 0..m {
            delta_e[i] = scaling_factor(a_row_norms[i]);
        }

        // Apply: P <- Δd P Δd, q <- Δd q, A <- Δe A Δd, l/u <- Δe l/u.
        p.scale_cols(&delta_d);
        p.scale_rows(&delta_d);
        for (qj, &s) in q.iter_mut().zip(&delta_d) {
            *qj *= s;
        }
        a.scale_cols(&delta_d);
        a.scale_rows(&delta_e);
        scale_bounds(l, &delta_e);
        scale_bounds(u, &delta_e);
        for (dj, &s) in d.iter_mut().zip(&delta_d) {
            *dj *= s;
        }
        for (ei, &s) in e.iter_mut().zip(&delta_e) {
            *ei *= s;
        }

        // Cost normalization: γ = 1 / max(mean column norm of P, ‖q‖∞).
        let p_norms = p.sym_upper_col_norms_inf();
        let mean_p = if n > 0 {
            p_norms.iter().sum::<f64>() / n as f64
        } else {
            0.0
        };
        let q_norm = vector::norm_inf(q);
        let denom = mean_p.max(q_norm);
        let gamma = if denom > 0.0 {
            scaling_factor_linear(denom)
        } else {
            1.0
        };
        if gamma != 1.0 {
            for v in p.values_mut() {
                *v *= gamma;
            }
            for qj in q.iter_mut() {
                *qj *= gamma;
            }
            c *= gamma;
        }
    }

    let dinv = vector::ew_reci(&d);
    let einv = vector::ew_reci(&e);
    Scaling {
        cinv: 1.0 / c,
        c,
        d,
        e,
        dinv,
        einv,
    }
}

/// `1/sqrt(norm)` clamped to the allowed range; zero norms give 1.
fn scaling_factor(norm: f64) -> f64 {
    if norm == 0.0 {
        1.0
    } else {
        (1.0 / norm.sqrt()).clamp(MIN_SCALING, MAX_SCALING)
    }
}

/// `1/norm` clamped (used for the cost scaling, which is not square-rooted).
fn scaling_factor_linear(norm: f64) -> f64 {
    if norm == 0.0 {
        1.0
    } else {
        (1.0 / norm).clamp(MIN_SCALING, MAX_SCALING)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn badly_scaled() -> (CscMatrix, Vec<f64>, CscMatrix, Vec<f64>, Vec<f64>) {
        let p = CscMatrix::from_dense(2, 2, &[1e4, 0.0, 0.0, 1e-3])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(2, 2, &[1e3, 0.0, 0.0, 1e-2]);
        (p, vec![1e2, 1e-2], a, vec![0.0, 0.0], vec![1.0, 1e4])
    }

    #[test]
    fn equilibration_flattens_norms() {
        let (mut p, mut q, mut a, mut l, mut u) = badly_scaled();
        let before_spread = {
            let norms = a.row_norms_inf();
            norms.iter().copied().fold(0.0f64, f64::max)
                / norms.iter().copied().fold(f64::INFINITY, f64::min)
        };
        ruiz_equilibrate(&mut p, &mut q, &mut a, &mut l, &mut u, 10);
        let after = a.row_norms_inf();
        let after_spread = after.iter().copied().fold(0.0f64, f64::max)
            / after.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            after_spread < before_spread / 100.0,
            "row norm spread {after_spread} not reduced from {before_spread}"
        );
        for &v in &after {
            assert!(v > 0.05 && v < 20.0, "row norm {v} far from 1");
        }
    }

    #[test]
    fn zero_iters_is_identity() {
        let (mut p, mut q, mut a, mut l, mut u) = badly_scaled();
        let p0 = p.clone();
        let s = ruiz_equilibrate(&mut p, &mut q, &mut a, &mut l, &mut u, 0);
        assert_eq!(p, p0);
        assert_eq!(s, Scaling::identity(2, 2));
    }

    #[test]
    fn unscaling_round_trips() {
        let (mut p, mut q, mut a, mut l, mut u) = badly_scaled();
        let x_orig = vec![0.3, -0.7];
        let ax_orig = a.mul_vec(&x_orig);
        let s = ruiz_equilibrate(&mut p, &mut q, &mut a, &mut l, &mut u, 10);
        // Scaled x̄ = D⁻¹ x; unscale must recover x.
        let x_scaled = vector::ew_prod(&s.dinv, &x_orig);
        let back = s.unscale_x(&x_scaled);
        for (u0, v0) in back.iter().zip(&x_orig) {
            assert!((u0 - v0).abs() < 1e-12);
        }
        // Ā x̄ = E A x; unscale_z(E A x) must equal A x.
        let ax_scaled = a.mul_vec(&x_scaled);
        let ax_back = s.unscale_z(&ax_scaled);
        for (u0, v0) in ax_back.iter().zip(&ax_orig) {
            assert!((u0 - v0).abs() < 1e-9, "{u0} vs {v0}");
        }
    }

    #[test]
    fn infinite_bounds_survive_scaling() {
        let mut p = CscMatrix::identity(1);
        let mut q = vec![1.0];
        let mut a = CscMatrix::from_dense(2, 1, &[1e4, 1.0]);
        let mut l = vec![-2e30, 0.0];
        let mut u = vec![1.0, 2e30];
        ruiz_equilibrate(&mut p, &mut q, &mut a, &mut l, &mut u, 10);
        assert!(
            l[0] <= -INFTY,
            "infinite lower bound was corrupted: {}",
            l[0]
        );
        assert!(
            u[1] >= INFTY,
            "infinite upper bound was corrupted: {}",
            u[1]
        );
        assert!(u[0].is_finite() && u[0].abs() < INFTY);
    }

    #[test]
    fn scaling_factors_are_clamped() {
        assert_eq!(scaling_factor(0.0), 1.0);
        assert_eq!(scaling_factor(1e-30), MAX_SCALING);
        assert_eq!(scaling_factor(1e30), MIN_SCALING);
        assert!((scaling_factor(4.0) - 0.5).abs() < 1e-15);
    }
}
