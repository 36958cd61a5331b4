//! Dense vector kernels used by the solver algorithm.
//!
//! These correspond one-to-one with the element-wise top-level instructions
//! of the MIB ISA (Table I of the paper): `norm_inf`, `ew_reci`, `ew_prod`,
//! `axpby`, `select_min`, `select_max`, plus the dot products and Euclidean
//! projection the ADMM loop needs.
//!
//! Every hot kernel here is a thin re-export of (or delegates to) the
//! implementations in [`crate::simd`] — the single
//! source of truth for the canonical lane-chunked reduction order and the
//! canonical min/max semantics. The allocating convenience wrappers
//! (`ew_prod`, `axpby`, `project_box`, ...) build their output through the
//! same kernels, so there is exactly one definition of every arithmetic
//! sequence in the crate.

pub use crate::simd::{
    add_assign, add_prod_diff_into, axpby_into, axpy_into, clamp_into, div_scale_into, dot,
    ew_prod_into, grad_step_into, moreau_into, mul_assign, neg_into, norm_inf, norm_inf_diff,
    norm_inf_sum3, norm_inf_weighted_step, prod_diff_into, prod_scale_into, project_box_into,
    relax_delta_into, relax_project_into, sax_sub_into, scaled_diff_update_into, sub_into,
    sub_prod_into, update_dir_into,
};

/// Euclidean norm `sqrt(sum x_i^2)` (canonical reduction order).
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Element-wise reciprocal `out_i = 1 / x_i` (`ew_reci`).
pub fn ew_reci(x: &[f64]) -> Vec<f64> {
    x.iter().map(|&v| 1.0 / v).collect()
}

/// Element-wise product `out_i = x_i * y_i` (`ew_prod`).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn ew_prod(x: &[f64], y: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    ew_prod_into(&mut out, x, y);
    out
}

/// Scaled sum `out = s0 * v0 + s1 * v1` (`axpby`).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpby(s0: f64, v0: &[f64], s1: f64, v1: &[f64]) -> Vec<f64> {
    let mut out = v0.to_vec();
    axpby_into(s0, &mut out, s1, v1);
    out
}

/// Element-wise maximum (`select_max`), with the canonical
/// [`cmax`](crate::simd::cmax) semantics.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn select_max(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "select_max length mismatch");
    x.iter()
        .zip(y)
        .map(|(&a, &b)| crate::simd::cmax(a, b))
        .collect()
}

/// Element-wise minimum (`select_min`), with the canonical
/// [`cmin`](crate::simd::cmin) semantics.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn select_min(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "select_min length mismatch");
    x.iter()
        .zip(y)
        .map(|(&a, &b)| crate::simd::cmin(a, b))
        .collect()
}

/// Euclidean projection of `x` onto the box `[l, u]`, element-wise
/// (the `Π(·)` operator in step 6 of the OSQP algorithm).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn project_box(x: &[f64], l: &[f64], u: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    clamp_into(&mut out, x, l, u);
    out
}

/// Geometric mean of strictly positive values; returns `f64::NAN` on an
/// empty slice.
///
/// The paper reports all cross-platform comparisons as geometric means.
pub fn geomean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return f64::NAN;
    }
    let s: f64 = x.iter().map(|&v| v.ln()).sum();
    (s / x.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        assert_eq!(norm_inf(&[1.0, -3.0, 2.0]), 3.0);
        assert_eq!(norm_inf(&[]), 0.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf_diff(&[1.0, 2.0], &[0.0, 5.0]), 3.0);
    }

    #[test]
    fn elementwise_ops() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(ew_reci(&[2.0, 4.0]), vec![0.5, 0.25]);
        assert_eq!(ew_prod(&[2.0, 3.0], &[4.0, -1.0]), vec![8.0, -3.0]);
        assert_eq!(axpby(2.0, &[1.0, 0.0], 3.0, &[0.0, 1.0]), vec![2.0, 3.0]);
        assert_eq!(select_max(&[1.0, 5.0], &[2.0, 3.0]), vec![2.0, 5.0]);
        assert_eq!(select_min(&[1.0, 5.0], &[2.0, 3.0]), vec![1.0, 3.0]);
    }

    #[test]
    fn axpby_into_matches_axpby() {
        let mut v = vec![1.0, -2.0];
        axpby_into(0.5, &mut v, 2.0, &[4.0, 4.0]);
        assert_eq!(v, axpby(0.5, &[1.0, -2.0], 2.0, &[4.0, 4.0]));
    }

    #[test]
    fn projection_clamps_to_box() {
        let p = project_box(&[-5.0, 0.5, 5.0], &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(p, vec![0.0, 0.5, 1.0]);
        // Projection is idempotent.
        assert_eq!(project_box(&p, &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]), p);
    }

    #[test]
    fn project_box_into_matches_allocating_form() {
        let mut x = vec![-5.0, 0.5, 5.0, 2.0, -1.0];
        let l = vec![0.0; 5];
        let u = vec![1.0; 5];
        let want = project_box(&x, &l, &u);
        project_box_into(&mut x, &l, &u);
        assert_eq!(x, want);
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }
}
