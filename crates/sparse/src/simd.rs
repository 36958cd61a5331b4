//! The hot kernels, written once in **one canonical reduction order**.
//!
//! Every hot `_into` kernel in this crate (and the ADMM/PDQP stage loops
//! in `mib-qp`) routes through the free functions in this module. Each is
//! plain safe Rust, chunked so that LLVM vectorizes it to whatever the
//! build target offers; there is one body per kernel and no runtime
//! dispatch. The order of floating-point operations below is what defines
//! the bits of every committed answer (pooled ≡ fresh, parallel ≡
//! sequential, wire ≡ in-process, the golden suites), so it is fixed:
//!
//! * **Canonical reduction order.** Reductions accumulate into
//!   `LANES` = 4 independent lanes over the full 4-chunks
//!   (`acc[l] += term(4c + l)`), combine the lanes as
//!   `(acc[0] + acc[2]) + (acc[1] + acc[3])`, and fold the remainder
//!   sequentially *after* the combine. Do not rewrite a loop as
//!   `iter().sum()`: that is a different sequence of additions.
//! * **No FMA.** Multiply then add as separate (exactly rounded)
//!   operations; fused multiply-add would change the bits.
//! * **Canonical min/max.** [`cmax`]/[`cmin`] (`max(a,b) = a > b ? a : b`,
//!   the `maxpd`/`minpd` rule) fix the NaN/±0 semantics and are used
//!   instead of `f64::max`/`f64::min`, which differ on both.
//! * **Scatter order.** Sparse updates are applied in index order, so
//!   even duplicate indices (which cannot occur in CSC columns) have one
//!   defined result.
//!
//! A second, wide-vector body for any kernel must win end to end at the
//! problem sizes served (n ≤ 260) before it is added; DESIGN.md §13 has
//! the measurements that removed the last one.

/// Number of `f64` lanes every reduction chunks by.
const LANES: usize = 4;

/// Canonical maximum: `if a > b { a } else { b }` (so the second operand
/// wins on NaN and on ±0 ties). Used by every max-reduction and
/// projection.
#[inline(always)]
pub fn cmax(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Canonical minimum: `if a < b { a } else { b }`.
#[inline(always)]
pub fn cmin(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

// ---------------------------------------------------------------------------
// Reductions (canonical lane-chunked order).
// ---------------------------------------------------------------------------

/// Dot product `Σ x[i]·y[i]` in the canonical reduction order.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let n = x.len();
    let c4 = n - n % LANES;
    let mut acc = [0.0f64; LANES];
    for base in (0..c4).step_by(LANES) {
        for l in 0..LANES {
            acc[l] += x[base + l] * y[base + l];
        }
    }
    let mut s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for i in c4..n {
        s += x[i] * y[i];
    }
    s
}

/// `max |x[i]|` (canonical max semantics; `0.0` for an empty slice).
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    let n = x.len();
    let c4 = n - n % LANES;
    let mut acc = [0.0f64; LANES];
    for base in (0..c4).step_by(LANES) {
        for l in 0..LANES {
            acc[l] = cmax(acc[l], x[base + l].abs());
        }
    }
    let mut m = cmax(cmax(acc[0], acc[2]), cmax(acc[1], acc[3]));
    for &v in &x[c4..] {
        m = cmax(m, v.abs());
    }
    m
}

/// `max |a[i] - b[i]|`.
#[inline]
pub fn norm_inf_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "norm_inf_diff: length mismatch");
    let n = a.len();
    let c4 = n - n % LANES;
    let mut acc = [0.0f64; LANES];
    for base in (0..c4).step_by(LANES) {
        for l in 0..LANES {
            acc[l] = cmax(acc[l], (a[base + l] - b[base + l]).abs());
        }
    }
    let mut m = cmax(cmax(acc[0], acc[2]), cmax(acc[1], acc[3]));
    for i in c4..n {
        m = cmax(m, (a[i] - b[i]).abs());
    }
    m
}

/// `max |(a[i] + b[i]) + c[i]|` — the ADMM/PDQP dual-residual reduction,
/// fused so the three-term sum is formed once per element.
#[inline]
pub fn norm_inf_sum3(a: &[f64], b: &[f64], c: &[f64]) -> f64 {
    let n = a.len();
    assert!(
        b.len() == n && c.len() == n,
        "norm_inf_sum3: length mismatch"
    );
    let c4 = n - n % LANES;
    let mut acc = [0.0f64; LANES];
    for base in (0..c4).step_by(LANES) {
        for (l, a_l) in acc.iter_mut().enumerate() {
            let i = base + l;
            *a_l = cmax(*a_l, ((a[i] + b[i]) + c[i]).abs());
        }
    }
    let mut m = cmax(cmax(acc[0], acc[2]), cmax(acc[1], acc[3]));
    for i in c4..n {
        m = cmax(m, ((a[i] + b[i]) + c[i]).abs());
    }
    m
}

/// `(max |w[i]·(a[i] − b[i])|, max |w[i]·b[i]|)` in one pass — a weighted
/// step and the weighted norm it is judged against (the ADMM pre-test).
#[inline]
pub fn norm_inf_weighted_step(w: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    let n = w.len();
    assert!(
        a.len() == n && b.len() == n,
        "norm_inf_weighted_step: length mismatch"
    );
    let c4 = n - n % LANES;
    let mut step = [0.0f64; LANES];
    let mut norm = [0.0f64; LANES];
    for base in (0..c4).step_by(LANES) {
        for l in 0..LANES {
            let i = base + l;
            step[l] = cmax(step[l], (w[i] * (a[i] - b[i])).abs());
            norm[l] = cmax(norm[l], (w[i] * b[i]).abs());
        }
    }
    let mut s = cmax(cmax(step[0], step[2]), cmax(step[1], step[3]));
    let mut m = cmax(cmax(norm[0], norm[2]), cmax(norm[1], norm[3]));
    for i in c4..n {
        s = cmax(s, (w[i] * (a[i] - b[i])).abs());
        m = cmax(m, (w[i] * b[i]).abs());
    }
    (s, m)
}

// ---------------------------------------------------------------------------
// Sparse primitives.
// ---------------------------------------------------------------------------

/// Sparse dot `Σ vals[k]·x[idx[k]]` in the canonical reduction order.
#[inline]
pub fn gather_dot(vals: &[f64], idx: &[usize], x: &[f64]) -> f64 {
    assert_eq!(vals.len(), idx.len(), "gather_dot: length mismatch");
    let n = vals.len();
    let c4 = n - n % LANES;
    let mut acc = [0.0f64; LANES];
    for base in (0..c4).step_by(LANES) {
        for l in 0..LANES {
            acc[l] += vals[base + l] * x[idx[base + l]];
        }
    }
    let mut s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for k in c4..n {
        s += vals[k] * x[idx[k]];
    }
    s
}

/// Sparse update `y[idx[k]] += vals[k]·s` for every `k`, in index order.
#[inline]
pub fn scatter_axpy(y: &mut [f64], idx: &[usize], vals: &[f64], s: f64) {
    assert_eq!(vals.len(), idx.len(), "scatter_axpy: length mismatch");
    for (&v, &i) in vals.iter().zip(idx) {
        y[i] += v * s;
    }
}

// ---------------------------------------------------------------------------
// Elementwise kernels. No cross-element order to preserve: each formula is
// evaluated exactly as written, per element.
// ---------------------------------------------------------------------------

macro_rules! assert_same_len {
    ($name:literal, $n:expr $(, $s:expr)+) => {
        assert!($( $s.len() == $n )&&+, concat!($name, ": length mismatch"));
    };
}

/// `y[i] += a·x[i]`.
#[inline]
pub fn axpy_into(y: &mut [f64], a: f64, x: &[f64]) {
    assert_same_len!("axpy_into", y.len(), x);
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `v0[i] = s0·v0[i] + s1·v1[i]`.
#[inline]
pub fn axpby_into(s0: f64, v0: &mut [f64], s1: f64, v1: &[f64]) {
    assert_same_len!("axpby_into", v0.len(), v1);
    for (a, &b) in v0.iter_mut().zip(v1) {
        *a = s0 * *a + s1 * b;
    }
}

/// `out[i] = a[i]·b[i]`.
#[inline]
pub fn ew_prod_into(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_same_len!("ew_prod_into", out.len(), a, b);
    for i in 0..out.len() {
        out[i] = a[i] * b[i];
    }
}

/// `out[i] = (a[i]·b[i])·s`.
#[inline]
pub fn prod_scale_into(out: &mut [f64], a: &[f64], b: &[f64], s: f64) {
    assert_same_len!("prod_scale_into", out.len(), a, b);
    for i in 0..out.len() {
        out[i] = (a[i] * b[i]) * s;
    }
}

/// `x[i] *= w[i]`.
#[inline]
pub fn mul_assign(x: &mut [f64], w: &[f64]) {
    assert_same_len!("mul_assign", x.len(), w);
    for (a, &b) in x.iter_mut().zip(w) {
        *a *= b;
    }
}

/// `y[i] += x[i]`.
#[inline]
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    assert_same_len!("add_assign", y.len(), x);
    for (a, &b) in y.iter_mut().zip(x) {
        *a += b;
    }
}

/// `out[i] = a[i] - b[i]`.
#[inline]
pub fn sub_into(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_same_len!("sub_into", out.len(), a, b);
    for i in 0..out.len() {
        out[i] = a[i] - b[i];
    }
}

/// `out[i] = -a[i]` (sign-bit flip, exact).
#[inline]
pub fn neg_into(out: &mut [f64], a: &[f64]) {
    assert_same_len!("neg_into", out.len(), a);
    for i in 0..out.len() {
        out[i] = -a[i];
    }
}

/// `out[i] = x[i] / t` (true IEEE division — not a reciprocal multiply).
#[inline]
pub fn div_scale_into(out: &mut [f64], x: &[f64], t: f64) {
    assert_same_len!("div_scale_into", out.len(), x);
    for i in 0..out.len() {
        out[i] = x[i] / t;
    }
}

/// `out[i] = s·x[i] - y[i]`.
#[inline]
pub fn sax_sub_into(out: &mut [f64], s: f64, x: &[f64], y: &[f64]) {
    assert_same_len!("sax_sub_into", out.len(), x, y);
    for i in 0..out.len() {
        out[i] = s * x[i] - y[i];
    }
}

/// `out[i] = a[i] - w[i]·b[i]`.
#[inline]
pub fn sub_prod_into(out: &mut [f64], a: &[f64], w: &[f64], b: &[f64]) {
    assert_same_len!("sub_prod_into", out.len(), a, w, b);
    for i in 0..out.len() {
        out[i] = a[i] - w[i] * b[i];
    }
}

/// `out[i] = a[i] + w[i]·(b[i] - c[i])`.
#[inline]
pub fn add_prod_diff_into(out: &mut [f64], a: &[f64], w: &[f64], b: &[f64], c: &[f64]) {
    assert_same_len!("add_prod_diff_into", out.len(), a, w, b, c);
    for i in 0..out.len() {
        out[i] = a[i] + w[i] * (b[i] - c[i]);
    }
}

/// `out[i] = w[i]·(b[i] - c[i])`.
#[inline]
pub fn prod_diff_into(out: &mut [f64], w: &[f64], b: &[f64], c: &[f64]) {
    assert_same_len!("prod_diff_into", out.len(), w, b, c);
    for i in 0..out.len() {
        out[i] = w[i] * (b[i] - c[i]);
    }
}

/// Over-relaxation + delta capture (ADMM x-update):
/// `x_new = α·xt[i] + (1-α)·x[i]`, `delta[i] = x_new - x[i]`,
/// `x[i] = x_new`.
#[inline]
pub fn relax_delta_into(x: &mut [f64], delta: &mut [f64], alpha: f64, xt: &[f64]) {
    assert_same_len!("relax_delta_into", x.len(), delta, xt);
    let beta = 1.0 - alpha;
    for i in 0..x.len() {
        let x_new = alpha * xt[i] + beta * x[i];
        delta[i] = x_new - x[i];
        x[i] = x_new;
    }
}

/// Over-relaxation + box projection (ADMM z-update):
/// `zr = α·zt[i] + (1-α)·z[i]`, `z_rel[i] = zr`,
/// `z[i] = clamp(zr + w[i]·y[i], l[i], u[i])` with canonical min/max.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn relax_project_into(
    z: &mut [f64],
    z_rel: &mut [f64],
    alpha: f64,
    zt: &[f64],
    w: &[f64],
    y: &[f64],
    l: &[f64],
    u: &[f64],
) {
    assert_same_len!("relax_project_into", z.len(), z_rel, zt, w, y, l, u);
    let beta = 1.0 - alpha;
    for i in 0..z.len() {
        let zr = alpha * zt[i] + beta * z[i];
        z_rel[i] = zr;
        let v = zr + w[i] * y[i];
        z[i] = cmin(cmax(v, l[i]), u[i]);
    }
}

/// Scaled-difference update + delta capture (ADMM y-update):
/// `y_new = y[i] + w[i]·(b[i] - c[i])`, `delta[i] = y_new - y[i]`,
/// `y[i] = y_new`.
#[inline]
pub fn scaled_diff_update_into(y: &mut [f64], delta: &mut [f64], w: &[f64], b: &[f64], c: &[f64]) {
    assert_same_len!("scaled_diff_update_into", y.len(), delta, w, b, c);
    for i in 0..y.len() {
        let y_new = y[i] + w[i] * (b[i] - c[i]);
        delta[i] = y_new - y[i];
        y[i] = y_new;
    }
}

/// In-place box projection `x[i] = clamp(x[i], l[i], u[i])` with
/// canonical min/max (`cmin(cmax(x, l), u)`).
#[inline]
pub fn project_box_into(x: &mut [f64], l: &[f64], u: &[f64]) {
    assert_same_len!("project_box_into", x.len(), l, u);
    for i in 0..x.len() {
        x[i] = cmin(cmax(x[i], l[i]), u[i]);
    }
}

/// Out-of-place box projection `out[i] = clamp(v[i], l[i], u[i])`.
#[inline]
pub fn clamp_into(out: &mut [f64], v: &[f64], l: &[f64], u: &[f64]) {
    assert_same_len!("clamp_into", out.len(), v, l, u);
    for i in 0..out.len() {
        out[i] = cmin(cmax(v[i], l[i]), u[i]);
    }
}

/// PDQP gradient step + extrapolation:
/// `x_new = x[i] - τ·((g1[i] + g2[i]) + g3[i])`, `xt[i] = x_new`,
/// `ext[i] = 2·x_new - x[i]`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn grad_step_into(
    xt: &mut [f64],
    ext: &mut [f64],
    x: &[f64],
    tau: f64,
    g1: &[f64],
    g2: &[f64],
    g3: &[f64],
) {
    assert_same_len!("grad_step_into", xt.len(), ext, x, g1, g2, g3);
    for i in 0..xt.len() {
        let x_new = x[i] - tau * ((g1[i] + g2[i]) + g3[i]);
        xt[i] = x_new;
        ext[i] = 2.0 * x_new - x[i];
    }
}

/// PDQP dual Moreau step:
/// `w = y[i] + σ·ax[i]`, `t = clamp(w/σ, l[i], u[i])`, `zt[i] = t`,
/// `y[i] = w - σ·t`.
#[inline]
pub fn moreau_into(y: &mut [f64], zt: &mut [f64], sigma: f64, ax: &[f64], l: &[f64], u: &[f64]) {
    assert_same_len!("moreau_into", y.len(), zt, ax, l, u);
    for i in 0..y.len() {
        let w = y[i] + sigma * ax[i];
        let t = cmin(cmax(w / sigma, l[i]), u[i]);
        zt[i] = t;
        y[i] = w - sigma * t;
    }
}

/// PCG direction update `p[i] = -d[i] + μ·p[i]`.
#[inline]
pub fn update_dir_into(p: &mut [f64], d: &[f64], mu: f64) {
    assert_same_len!("update_dir_into", p.len(), d);
    for i in 0..p.len() {
        p[i] = -d[i] + mu * p[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic xorshift64* stream mapped into [-1, 1].
        let mut s = seed.wrapping_mul(2685821657736338717).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                #[allow(clippy::cast_precision_loss)]
                let u = (s >> 11) as f64 / (1u64 << 53) as f64;
                2.0 * u - 1.0
            })
            .collect()
    }

    #[test]
    fn short_vectors_match_sequential_sums() {
        // For n < LANES the canonical order degenerates to the plain
        // sequential sum (lane accumulators stay zero).
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 1.0 * 4.0 + 2.0 * 5.0 + 3.0 * 6.0);
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn canonical_order_is_lane_chunked() {
        let x = data(11, 7);
        let y = data(11, 9);
        let mut acc = [0.0f64; LANES];
        for base in (0..8).step_by(LANES) {
            for l in 0..LANES {
                acc[l] += x[base + l] * y[base + l];
            }
        }
        let mut want = (acc[0] + acc[2]) + (acc[1] + acc[3]);
        for i in 8..11 {
            want += x[i] * y[i];
        }
        assert_eq!(dot(&x, &y).to_bits(), want.to_bits());
    }

    #[test]
    fn gather_respects_non_contiguous_indices() {
        let x = data(64, 11);
        let vals = data(8, 13);
        let idx = [0usize, 9, 18, 27, 36, 45, 54, 63];
        let want: f64 = {
            let mut acc = [0.0f64; LANES];
            for base in (0..8).step_by(LANES) {
                for l in 0..LANES {
                    acc[l] += vals[base + l] * x[idx[base + l]];
                }
            }
            (acc[0] + acc[2]) + (acc[1] + acc[3])
        };
        assert_eq!(gather_dot(&vals, &idx, &x).to_bits(), want.to_bits());
    }

    #[test]
    fn cmax_cmin_match_vector_semantics() {
        // Second operand wins on ties and NaN — the maxpd/minpd rule.
        assert_eq!(cmax(0.0, -0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(cmin(-0.0, 0.0).to_bits(), (0.0f64).to_bits());
        assert!(cmax(1.0, f64::NAN).is_nan());
        assert_eq!(cmax(f64::NAN, 1.0), 1.0);
    }

    #[test]
    fn weighted_step_norms_match_elementwise_maxima() {
        for n in [0, 3, 4, 11] {
            let w = data(n, 17);
            let a = data(n, 19);
            let b = data(n, 23);
            let mut want = (0.0f64, 0.0f64);
            for i in 0..n {
                want.0 = want.0.max((w[i] * (a[i] - b[i])).abs());
                want.1 = want.1.max((w[i] * b[i]).abs());
            }
            assert_eq!(norm_inf_weighted_step(&w, &a, &b), want, "n = {n}");
        }
    }
}
