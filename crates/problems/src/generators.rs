//! Standard-form reductions for the non-MPC domains.

use mib_qp::{Problem, INFTY};
use mib_sparse::{block_diag, hstack, vstack, CscMatrix, TripletMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random sparse matrix with the given density, entries `N(0,1)`-ish
/// (uniform on [-1, 1] scaled).
fn sprandn(rng: &mut StdRng, nrows: usize, ncols: usize, density: f64) -> CscMatrix {
    let mut t = TripletMatrix::new(nrows, ncols);
    for i in 0..nrows {
        for j in 0..ncols {
            if rng.gen::<f64>() < density {
                t.push(i, j, rng.gen_range(-1.0..1.0)).expect("in bounds");
            }
        }
    }
    CscMatrix::from_triplets(&t).expect("valid triplets")
}

/// A generic random QP: `P = MMᵀ + αI` (positive definite), random sparse
/// `A`, bounds `l ≤ Ax ≤ u` with `l < u`.
pub fn random_qp(n: usize, m: usize, density: f64, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let msqrt = sprandn(&mut rng, n, n, density);
    // P = M Mᵀ + 0.1 I, upper triangle (dense gram at generator scale).
    let md = msqrt.to_dense();
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        for j in i..n {
            let mut acc = if i == j { 0.1 } else { 0.0 };
            for k in 0..n {
                acc += md[i * n + k] * md[j * n + k];
            }
            if acc != 0.0 {
                t.push(i, j, acc).expect("in bounds");
            }
        }
    }
    let p = CscMatrix::from_triplets(&t).expect("valid triplets");
    let a = sprandn(&mut rng, m, n, density.max(2.0 / n as f64));
    let q: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let (l, u): (Vec<f64>, Vec<f64>) = (0..m)
        .map(|_| {
            let c = rng.gen_range(-1.0..1.0);
            let w = rng.gen_range(0.1..1.0);
            (c - w, c + w)
        })
        .unzip();
    Problem::new(p, q, a, l, u).expect("generated problem is valid")
}

/// Portfolio optimization (equation (4) of the paper): `n` assets, `k`
/// factors. Variables `(x, y)` with `y = Fᵀx`; the constraint matrix is
/// the half-arrow pattern of Figure 2.
pub fn portfolio(n: usize, k: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let gamma = 1.0;
    // Objective: xᵀDx + yᵀy - γ⁻¹μᵀx with D diagonal asset-specific risk.
    let d_diag: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0f64).sqrt()).collect();
    // P = 2·blkdiag(D, I_k) (standard form has the 1/2 factor).
    let p_x = CscMatrix::from_diag(&d_diag.iter().map(|&v| 2.0 * v).collect::<Vec<_>>());
    let p_y = CscMatrix::from_diag(&vec![2.0; k]);
    let p = block_diag(&[&p_x, &p_y]).expect("diag blocks");
    let mu: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut q: Vec<f64> = mu.iter().map(|&m| -m / gamma).collect();
    q.extend(std::iter::repeat_n(0.0, k));
    // Factor loading matrix F (n × k), density 0.5.
    let f = sprandn(&mut rng, n, k, 0.5);
    // A = [ 1ᵀ  0 ]          (budget)
    //     [ Fᵀ -I ]          (factor model)
    //     [ I   0 ]          (long-only box)
    let ones = CscMatrix::from_dense(1, n, &vec![1.0; n]);
    let zeros_1k = CscMatrix::zeros(1, k);
    let ft = f.transpose();
    let neg_i = CscMatrix::from_diag(&vec![-1.0; k]);
    let eye_n = CscMatrix::identity(n);
    let zeros_nk = CscMatrix::zeros(n, k);
    let row1 = hstack(&[&ones, &zeros_1k]).expect("shapes");
    let row2 = hstack(&[&ft, &neg_i]).expect("shapes");
    let row3 = hstack(&[&eye_n, &zeros_nk]).expect("shapes");
    let a = vstack(&[&row1, &row2, &row3]).expect("shapes");
    let mut l = vec![1.0];
    l.extend(std::iter::repeat_n(0.0, k));
    l.extend(std::iter::repeat_n(0.0, n));
    let mut u = vec![1.0];
    u.extend(std::iter::repeat_n(0.0, k));
    u.extend(std::iter::repeat_n(1.0, n));
    Problem::new(p.upper_triangle().expect("square"), q, a, l, u)
        .expect("portfolio problem is valid")
}

/// Lasso: `min ‖Ad·x − b‖² + λ‖x‖₁` with `n` features and `m` samples.
/// Variables `(x, y, t)`: `y = Ad·x − b`, `−t ≤ x ≤ t`.
pub fn lasso(n: usize, m: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let ad = sprandn(&mut rng, m, n, 0.25);
    // Ground-truth sparse model and noisy observations.
    let x_true: Vec<f64> = (0..n)
        .map(|_| {
            if rng.gen::<f64>() < 0.5 {
                0.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
        .collect();
    let mut b = ad.mul_vec(&x_true);
    for v in &mut b {
        *v += 0.01 * rng.gen_range(-1.0..1.0);
    }
    let lambda = {
        // λ = (1/5)‖Adᵀb‖∞, the OSQP benchmark's choice.
        let atb = ad.tr_mul_vec(&b);
        0.2 * atb.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
    };
    // P = blkdiag(0_n, 2I_m, 0_n); q = [0; 0; λ1].
    let p = block_diag(&[
        &CscMatrix::zeros(n, n),
        &CscMatrix::from_diag(&vec![2.0; m]),
        &CscMatrix::zeros(n, n),
    ])
    .expect("diag blocks");
    let mut q = vec![0.0; n + m];
    q.extend(std::iter::repeat_n(lambda, n));
    // A = [ Ad -I  0 ]   l/u = b (equality)
    //     [ I   0 -I ]   -inf .. 0   (x - t <= 0)
    //     [ I   0  I ]   0 .. +inf   (x + t >= 0)
    let eye_n = CscMatrix::identity(n);
    let neg_eye_n = CscMatrix::from_diag(&vec![-1.0; n]);
    let neg_eye_m = CscMatrix::from_diag(&vec![-1.0; m]);
    let row1 = hstack(&[&ad, &neg_eye_m, &CscMatrix::zeros(m, n)]).expect("shapes");
    let row2 = hstack(&[&eye_n, &CscMatrix::zeros(n, m), &neg_eye_n]).expect("shapes");
    let row3 = hstack(&[&eye_n, &CscMatrix::zeros(n, m), &eye_n]).expect("shapes");
    let a = vstack(&[&row1, &row2, &row3]).expect("shapes");
    let mut l = b.clone();
    l.extend(std::iter::repeat_n(-2.0 * INFTY, n));
    l.extend(std::iter::repeat_n(0.0, n));
    let mut u = b;
    u.extend(std::iter::repeat_n(0.0, n));
    u.extend(std::iter::repeat_n(2.0 * INFTY, n));
    Problem::new(p.upper_triangle().expect("square"), q, a, l, u).expect("lasso problem is valid")
}

/// Huber fitting: `min Σ huber_M(aᵢᵀx − bᵢ)`. Variables `(x, u, r, s)`
/// with `Ad·x − u − r + s = b`, `r, s ≥ 0`:
/// `min uᵀu + 2M·1ᵀ(r + s)`.
pub fn huber(n: usize, m: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let ad = sprandn(&mut rng, m, n, 0.25);
    let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut b = ad.mul_vec(&x_true);
    // Corrupt a fraction of measurements with large outliers (the scenario
    // Huber loss exists for).
    for v in &mut b {
        *v += 0.01 * rng.gen_range(-1.0..1.0);
        if rng.gen::<f64>() < 0.05 {
            *v += rng.gen_range(-5.0..5.0);
        }
    }
    let m_huber = 1.0;
    let nv = n + m + m + m;
    // P = blkdiag(0_n, 2I_m, 0_m, 0_m).
    let p = block_diag(&[
        &CscMatrix::zeros(n, n),
        &CscMatrix::from_diag(&vec![2.0; m]),
        &CscMatrix::zeros(2 * m, 2 * m),
    ])
    .expect("diag blocks");
    let mut q = vec![0.0; n + m];
    q.extend(std::iter::repeat_n(2.0 * m_huber, 2 * m));
    debug_assert_eq!(q.len(), nv);
    // A = [ Ad -I -I  I ]  = b (equality)
    //     [ 0   0  I  0 ]  r >= 0
    //     [ 0   0  0  I ]  s >= 0
    let eye_m = CscMatrix::identity(m);
    let neg_eye_m = CscMatrix::from_diag(&vec![-1.0; m]);
    let row1 = hstack(&[&ad, &neg_eye_m, &neg_eye_m, &eye_m]).expect("shapes");
    let row2 = hstack(&[
        &CscMatrix::zeros(m, n),
        &CscMatrix::zeros(m, m),
        &eye_m,
        &CscMatrix::zeros(m, m),
    ])
    .expect("shapes");
    let row3 = hstack(&[
        &CscMatrix::zeros(m, n),
        &CscMatrix::zeros(m, m),
        &CscMatrix::zeros(m, m),
        &eye_m,
    ])
    .expect("shapes");
    let a = vstack(&[&row1, &row2, &row3]).expect("shapes");
    let mut l = b.clone();
    l.extend(std::iter::repeat_n(0.0, 2 * m));
    let mut u = b;
    u.extend(std::iter::repeat_n(2.0 * INFTY, 2 * m));
    Problem::new(p.upper_triangle().expect("square"), q, a, l, u).expect("huber problem is valid")
}

/// SVM training: `min xᵀx + γ·1ᵀt` s.t. `t ≥ 0`, `t ≥ 1 − diag(b)·Ad·x`
/// — hinge loss on `m` samples with `n` features. Samples form two
/// linearly-shifted clusters with labels ±1.
pub fn svm(n: usize, m: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    // Features: two clusters around ±0.5 per coordinate, sparse.
    let mut t = TripletMatrix::new(m, n);
    let mut labels = Vec::with_capacity(m);
    for i in 0..m {
        let label = if i < m / 2 { 1.0 } else { -1.0 };
        labels.push(label);
        for j in 0..n {
            if rng.gen::<f64>() < 0.3 {
                let center = 0.5 * label;
                t.push(i, j, center + rng.gen_range(-1.0..1.0))
                    .expect("in bounds");
            }
        }
    }
    let ad = CscMatrix::from_triplets(&t).expect("valid triplets");
    let gamma = 1.0;
    // Variables (x, t): P = blkdiag(2I_n, 0_m), q = [0; γ1].
    let p = block_diag(&[
        &CscMatrix::from_diag(&vec![2.0; n]),
        &CscMatrix::zeros(m, m),
    ])
    .expect("diag blocks");
    let mut q = vec![0.0; n];
    q.extend(std::iter::repeat_n(gamma, m));
    // A = [ diag(b)·Ad  I ]   >= 1
    //     [ 0           I ]   >= 0
    let mut bad = ad.clone();
    bad.scale_rows(&labels);
    let eye_m = CscMatrix::identity(m);
    let row1 = hstack(&[&bad, &eye_m]).expect("shapes");
    let row2 = hstack(&[&CscMatrix::zeros(m, n), &eye_m]).expect("shapes");
    let a = vstack(&[&row1, &row2]).expect("shapes");
    let mut l = vec![1.0; m];
    l.extend(std::iter::repeat_n(0.0, m));
    let u = vec![2.0 * INFTY; 2 * m];
    Problem::new(p.upper_triangle().expect("square"), q, a, l, u).expect("svm problem is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_qp::{KktBackend, Settings, Solver};

    fn solves(problem: Problem, backend: KktBackend) {
        let mut settings = Settings::with_backend(backend);
        settings.max_iter = 10_000;
        let r = Solver::new(problem, settings).unwrap().solve();
        assert!(r.status.is_solved(), "status: {}", r.status);
    }

    #[test]
    fn portfolio_solves_and_budget_holds() {
        let pr = portfolio(30, 4, 7);
        let settings = Settings {
            eps_abs: 1e-5,
            eps_rel: 1e-5,
            ..Settings::default()
        };
        let r = Solver::new(pr.clone(), settings).unwrap().solve();
        assert!(r.status.is_solved());
        // Budget: weights of the first n variables sum to 1.
        let n_assets = 30;
        let total: f64 = r.x[..n_assets].iter().sum();
        assert!((total - 1.0).abs() < 1e-2, "budget sum {total}");
        // Long-only.
        for &w in &r.x[..n_assets] {
            assert!(w > -1e-3, "short position {w}");
        }
    }

    #[test]
    fn portfolio_has_half_arrow_pattern() {
        let pr = portfolio(40, 4, 3);
        // First row of A is the dense budget row.
        let a = pr.a();
        let first_row_nnz = a.iter().filter(|&(i, _, _)| i == 0).count();
        assert_eq!(first_row_nnz, 40);
        // Bottom block is diagonal (identity).
        let m = a.nrows();
        for (i, j, v) in a.iter() {
            if i >= m - 40 {
                assert_eq!(j, i - (m - 40));
                assert_eq!(v, 1.0);
            }
        }
    }

    #[test]
    fn lasso_recovers_sparse_signal_shape() {
        let pr = lasso(10, 30, 11);
        solves(pr, KktBackend::Direct);
    }

    #[test]
    fn huber_solves_both_backends() {
        let pr = huber(8, 24, 13);
        solves(pr.clone(), KktBackend::Direct);
        solves(pr, KktBackend::Indirect);
    }

    #[test]
    fn svm_solves_and_separates() {
        let pr = svm(12, 24, 17);
        // Tighter than the default eps: the solve stops as soon as it
        // converges, and at 1e-3 that can leave a slack below -1e-3.
        let settings = Settings {
            max_iter: 10_000,
            eps_abs: 1e-4,
            eps_rel: 1e-4,
            ..Settings::default()
        };
        let r = Solver::new(pr.clone(), settings).unwrap().solve();
        assert!(r.status.is_solved());
        // Slack variables are nonnegative at optimum.
        let n = 12;
        for &t in &r.x[n..] {
            assert!(t > -1e-3);
        }
    }

    #[test]
    fn random_qp_solves() {
        let pr = random_qp(15, 10, 0.3, 19);
        solves(pr.clone(), KktBackend::Direct);
        solves(pr, KktBackend::Indirect);
    }

    #[test]
    fn lasso_objective_is_regularized_ls() {
        // The QP objective at the optimum equals ||Ad x - b||^2 + λ||x||_1
        // up to solver tolerance — checked structurally: y-part of solution
        // equals Ad x - b.
        let n = 6;
        let m = 18;
        let pr = lasso(n, m, 23);
        let settings = Settings {
            eps_abs: 1e-6,
            eps_rel: 1e-6,
            max_iter: 20_000,
            ..Settings::default()
        };
        let r = Solver::new(pr.clone(), settings).unwrap().solve();
        assert!(r.status.is_solved());
        // Equality rows: first m rows enforce Ad x - y = b.
        let viol = pr.constraint_violation(&r.x);
        assert!(viol < 1e-3, "constraint violation {viol}");
    }
}
