//! The indirect backend's assembled reduced operator
//! `S = P + σI + Aᵀ diag(ρ) A`.
//!
//! * one product by the assembled `S` equals the matrix-free product to
//!   rounding, on random QPs;
//! * a `ρ` update re-evaluates `S` from its base values, so after any
//!   sequence of updates the values — and the PCG solves that read them —
//!   are bitwise those of a fresh backend built with the final `ρ`;
//! * the size guard keeps dense-row problems matrix-free, with the
//!   iteration counts they had before `S` was ever assembled.

use mib::problems::{instance, portfolio, random_qp, Domain};
use mib::qp::linsys::{IndirectKkt, ASSEMBLY_FILL_LIMIT};
use mib::qp::profile::Profile;
use mib::qp::{KktBackend, Problem, Settings, SolveWorkspace, Solver, Status};
use proptest::prelude::*;

const SIGMA: f64 = 1e-6;

fn backend(problem: &Problem, rho: &[f64]) -> IndirectKkt {
    let mut kkt = IndirectKkt::new(problem.p(), problem.a(), SIGMA, rho, 1e-12);
    kkt.set_tolerance(1e-10);
    kkt
}

/// Per-constraint step sizes in `[1e-3, 1e3)`, from `seed`.
fn rho_vec(m: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..m)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            10f64.powf(6.0 * (state >> 11) as f64 / (1u64 << 53) as f64 - 3.0)
        })
        .collect()
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |acc, x| acc.max(x.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One `spmv_t_into` by the assembled `S` is the matrix-free product
    /// `P·v + σv + Aᵀ(ρ∘Av)` to within `1e-12·‖S·v‖∞`.
    #[test]
    fn assembled_product_matches_matrix_free(
        n in 2usize..14,
        m in 1usize..18,
        density in 0.1f64..0.7,
        seed in 0u64..10_000,
    ) {
        let problem = random_qp(n, m, density, seed);
        let kkt = backend(&problem, &rho_vec(m, seed));
        let nnz_bound = ASSEMBLY_FILL_LIMIT * (problem.p().nnz() + problem.a().nnz()) + n;
        // The structural pattern of P (mirrored) + I + AᵀA, densely.
        let mut pattern = vec![false; n * n];
        for (i, j, _) in problem.p().iter() {
            pattern[i * n + j] = true;
            pattern[j * n + i] = true;
        }
        for j in 0..n {
            pattern[j * n + j] = true;
        }
        let a = problem.a().to_dense();
        for row in a.chunks(n) {
            for j in (0..n).filter(|&j| row[j] != 0.0) {
                for k in (0..n).filter(|&k| row[k] != 0.0) {
                    pattern[j * n + k] = true;
                }
            }
        }
        let nnz_s = pattern.iter().filter(|&&p| p).count();
        prop_assert_eq!(kkt.reduced_matrix().is_some(), nnz_s <= nnz_bound);
        let Some(s) = kkt.reduced_matrix() else {
            return Ok(());
        };
        prop_assert_eq!(s.nnz(), nnz_s);
        let v: Vec<f64> = rho_vec(n, seed ^ 0x5eed).iter().map(|r| r.ln()).collect();
        let mut assembled = vec![0.0; n];
        s.spmv_t_into(&v, &mut assembled);
        let mut matrix_free = vec![0.0; n];
        let mut az = vec![0.0; m];
        kkt.apply_matrix_free(&v, &mut matrix_free, &mut az);
        let tol = 1e-12 * norm_inf(&matrix_free);
        for (got, want) in assembled.iter().zip(&matrix_free) {
            prop_assert!((got - want).abs() <= tol, "{} vs {}", got, want);
        }
    }

    /// After a sequence of `ρ` updates the assembled values and the PCG
    /// answer (which also reads the `1/diag(S)` preconditioner) are
    /// bitwise those of a fresh backend built with the last `ρ`.
    #[test]
    fn rho_updates_reproduce_a_fresh_backend_bitwise(
        n in 2usize..12,
        m in 1usize..14,
        updates in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let problem = random_qp(n, m, 0.3, seed);
        let mut updated = backend(&problem, &rho_vec(m, seed));
        if updated.reduced_matrix().is_none() {
            return Ok(());
        }
        let mut last = Vec::new();
        for k in 0..updates {
            last = rho_vec(m, seed.wrapping_add(k as u64 + 1));
            updated.update_rho(&last, &mut Profile::default());
        }
        let mut fresh = backend(&problem, &last);
        let bits = |k: &IndirectKkt| -> Vec<u64> {
            k.reduced_matrix().unwrap().values().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(&updated), bits(&fresh));

        let mut answers = Vec::new();
        for kkt in [&mut updated, &mut fresh] {
            let mut ws = SolveWorkspace::new(n, m);
            ws.rhs_x.copy_from_slice(problem.q());
            ws.rhs_z.copy_from_slice(problem.u());
            kkt.solve(&mut ws, &mut Profile::default());
            answers.push((ws.xtilde.clone(), ws.nu.clone()));
        }
        prop_assert_eq!(&answers[0], &answers[1]);
    }
}

/// The size guard on the suite: every domain with sparse rows assembles,
/// and portfolio's dense budget row `1ᵀx = 1` keeps it matrix-free.
#[test]
fn suite_instances_assemble_except_dense_row_portfolio() {
    for domain in Domain::all() {
        let problem = instance(domain, 1).problem;
        let kkt = backend(&problem, &vec![0.1; problem.num_constraints()]);
        assert_eq!(
            kkt.reduced_matrix().is_some(),
            domain != Domain::Portfolio,
            "{domain}[1]"
        );
    }
}

/// A dense-row instance stays matrix-free, and its counts are pinned (115
/// ADMM and 614 PCG iterations).
#[test]
fn dense_row_portfolio_stays_matrix_free_with_unchanged_counts() {
    let problem = portfolio(30, 5, 7);
    let kkt = backend(&problem, &vec![0.1; problem.num_constraints()]);
    assert!(kkt.reduced_matrix().is_none());
    let result = Solver::new(problem, Settings::with_backend(KktBackend::Indirect))
        .expect("setup")
        .solve();
    assert_eq!(result.status, Status::Solved);
    assert_eq!(result.iterations, 115);
    assert_eq!(result.profile.pcg_iters, 614);
}
