//! Benchmark problem generators for the five application domains the paper
//! evaluates (Section II.E / Figure 3): portfolio optimization, Lasso,
//! Huber fitting, model predictive control (MPC) and support vector
//! machines (SVM) — the OSQP benchmark suite \[38\] — plus random QPs.
//!
//! Each generator reduces its domain problem to the standard form
//! `min ½xᵀPx + qᵀx  s.t.  l ≤ Ax ≤ u`, preserving the domain's canonical
//! block sparsity structure (the "inherent structures of specific
//! application domains … preserved as sparsity patterns", Section I):
//! the portfolio constraint matrix is the half-arrow of Figure 2, MPC is
//! block-banded along the horizon, and the regression/classification
//! domains are tall data-matrix blocks with identity couplings.
//!
//! Each [`Domain`] has a 20-instance suite of growing size (parameterized
//! by total nonzeros, like the paper's benchmark), generated
//! deterministically from fixed seeds. Instance sizes are scaled to
//! simulator-friendly dimensions — see DESIGN.md §1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generators;
mod mpc;

pub use generators::{huber, lasso, portfolio, random_qp, svm};
pub use mpc::{mpc, MpcInstance};

use mib_qp::Problem;

/// The five benchmark application domains of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Risk-adjusted portfolio optimization (equation (4) of the paper).
    Portfolio,
    /// ℓ₁-regularized least squares.
    Lasso,
    /// Robust (Huber-loss) regression.
    Huber,
    /// Linear model predictive control.
    Mpc,
    /// Support vector machine training (hinge loss).
    Svm,
}

impl Domain {
    /// All five domains in the paper's order.
    pub fn all() -> [Domain; 5] {
        [
            Domain::Portfolio,
            Domain::Lasso,
            Domain::Huber,
            Domain::Mpc,
            Domain::Svm,
        ]
    }

    /// Lowercase domain name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Portfolio => "portfolio",
            Domain::Lasso => "lasso",
            Domain::Huber => "huber",
            Domain::Mpc => "mpc",
            Domain::Svm => "svm",
        }
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One benchmark instance: a generated problem plus its provenance.
#[derive(Debug, Clone)]
pub struct BenchmarkInstance {
    /// Source domain.
    pub domain: Domain,
    /// Index within the 20-instance suite (0 = smallest).
    pub index: usize,
    /// Human-readable size parameters.
    pub params: String,
    /// The standard-form problem.
    pub problem: Problem,
}

/// Number of instances per domain (as in the paper's suite).
pub const INSTANCES_PER_DOMAIN: usize = 20;

/// Generates instance `index` (0..20) of a domain's suite.
///
/// # Panics
///
/// Panics if `index >= INSTANCES_PER_DOMAIN`.
pub fn instance(domain: Domain, index: usize) -> BenchmarkInstance {
    assert!(
        index < INSTANCES_PER_DOMAIN,
        "suite has {INSTANCES_PER_DOMAIN} instances"
    );
    let seed = 1000 * (domain as u64 + 1) + index as u64;
    // Geometric size growth across the suite.
    let scale = |lo: f64, hi: f64| -> usize {
        let t = index as f64 / (INSTANCES_PER_DOMAIN - 1) as f64;
        (lo * (hi / lo).powf(t)).round() as usize
    };
    let (problem, params) = match domain {
        Domain::Portfolio => {
            let n = scale(20.0, 360.0);
            let k = (n / 10).max(2);
            (portfolio(n, k, seed), format!("n={n} k={k}"))
        }
        Domain::Lasso => {
            let n = scale(8.0, 120.0);
            let m = 3 * n;
            (lasso(n, m, seed), format!("n={n} m={m}"))
        }
        Domain::Huber => {
            let n = scale(8.0, 100.0);
            let m = 3 * n;
            (huber(n, m, seed), format!("n={n} m={m}"))
        }
        Domain::Mpc => {
            let nx = scale(3.0, 24.0);
            let nu = (nx / 2).max(1);
            let horizon = 10;
            (
                mpc(nx, nu, horizon, seed).problem,
                format!("nx={nx} nu={nu} T={horizon}"),
            )
        }
        Domain::Svm => {
            let n = scale(10.0, 140.0);
            let m = 2 * n;
            (svm(n, m, seed), format!("n={n} m={m}"))
        }
    };
    BenchmarkInstance {
        domain,
        index,
        params,
        problem,
    }
}

/// The full 20-instance suite for one domain.
pub fn suite(domain: Domain) -> Vec<BenchmarkInstance> {
    (0..INSTANCES_PER_DOMAIN)
        .map(|i| instance(domain, i))
        .collect()
}

/// The full 100-problem benchmark (5 domains × 20 instances).
pub fn full_suite() -> Vec<BenchmarkInstance> {
    Domain::all().into_iter().flat_map(suite).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_instance_is_valid_and_deterministic() {
        for domain in Domain::all() {
            for index in [0, 7, INSTANCES_PER_DOMAIN - 1] {
                let a = instance(domain, index);
                let b = instance(domain, index);
                assert_eq!(a.problem, b.problem, "{domain} {index} not deterministic");
                assert!(a.problem.num_vars() > 0);
                assert!(a.problem.num_constraints() > 0);
            }
        }
    }

    #[test]
    fn suites_grow_in_nnz() {
        for domain in Domain::all() {
            let s = suite(domain);
            assert_eq!(s.len(), INSTANCES_PER_DOMAIN);
            let first = s.first().unwrap().problem.total_nnz();
            let last = s.last().unwrap().problem.total_nnz();
            assert!(
                last > 4 * first,
                "{domain}: nnz {first} -> {last} does not grow enough"
            );
        }
    }

    #[test]
    fn full_suite_has_100_problems() {
        assert_eq!(full_suite().len(), 100);
    }
}
