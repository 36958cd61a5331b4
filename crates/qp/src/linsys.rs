//! KKT linear-system backends: direct LDLᵀ and indirect PCG.
//!
//! Both backends solve the same abstract problem — given the right-hand side
//! `(r_x, r_z)` of equation (2), produce `(x̃, ν)` with
//!
//! ```text
//! [ P + σI   Aᵀ        ] [ x̃ ]   [ r_x ]
//! [ A       -diag(1/ρ) ] [ ν  ] = [ r_z ]
//! ```
//!
//! The direct backend ([`DirectKkt`]) factors the quasi-definite KKT matrix
//! once and refactors numerically when `ρ` changes. The indirect backend
//! ([`IndirectKkt`]) eliminates the second block row to get the positive
//! definite system `(P + σI + Aᵀ diag(ρ) A) x̃ = r_x + Aᵀ diag(ρ) r_z` and
//! runs Preconditioned Conjugate Gradient (Algorithm 2 of the paper) with a
//! Jacobi preconditioner, never forming `AᵀA` explicitly.
//!
//! Backends exchange vectors through the caller's [`SolveWorkspace`]: the
//! right-hand side arrives in [`SolveWorkspace::rhs_x`] /
//! [`SolveWorkspace::rhs_z`], the solution leaves in
//! [`SolveWorkspace::xtilde`] / [`SolveWorkspace::nu`], and all scratch
//! (the stacked direct-solve buffers, the PCG vectors) lives in the same
//! workspace. After construction neither backend allocates on the solve or
//! `ρ`-update paths.

use mib_sparse::ldl::LdlSolver;
use mib_sparse::order::Ordering;
use mib_sparse::{vector, CscMatrix};

use crate::kkt::KktMatrix;
use crate::profile::Profile;
use crate::workspace::SolveWorkspace;
use crate::{KktBackend, QpError, Result};

/// Interface shared by the two KKT backends.
///
/// `Send + Sync` is required so boxed backends can move into the worker
/// threads of the `mib-serve` shard pool.
pub trait KktSolver: std::fmt::Debug + Send + Sync {
    /// Solves the KKT system. Reads the right-hand side from `ws.rhs_x` /
    /// `ws.rhs_z`, writes `x̃` into `ws.xtilde` and `ν` into `ws.nu`, and
    /// charges the work to `profile`. Implementations may use the scratch
    /// buffers of `ws` freely but must not touch the iterate or residual
    /// buffers.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying factorization or iteration fails.
    fn solve(&mut self, ws: &mut SolveWorkspace, profile: &mut Profile) -> Result<()>;

    /// Installs a new `ρ` vector (refactoring or re-preconditioning as
    /// needed).
    ///
    /// # Errors
    ///
    /// Returns an error if the refactorization fails.
    fn update_rho(&mut self, rho_vec: &[f64], profile: &mut Profile) -> Result<()>;

    /// Adjusts the iterative tolerance; no-op for the direct backend.
    fn set_tolerance(&mut self, _tol: f64) {}

    /// Clears warm-start state so the next solve behaves like the first;
    /// no-op for stateless backends.
    fn reset(&mut self) {}

    /// Which variant this backend implements.
    fn backend(&self) -> KktBackend;

    /// Clones the backend behind the trait object (used by
    /// [`Solver::clone`](crate::Solver)).
    fn clone_box(&self) -> Box<dyn KktSolver>;
}

/// Direct backend: sparse LDLᵀ of the KKT matrix with AMD ordering
/// (OSQP-direct).
#[derive(Debug, Clone)]
pub struct DirectKkt {
    kkt: KktMatrix,
    ldl: LdlSolver,
}

impl DirectKkt {
    /// Assembles and factors the KKT matrix.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::KktFactorization`] if the quasi-definite
    /// factorization fails (which indicates invalid problem data).
    pub fn new(
        p: &CscMatrix,
        a: &CscMatrix,
        sigma: f64,
        rho_vec: &[f64],
        profile: &mut Profile,
    ) -> Result<Self> {
        let tracing = mib_trace::enabled();
        let kkt = {
            // KKT pattern assembly: the symbolic (structure-only) phase.
            let _symbolic = mib_trace::span_if(tracing, "symbolic", mib_trace::Category::Kkt);
            KktMatrix::assemble(p, a, sigma, rho_vec)?
        };
        let ldl = {
            // Ordering + elimination-tree analysis + numeric LDLᵀ.
            let _factor = mib_trace::span_if(tracing, "factor", mib_trace::Category::Kkt);
            LdlSolver::new(kkt.matrix(), Ordering::MinDegree)
                .map_err(|e| QpError::KktFactorization(e.to_string()))?
        };
        profile.add_factor(ldl.factor().flops() as f64);
        Ok(DirectKkt { kkt, ldl })
    }

    /// Below-diagonal nonzeros of the factor `L` (drives per-solve cost).
    pub fn l_nnz(&self) -> usize {
        self.ldl.factor().l_nnz()
    }

    /// The assembled KKT matrix (for inspection by the compiler stack).
    pub fn kkt(&self) -> &KktMatrix {
        &self.kkt
    }

    /// The LDLᵀ solver (permutation + factor), exposed for the MIB
    /// compiler, which turns it into network schedules.
    pub fn ldl(&self) -> &LdlSolver {
        &self.ldl
    }
}

impl KktSolver for DirectKkt {
    fn solve(&mut self, ws: &mut SolveWorkspace, profile: &mut Profile) -> Result<()> {
        let n = self.kkt.num_vars();
        let m = self.kkt.num_constraints();
        let SolveWorkspace {
            rhs_x,
            rhs_z,
            xtilde,
            nu,
            kkt_rhs,
            kkt_work,
            kkt_sol,
            ..
        } = ws;
        debug_assert_eq!(rhs_x.len(), n);
        debug_assert_eq!(rhs_z.len(), m);
        kkt_rhs[..n].copy_from_slice(rhs_x);
        kkt_rhs[n..].copy_from_slice(rhs_z);
        self.ldl.solve_into(kkt_rhs, kkt_work, kkt_sol);
        xtilde.copy_from_slice(&kkt_sol[..n]);
        nu.copy_from_slice(&kkt_sol[n..]);
        profile.add_triangular_solve(self.ldl.factor().l_nnz(), n + m);
        Ok(())
    }

    fn update_rho(&mut self, rho_vec: &[f64], profile: &mut Profile) -> Result<()> {
        let _refactor = mib_trace::span("refactor", mib_trace::Category::Kkt);
        self.kkt.update_rho(rho_vec);
        self.ldl
            .update_values(self.kkt.matrix())
            .map_err(|e| QpError::KktFactorization(e.to_string()))?;
        profile.add_factor(self.ldl.factor().flops() as f64);
        Ok(())
    }

    fn backend(&self) -> KktBackend {
        KktBackend::Direct
    }

    fn clone_box(&self) -> Box<dyn KktSolver> {
        Box::new(self.clone())
    }
}

/// Indirect backend: PCG on the reduced positive-definite system
/// (OSQP-indirect).
///
/// All per-solve scratch (`r`, `pdir`, `sp`, `dvec`, `az`, `b_red`) lives
/// in the shared [`SolveWorkspace`]; the backend itself carries only
/// problem data, the preconditioner and the warm-start state.
#[derive(Debug, Clone)]
pub struct IndirectKkt {
    p: CscMatrix,
    a: CscMatrix,
    sigma: f64,
    rho_vec: Vec<f64>,
    /// Jacobi preconditioner: `M = diag(P) + σ + Σᵢ ρᵢ A²ᵢⱼ`.
    precond_inv: Vec<f64>,
    /// Warm-start state: solution of the previous KKT solve.
    x_prev: Vec<f64>,
    /// Relative tolerance for the next solve.
    tol: f64,
    /// Initial relative tolerance, restored by [`KktSolver::reset`].
    tol0: f64,
    /// Absolute floor on the residual norm.
    eps_min: f64,
    max_iter: usize,
}

impl IndirectKkt {
    /// Prepares the PCG backend.
    pub fn new(
        p: &CscMatrix,
        a: &CscMatrix,
        sigma: f64,
        rho_vec: &[f64],
        tol0: f64,
        eps_min: f64,
        max_iter: usize,
    ) -> Self {
        let n = p.ncols();
        let max_iter = if max_iter == 0 {
            (4 * n).max(20)
        } else {
            max_iter
        };
        let mut solver = IndirectKkt {
            p: p.clone(),
            a: a.clone(),
            sigma,
            rho_vec: rho_vec.to_vec(),
            precond_inv: vec![1.0; n],
            x_prev: vec![0.0; n],
            tol: tol0,
            tol0,
            eps_min,
            max_iter,
        };
        solver.rebuild_preconditioner();
        solver
    }

    fn rebuild_preconditioner(&mut self) {
        let n = self.p.ncols();
        for j in 0..n {
            self.precond_inv[j] = self.sigma + self.p.get(j, j);
        }
        for (i, j, v) in self.a.iter() {
            self.precond_inv[j] += self.rho_vec[i] * v * v;
        }
        for d in self.precond_inv.iter_mut() {
            *d = if *d > 0.0 { 1.0 / *d } else { 1.0 };
        }
    }

    /// Applies `v -> S v = (P + σI + Aᵀ diag(ρ) A) v` without forming `S`,
    /// using `az` as the length-`m` intermediate.
    fn apply_s(&self, v: &[f64], out: &mut [f64], az: &mut [f64], profile: &mut Profile) {
        // out = P v (symmetric product) ...
        out.fill(0.0);
        self.p.sym_upper_mul_vec_acc(v, out);
        profile.add_spmv_mac(2 * self.p.nnz());
        // ... + σ v ...
        vector::axpy_into(out, self.sigma, v);
        // ... + Aᵀ (ρ ∘ (A v)): A·v is the MAC primitive, Aᵀ·w is column
        // elimination (Section IV.B of the paper).
        az.fill(0.0);
        self.a.mul_vec_acc(v, az);
        profile.add_spmv_mac(self.a.nnz());
        vector::mul_assign(az, &self.rho_vec);
        self.a.tr_mul_vec_acc(az, out);
        profile.add_spmv_col_elim(self.a.nnz());
        profile.add_vector((2 * v.len() + az.len()) as f64);
    }

    /// Runs PCG to solve `S x = b`, warm-started from the previous
    /// solution. All scratch slices come from the caller's workspace.
    /// Returns the iteration count.
    #[allow(clippy::too_many_arguments)]
    fn pcg(
        &mut self,
        b: &[f64],
        x: &mut [f64],
        r: &mut [f64],
        pdir: &mut [f64],
        sp: &mut [f64],
        dvec: &mut [f64],
        az: &mut [f64],
        profile: &mut Profile,
    ) -> usize {
        let n = b.len();
        x.copy_from_slice(&self.x_prev);
        // r = S x - b
        self.apply_s(x, sp, az, profile);
        vector::sub_into(r, sp, b);
        let b_norm = vector::norm2(b);
        let threshold = (self.tol * b_norm).max(self.eps_min);
        let mut r_norm = vector::norm2(r);
        if r_norm <= threshold {
            self.x_prev.copy_from_slice(x);
            return 0;
        }
        // d = M⁻¹ r, p = -d
        vector::ew_prod_into(dvec, &self.precond_inv, r);
        vector::neg_into(pdir, dvec);
        let mut rd = vector::dot(r, dvec);
        let mut iters = 0usize;
        while iters < self.max_iter {
            iters += 1;
            self.apply_s(pdir, sp, az, profile);
            let p_sp = vector::dot(pdir, sp);
            if p_sp <= 0.0 {
                // Numerical breakdown; S is PD so this indicates roundoff —
                // accept the current iterate.
                break;
            }
            let lambda = rd / p_sp;
            vector::axpy_into(x, lambda, pdir);
            vector::axpy_into(r, lambda, sp);
            r_norm = vector::norm2(r);
            profile.add_vector(6.0 * n as f64);
            if r_norm <= threshold {
                break;
            }
            vector::ew_prod_into(dvec, &self.precond_inv, r);
            let rd_new = vector::dot(r, dvec);
            let mu = rd_new / rd;
            rd = rd_new;
            vector::update_dir_into(pdir, dvec, mu);
            profile.add_vector(5.0 * n as f64);
        }
        self.x_prev.copy_from_slice(x);
        profile.pcg_iters += iters;
        iters
    }
}

impl KktSolver for IndirectKkt {
    fn solve(&mut self, ws: &mut SolveWorkspace, profile: &mut Profile) -> Result<()> {
        let SolveWorkspace {
            rhs_x,
            rhs_z,
            xtilde,
            nu,
            r,
            pdir,
            sp,
            dvec,
            az,
            b_red,
            ..
        } = ws;
        debug_assert_eq!(rhs_x.len(), self.p.ncols());
        // b = rhs_x + Aᵀ (ρ ∘ rhs_z); `az` doubles as the ρ ∘ rhs_z scratch
        // before PCG overwrites it.
        b_red.copy_from_slice(rhs_x);
        vector::ew_prod_into(az, rhs_z, &self.rho_vec);
        self.a.tr_mul_vec_acc(az, b_red);
        profile.add_spmv_col_elim(self.a.nnz());
        profile.add_vector(rhs_z.len() as f64);
        self.pcg(b_red, xtilde, r, pdir, sp, dvec, az, profile);
        // ν = ρ ∘ (A x̃ - rhs_z)
        self.a.mul_vec_into(xtilde, az);
        profile.add_spmv_mac(self.a.nnz());
        vector::prod_diff_into(nu, &self.rho_vec, az, rhs_z);
        profile.add_vector(2.0 * nu.len() as f64);
        Ok(())
    }

    fn update_rho(&mut self, rho_vec: &[f64], profile: &mut Profile) -> Result<()> {
        self.rho_vec.copy_from_slice(rho_vec);
        self.rebuild_preconditioner();
        profile.add_vector((self.a.nnz() + self.p.ncols()) as f64);
        Ok(())
    }

    fn set_tolerance(&mut self, tol: f64) {
        self.tol = tol;
    }

    fn reset(&mut self) {
        self.x_prev.fill(0.0);
        self.tol = self.tol0;
    }

    fn backend(&self) -> KktBackend {
        KktBackend::Indirect
    }

    fn clone_box(&self) -> Box<dyn KktSolver> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem_data() -> (CscMatrix, CscMatrix, f64, Vec<f64>) {
        let p = CscMatrix::from_dense(3, 3, &[4.0, 1.0, 0.0, 0.0, 3.0, 1.0, 0.0, 0.0, 5.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(2, 3, &[1.0, 1.0, 0.0, 0.0, 1.0, 2.0]);
        (p, a, 1e-6, vec![0.4, 0.7])
    }

    /// Solves with the given right-hand side, returning `(x̃, ν)`.
    fn run(
        solver: &mut dyn KktSolver,
        ws: &mut SolveWorkspace,
        rhs_x: &[f64],
        rhs_z: &[f64],
        prof: &mut Profile,
    ) -> (Vec<f64>, Vec<f64>) {
        ws.rhs_x.copy_from_slice(rhs_x);
        ws.rhs_z.copy_from_slice(rhs_z);
        solver.solve(ws, prof).unwrap();
        (ws.xtilde.clone(), ws.nu.clone())
    }

    /// Checks that a backend's (x̃, ν) satisfies both KKT block equations.
    fn check_backend(solver: &mut dyn KktSolver, tol: f64) {
        let (p, a, sigma, rho) = problem_data();
        let mut ws = SolveWorkspace::new(3, 2);
        let mut prof = Profile::default();
        let (x, nu) = run(solver, &mut ws, &[1.0, -2.0, 0.5], &[0.3, -0.1], &mut prof);
        // Block 1: (P + σI) x̃ + Aᵀ ν = rhs_x
        let mut r1 = p.sym_upper_mul_vec(&x);
        for (r, &xi) in r1.iter_mut().zip(&x) {
            *r += sigma * xi;
        }
        a.tr_mul_vec_acc(&nu, &mut r1);
        for (got, want) in r1.iter().zip(&[1.0, -2.0, 0.5]) {
            assert!((got - want).abs() < tol, "block1: {got} vs {want}");
        }
        // Block 2: A x̃ - ν/ρ = rhs_z
        let ax = a.mul_vec(&x);
        let rhs_z = [0.3, -0.1];
        for i in 0..2 {
            let got = ax[i] - nu[i] / rho[i];
            assert!(
                (got - rhs_z[i]).abs() < tol,
                "block2: {got} vs {}",
                rhs_z[i]
            );
        }
    }

    #[test]
    fn direct_solves_kkt() {
        let (p, a, sigma, rho) = problem_data();
        let mut prof = Profile::default();
        let mut solver = DirectKkt::new(&p, &a, sigma, &rho, &mut prof).unwrap();
        assert_eq!(prof.factor_count, 1);
        check_backend(&mut solver, 1e-9);
    }

    #[test]
    fn indirect_solves_kkt() {
        let (p, a, sigma, rho) = problem_data();
        let mut solver = IndirectKkt::new(&p, &a, sigma, &rho, 1e-10, 1e-12, 500);
        check_backend(&mut solver, 1e-6);
    }

    #[test]
    fn backends_agree() {
        let (p, a, sigma, rho) = problem_data();
        let mut prof = Profile::default();
        let mut direct = DirectKkt::new(&p, &a, sigma, &rho, &mut prof).unwrap();
        let mut indirect = IndirectKkt::new(&p, &a, sigma, &rho, 1e-12, 1e-14, 1000);
        let mut ws = SolveWorkspace::new(3, 2);
        let rhs_x = [0.2, 0.4, -0.6];
        let rhs_z = [1.0, 1.0];
        let (x1, nu1) = run(&mut direct, &mut ws, &rhs_x, &rhs_z, &mut prof);
        let (x2, nu2) = run(&mut indirect, &mut ws, &rhs_x, &rhs_z, &mut prof);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-7, "x mismatch: {u} vs {v}");
        }
        for (u, v) in nu1.iter().zip(&nu2) {
            assert!((u - v).abs() < 1e-6, "nu mismatch: {u} vs {v}");
        }
    }

    #[test]
    fn direct_rho_update_refactors() {
        let (p, a, sigma, rho) = problem_data();
        let mut prof = Profile::default();
        let mut solver = DirectKkt::new(&p, &a, sigma, &rho, &mut prof).unwrap();
        solver.update_rho(&[1.0, 1.0], &mut prof).unwrap();
        assert_eq!(prof.factor_count, 2);
        // The refactored system must reflect the new rho.
        let mut ws = SolveWorkspace::new(3, 2);
        let (x, nu) = run(
            &mut solver,
            &mut ws,
            &[0.0, 0.0, 0.0],
            &[1.0, 0.0],
            &mut prof,
        );
        let ax = a.mul_vec(&x);
        assert!((ax[0] - nu[0] / 1.0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pcg_warm_start_cuts_iterations() {
        let (p, a, sigma, rho) = problem_data();
        let mut solver = IndirectKkt::new(&p, &a, sigma, &rho, 1e-10, 1e-12, 500);
        let mut ws = SolveWorkspace::new(3, 2);
        let rhs_x = [1.0, 1.0, 1.0];
        let rhs_z = [0.5, 0.5];
        let mut prof = Profile::default();
        run(&mut solver, &mut ws, &rhs_x, &rhs_z, &mut prof);
        let cold = prof.pcg_iters;
        let mut prof2 = Profile::default();
        run(&mut solver, &mut ws, &rhs_x, &rhs_z, &mut prof2);
        let warm = prof2.pcg_iters;
        assert!(
            warm <= 1,
            "warm-started identical solve should converge immediately, took {warm} (cold: {cold})"
        );
    }

    #[test]
    fn reset_clears_warm_start() {
        let (p, a, sigma, rho) = problem_data();
        let mut solver = IndirectKkt::new(&p, &a, sigma, &rho, 1e-10, 1e-12, 500);
        let mut ws = SolveWorkspace::new(3, 2);
        let mut prof = Profile::default();
        let (x1, _) = run(
            &mut solver,
            &mut ws,
            &[1.0, 1.0, 1.0],
            &[0.5, 0.5],
            &mut prof,
        );
        let cold = prof.pcg_iters;
        solver.reset();
        let mut prof2 = Profile::default();
        let (x2, _) = run(
            &mut solver,
            &mut ws,
            &[1.0, 1.0, 1.0],
            &[0.5, 0.5],
            &mut prof2,
        );
        assert_eq!(x1, x2, "reset must reproduce the cold solve bitwise");
        assert_eq!(prof2.pcg_iters, cold, "reset must clear the warm start");
    }

    #[test]
    fn clone_box_is_independent() {
        let (p, a, sigma, rho) = problem_data();
        let mut prof = Profile::default();
        let direct = DirectKkt::new(&p, &a, sigma, &rho, &mut prof).unwrap();
        let mut cloned = direct.clone_box();
        // Updating rho on the clone must not affect the original.
        cloned.update_rho(&[1.0, 1.0], &mut prof).unwrap();
        let mut orig: Box<dyn KktSolver> = Box::new(direct);
        let mut ws = SolveWorkspace::new(3, 2);
        let (x_orig, _) = run(orig.as_mut(), &mut ws, &[0.0; 3], &[1.0, 0.0], &mut prof);
        let (x_clone, _) = run(cloned.as_mut(), &mut ws, &[0.0; 3], &[1.0, 0.0], &mut prof);
        assert_ne!(x_orig, x_clone, "clone must own its factorization");
    }
}
