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
//! definite system `S x̃ = r_x + Aᵀ diag(ρ) r_z`, `S = P + σI + Aᵀ diag(ρ) A`,
//! and runs Preconditioned Conjugate Gradient (Algorithm 2 of the paper)
//! with the Jacobi preconditioner `1/diag(S)`.
//!
//! PCG spends its time in products `S·v`. When `S` stays sparse — at most
//! [`ASSEMBLY_FILL_LIMIT`] times the stored entries of `P` and `A`, plus
//! the diagonal — the indirect backend assembles `S` once and applies it
//! as one sparse product per PCG iteration. A dense row of `A` makes `S`
//! dense, so such problems keep the matrix-free product (`P·v`, `A·v`,
//! `Aᵀ(ρ∘Av)`), which never forms `AᵀA`. Either way the [`Profile`] is
//! charged the paper's matrix-free operator: it models the accelerator's
//! work, not the CPU's.
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
use mib_sparse::{vector, CscMatrix, CsrMatrix};

use crate::kkt::KktMatrix;
use crate::profile::Profile;
use crate::workspace::SolveWorkspace;
use crate::{KktBackend, QpError, Result, Settings};

/// The KKT backend an ADMM solver runs, chosen by
/// [`Settings::backend`]. Both variants read the right-hand side from
/// `ws.rhs_x` / `ws.rhs_z`, write `x̃` into `ws.xtilde` and `ν` into
/// `ws.nu`, and may use the scratch buffers of `ws` freely, but never the
/// iterate or residual buffers.
#[derive(Debug, Clone)]
pub(crate) enum Kkt {
    Direct(DirectKkt),
    Indirect(IndirectKkt),
}

impl Kkt {
    /// Builds the backend `settings.backend` names for the scaled `P`, `A`.
    pub(crate) fn new(
        settings: &Settings,
        p: &CscMatrix,
        a: &CscMatrix,
        rho_vec: &[f64],
        profile: &mut Profile,
    ) -> Result<Self> {
        Ok(match settings.backend {
            KktBackend::Direct => {
                Kkt::Direct(DirectKkt::new(p, a, settings.sigma, rho_vec, profile)?)
            }
            KktBackend::Indirect => Kkt::Indirect(IndirectKkt::new(
                p,
                a,
                settings.sigma,
                rho_vec,
                settings.eps_pcg_min,
            )),
        })
    }

    /// Solves the KKT system, charging the work to `profile`.
    pub(crate) fn solve(&mut self, ws: &mut SolveWorkspace, profile: &mut Profile) {
        match self {
            Kkt::Direct(kkt) => kkt.solve(ws, profile),
            Kkt::Indirect(kkt) => kkt.solve(ws, profile),
        }
    }

    /// Installs a new `ρ` vector.
    pub(crate) fn update_rho(&mut self, rho_vec: &[f64], profile: &mut Profile) -> Result<()> {
        match self {
            Kkt::Direct(kkt) => kkt.update_rho(rho_vec, profile),
            Kkt::Indirect(kkt) => {
                kkt.update_rho(rho_vec, profile);
                Ok(())
            }
        }
    }

    /// Clears the PCG warm start; the direct backend keeps no such state.
    pub(crate) fn reset(&mut self) {
        if let Kkt::Indirect(kkt) = self {
            kkt.reset();
        }
    }
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

    /// Solves the KKT system by forward/backward substitution through
    /// `ws` (see [`SolveWorkspace`]) and charges the work to `profile`.
    pub fn solve(&mut self, ws: &mut SolveWorkspace, profile: &mut Profile) {
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
    }

    /// Installs a new `ρ` vector and refactors numerically.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::KktFactorization`] if the refactorization fails.
    pub fn update_rho(&mut self, rho_vec: &[f64], profile: &mut Profile) -> Result<()> {
        let _refactor = mib_trace::span("refactor", mib_trace::Category::Kkt);
        self.kkt.update_rho(rho_vec);
        self.ldl
            .update_values(self.kkt.matrix())
            .map_err(|e| QpError::KktFactorization(e.to_string()))?;
        profile.add_factor(self.ldl.factor().flops() as f64);
        Ok(())
    }
}

/// Size guard of the assembled reduced operator: `S` is assembled only when
/// `nnz(S) ≤ ASSEMBLY_FILL_LIMIT · (nnz(P) + nnz(A)) + n`. At the served
/// sizes the sparse-row domains stay inside it (at most 2.9×, huber),
/// while one dense row of `A` makes `S` dense, quadratic in `n`
/// (DESIGN.md §11).
pub const ASSEMBLY_FILL_LIMIT: usize = 4;

/// `S = P + σI + Aᵀ diag(ρ) A` assembled in full (both-triangle) storage,
/// so that one [`CscMatrix::spmv_t_into`] applies it.
#[derive(Debug, Clone)]
struct AssembledS {
    /// Pattern and current values of `S`.
    s: CscMatrix,
    /// The ρ-independent part of every value, aligned with `s`: `P`
    /// mirrored, plus `σ` on the diagonal.
    base: Vec<f64>,
    /// The rows of `A`.
    a_rows: CsrMatrix,
    /// Dense accumulator of one column of `Aᵀ diag(ρ) A`; all zero
    /// between evaluations.
    acc: Vec<f64>,
}

impl AssembledS {
    /// Builds the pattern of `P + I + AᵀA` and the base values, or `None`
    /// when `S` would exceed the size guard. `p` is the upper triangle of
    /// the objective matrix. The values still lack the ρ part:
    /// [`AssembledS::evaluate`] adds it.
    fn new(p: &CscMatrix, a: &CscMatrix, sigma: f64) -> Option<Self> {
        let n = p.ncols();
        let limit = ASSEMBLY_FILL_LIMIT * (p.nnz() + a.nnz()) + n;
        let a_rows = CsrMatrix::from_csc(a);
        // Row `j` of the upper triangle, i.e. the mirrored lower part of
        // column `j` of `P`.
        let p_rows = p.transpose();
        let mut mark = vec![usize::MAX; n];
        let mut col_ptr = Vec::with_capacity(n + 1);
        col_ptr.push(0);
        let mut row_ind: Vec<usize> = Vec::new();
        for j in 0..n {
            let start = row_ind.len();
            let p_col = p.col(j).chain(p_rows.col(j)).map(|(i, _)| i);
            let a_col = a.col(j).flat_map(|(i, _)| a_rows.row(i).map(|(k, _)| k));
            for k in std::iter::once(j).chain(p_col).chain(a_col) {
                if mark[k] != j {
                    mark[k] = j;
                    row_ind.push(k);
                }
            }
            // Early exit keeps the symbolic pass linear in the limit even
            // when a dense row would make `S` quadratic.
            if row_ind.len() > limit {
                return None;
            }
            row_ind[start..].sort_unstable();
            col_ptr.push(row_ind.len());
        }
        let nnz = row_ind.len();
        let s = CscMatrix::from_parts(n, n, col_ptr, row_ind, vec![0.0; nnz])
            .expect("sorted, deduplicated columns form a valid CSC matrix");
        // `mark` becomes the position of each row within the current column.
        let mut base = vec![0.0; nnz];
        for j in 0..n {
            for idx in s.col_range(j) {
                mark[s.row_ind()[idx]] = idx;
            }
            for (i, v) in p.col(j) {
                base[mark[i]] = v;
            }
            for (k, v) in p_rows.col(j).filter(|&(k, _)| k > j) {
                base[mark[k]] = v;
            }
            base[mark[j]] += sigma;
        }
        Some(AssembledS {
            s,
            base,
            a_rows,
            acc: vec![0.0; n],
        })
    }

    /// Sets every value of `S` from its base value and `ρ`: entry `(k, j)`
    /// gets `base + Σᵢ (ρᵢ aᵢⱼ) aᵢₖ` over the rows `i` of column `j` of `A`,
    /// in ascending `i`. A fixed recipe, never an increment, so the values
    /// depend only on `(P, A, σ, ρ)`. Allocates nothing.
    fn evaluate(&mut self, a: &CscMatrix, rho: &[f64]) {
        let AssembledS {
            s,
            base,
            a_rows,
            acc,
        } = self;
        for j in 0..a.ncols() {
            for (i, aij) in a.col(j) {
                let w = rho[i] * aij;
                for (k, aik) in a_rows.row(i) {
                    acc[k] += w * aik;
                }
            }
            for idx in s.col_range(j) {
                let k = s.row_ind()[idx];
                s.values_mut()[idx] = base[idx] + acc[k];
                acc[k] = 0.0;
            }
        }
    }
}

/// Jacobi preconditioner of the reduced system into `out`:
/// `1/diag(S)`, `diag(S) = σ + diag(P) + Σᵢ ρᵢ A²ᵢⱼ` summed over the
/// entries of `A` in column order, with `1` where the diagonal is not
/// positive. `p` is the upper triangle of the objective matrix. The one
/// definition of the preconditioner: the matrix-free indirect backend and
/// the MIB compiler's load program both take it from here. Allocates
/// nothing.
pub fn jacobi_precond_into(
    p: &CscMatrix,
    a: &CscMatrix,
    sigma: f64,
    rho_vec: &[f64],
    out: &mut [f64],
) {
    for (j, d) in out.iter_mut().enumerate() {
        *d = sigma + p.get(j, j);
    }
    for (i, j, v) in a.iter() {
        out[j] += rho_vec[i] * v * v;
    }
    invert_diagonal(out);
}

/// Replaces each diagonal entry `d` by `1/d`, or by `1` when `d ≤ 0`.
fn invert_diagonal(diag: &mut [f64]) {
    for d in diag {
        *d = if *d > 0.0 { 1.0 / *d } else { 1.0 };
    }
}

/// Indirect backend: PCG on the reduced positive-definite system
/// `S = P + σI + Aᵀ diag(ρ) A` (OSQP-indirect).
///
/// `S` is assembled in `new` when it passes the [`ASSEMBLY_FILL_LIMIT`]
/// size guard: each PCG iteration then makes one sparse product instead
/// of three passes, and a `ρ` update re-evaluates its values from scratch.
/// Otherwise `S·v` runs matrix-free. All per-solve scratch (`r`, `pdir`,
/// `sp`, `dvec`, `az`, `b_red`) lives in the shared [`SolveWorkspace`];
/// the backend itself carries only problem data, the preconditioner and
/// the warm-start state. The relative tolerance belongs to the caller,
/// which sets it through [`IndirectKkt::set_tolerance`]: the ADMM loop
/// does so on entry to every solve.
#[derive(Debug, Clone)]
pub struct IndirectKkt {
    p: CscMatrix,
    a: CscMatrix,
    sigma: f64,
    rho_vec: Vec<f64>,
    /// `S` itself, or `None` when the size guard keeps it matrix-free.
    assembled: Option<AssembledS>,
    /// Jacobi preconditioner: `1/diag(S)`, `diag(S) = diag(P) + σ + Σᵢ ρᵢ A²ᵢⱼ`.
    precond_inv: Vec<f64>,
    /// Warm-start state: solution of the previous KKT solve.
    x_prev: Vec<f64>,
    /// Relative tolerance of the next solves; `0` (only the absolute
    /// floor) until the caller sets one.
    tol: f64,
    /// Absolute floor on the residual norm.
    eps_min: f64,
    /// PCG iteration cap per KKT solve: `max(4n, 20)`.
    max_iter: usize,
}

impl IndirectKkt {
    /// Prepares the PCG backend, assembling `S` when the size guard
    /// allows. `eps_min` is the absolute floor on the residual norm.
    pub fn new(p: &CscMatrix, a: &CscMatrix, sigma: f64, rho_vec: &[f64], eps_min: f64) -> Self {
        let n = p.ncols();
        let mut solver = IndirectKkt {
            p: p.clone(),
            a: a.clone(),
            sigma,
            rho_vec: rho_vec.to_vec(),
            assembled: AssembledS::new(p, a, sigma),
            precond_inv: vec![1.0; n],
            x_prev: vec![0.0; n],
            tol: 0.0,
            eps_min,
            max_iter: (4 * n).max(20),
        };
        solver.install_rho();
        solver
    }

    /// The assembled `S` in full storage, or `None` when the size guard
    /// keeps the product matrix-free.
    pub fn reduced_matrix(&self) -> Option<&CscMatrix> {
        self.assembled.as_ref().map(|s| &s.s)
    }

    /// Re-evaluates `S` (when assembled) and the Jacobi preconditioner for
    /// the current `rho_vec`.
    fn install_rho(&mut self) {
        if let Some(s) = &mut self.assembled {
            s.evaluate(&self.a, &self.rho_vec);
            for (j, d) in self.precond_inv.iter_mut().enumerate() {
                *d = s.s.get(j, j);
            }
            invert_diagonal(&mut self.precond_inv);
        } else {
            jacobi_precond_into(
                &self.p,
                &self.a,
                self.sigma,
                &self.rho_vec,
                &mut self.precond_inv,
            );
        }
    }

    /// Computes `out = S v` without forming `S`: `P·v`, `σv`, then
    /// `Aᵀ(ρ ∘ (A v))` with `az` as the length-`m` intermediate.
    pub fn apply_matrix_free(&self, v: &[f64], out: &mut [f64], az: &mut [f64]) {
        out.fill(0.0);
        self.p.sym_upper_mul_vec_acc(v, out);
        vector::axpy_into(out, self.sigma, v);
        az.fill(0.0);
        self.a.gaxpy_into(v, az);
        vector::mul_assign(az, &self.rho_vec);
        self.a.gaxpy_t_into(az, out);
    }

    /// Computes `out = S v` — one product by the assembled `S`, or the
    /// matrix-free passes — and charges the paper's matrix-free operator
    /// to `profile` either way.
    fn apply_s(&self, v: &[f64], out: &mut [f64], az: &mut [f64], profile: &mut Profile) {
        match &self.assembled {
            Some(s) => s.s.spmv_t_into(v, out),
            None => self.apply_matrix_free(v, out, az),
        }
        // P·v (symmetric product), A·v (the MAC primitive) and Aᵀ·w (column
        // elimination, Section IV.B of the paper).
        profile.add_spmv_mac(2 * self.p.nnz());
        profile.add_spmv_mac(self.a.nnz());
        profile.add_spmv_col_elim(self.a.nnz());
        profile.add_vector((2 * v.len() + self.a.nrows()) as f64);
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

    /// Solves the KKT system through the reduced system and PCG, reading
    /// and writing `ws` (see [`SolveWorkspace`]), and charges the work to
    /// `profile`.
    pub fn solve(&mut self, ws: &mut SolveWorkspace, profile: &mut Profile) {
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
        self.a.gaxpy_t_into(az, b_red);
        profile.add_spmv_col_elim(self.a.nnz());
        profile.add_vector(rhs_z.len() as f64);
        self.pcg(b_red, xtilde, r, pdir, sp, dvec, az, profile);
        // ν = ρ ∘ (A x̃ - rhs_z)
        self.a.spmv_into(xtilde, az);
        profile.add_spmv_mac(self.a.nnz());
        vector::prod_diff_into(nu, &self.rho_vec, az, rhs_z);
        profile.add_vector(2.0 * nu.len() as f64);
    }

    /// Installs a new `ρ` vector: re-evaluates `S` (when assembled) and
    /// the preconditioner.
    pub fn update_rho(&mut self, rho_vec: &[f64], profile: &mut Profile) {
        self.rho_vec.copy_from_slice(rho_vec);
        self.install_rho();
        profile.add_vector((self.a.nnz() + self.p.ncols()) as f64);
    }

    /// Sets the relative PCG tolerance of the next solves.
    pub fn set_tolerance(&mut self, tol: f64) {
        self.tol = tol;
    }

    /// Clears the warm start, so that the next solve at the same
    /// tolerance behaves like the first.
    pub fn reset(&mut self) {
        self.x_prev.fill(0.0);
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

    /// The PCG backend at relative tolerance `tol` and floor `eps_min`.
    fn indirect(
        p: &CscMatrix,
        a: &CscMatrix,
        sigma: f64,
        rho: &[f64],
        tol: f64,
        eps_min: f64,
    ) -> IndirectKkt {
        let mut kkt = IndirectKkt::new(p, a, sigma, rho, eps_min);
        kkt.set_tolerance(tol);
        kkt
    }

    /// Solves with the given right-hand side, returning `(x̃, ν)`.
    fn run(
        solver: &mut Kkt,
        ws: &mut SolveWorkspace,
        rhs_x: &[f64],
        rhs_z: &[f64],
        prof: &mut Profile,
    ) -> (Vec<f64>, Vec<f64>) {
        ws.rhs_x.copy_from_slice(rhs_x);
        ws.rhs_z.copy_from_slice(rhs_z);
        solver.solve(ws, prof);
        (ws.xtilde.clone(), ws.nu.clone())
    }

    /// Checks that a backend's (x̃, ν) satisfies both KKT block equations.
    fn check_backend(solver: &mut Kkt, tol: f64) {
        let (p, a, sigma, rho) = problem_data();
        let mut ws = SolveWorkspace::new(3, 2);
        let mut prof = Profile::default();
        let (x, nu) = run(solver, &mut ws, &[1.0, -2.0, 0.5], &[0.3, -0.1], &mut prof);
        // Block 1: (P + σI) x̃ + Aᵀ ν = rhs_x
        let mut r1 = p.sym_upper_mul_vec(&x);
        for (r, &xi) in r1.iter_mut().zip(&x) {
            *r += sigma * xi;
        }
        a.gaxpy_t_into(&nu, &mut r1);
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
        let mut solver = Kkt::Direct(DirectKkt::new(&p, &a, sigma, &rho, &mut prof).unwrap());
        assert_eq!(prof.factor_count, 1);
        check_backend(&mut solver, 1e-9);
    }

    #[test]
    fn indirect_solves_kkt() {
        let (p, a, sigma, rho) = problem_data();
        let mut solver = Kkt::Indirect(indirect(&p, &a, sigma, &rho, 1e-10, 1e-12));
        check_backend(&mut solver, 1e-6);
    }

    #[test]
    fn backends_agree() {
        let (p, a, sigma, rho) = problem_data();
        let mut prof = Profile::default();
        let mut direct = Kkt::Direct(DirectKkt::new(&p, &a, sigma, &rho, &mut prof).unwrap());
        let mut indirect = Kkt::Indirect(indirect(&p, &a, sigma, &rho, 1e-12, 1e-14));
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
    fn assembled_s_matches_dense_reference() {
        let (p, a, sigma, rho) = problem_data();
        let solver = indirect(&p, &a, sigma, &rho, 1e-10, 1e-12);
        let s = solver
            .reduced_matrix()
            .expect("3x3 S passes the size guard");
        let (pd, ad) = (p.to_dense(), a.to_dense());
        for j in 0..3 {
            for k in 0..3 {
                let mut want = pd[j.min(k) * 3 + j.max(k)] + if j == k { sigma } else { 0.0 };
                for i in 0..2 {
                    want += rho[i] * ad[i * 3 + j] * ad[i * 3 + k];
                }
                assert!((s.get(j, k) - want).abs() < 1e-15, "S[{j},{k}]");
            }
        }
    }

    #[test]
    fn direct_rho_update_refactors() {
        let (p, a, sigma, rho) = problem_data();
        let mut prof = Profile::default();
        let mut solver = Kkt::Direct(DirectKkt::new(&p, &a, sigma, &rho, &mut prof).unwrap());
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
        let mut solver = Kkt::Indirect(indirect(&p, &a, sigma, &rho, 1e-10, 1e-12));
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
        let mut solver = Kkt::Indirect(indirect(&p, &a, sigma, &rho, 1e-10, 1e-12));
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
    fn clone_is_independent() {
        let (p, a, sigma, rho) = problem_data();
        let mut prof = Profile::default();
        let mut orig = Kkt::Direct(DirectKkt::new(&p, &a, sigma, &rho, &mut prof).unwrap());
        let mut cloned = orig.clone();
        // Updating rho on the clone must not affect the original.
        cloned.update_rho(&[1.0, 1.0], &mut prof).unwrap();
        let mut ws = SolveWorkspace::new(3, 2);
        let (x_orig, _) = run(&mut orig, &mut ws, &[0.0; 3], &[1.0, 0.0], &mut prof);
        let (x_clone, _) = run(&mut cloned, &mut ws, &[0.0; 3], &[1.0, 0.0], &mut prof);
        assert_ne!(x_orig, x_clone, "clone must own its factorization");
    }
}
