//! Triangular-solve kernels over a streamed LDLᵀ factor.
//!
//! The direct KKT solve is `x ← Lᵀ \ (D⁻¹ (L \ x))` (Listing 1's
//! `L_solve`, `D_solve`, `Lt_solve` schedules). The factor values arrive
//! from HBM alongside the instructions:
//!
//! * **`L` solve** uses the **column elimination** primitive (equations
//!   (8)–(12) of the paper): after `x_j` is final, it fans out through the
//!   butterfly to the lanes owning column `j`'s rows, where the output
//!   multipliers scale it by the streamed `-L(r,j)` and the writeback
//!   accumulates the product into `x_r`.
//! * **`D` solve** is an element-wise product with the streamed
//!   reciprocal diagonal.
//! * **`Lᵀ` solve** uses the **MAC** primitive (equation (7)): for column
//!   `j` (descending), the products `-L(r,j)·x_r` reduce through the MAC
//!   tree into `x_j`.
//!
//! Each `L`-solve fan-out is one single-group [`NetInstruction::multicast`]
//! and each `Lᵀ`-solve chunk one [`NetInstruction::reduction`], both built
//! from the chunk's lane mask. A chunk is a maximal run of a column's rows
//! on distinct lanes (`elementwise::distinct_runs`).
//!
//! [`FactorLayout`] is the register-file placement the on-machine
//! factorization kernel ([`crate::factor`]) writes `L` to: entry `L(r, j)`
//! in bank `r mod C`. It also keeps the pattern of `L` it was planned for,
//! which that kernel reads instead of deriving it again.

use mib_core::instruction::{lanes, LaneSource, LaneWrite, NetInstruction, OutMul, WriteMode};
use mib_core::machine::Machine;
use mib_sparse::ldl::LdlFactor;

use crate::elementwise::{add, chunks, distinct_runs, store};
use crate::kernel::KernelBuilder;
use crate::layout::{Allocator, Layout};

/// Register-file placement of an LDLᵀ factor, and the pattern of `L` it
/// was planned for.
#[derive(Debug, Clone)]
pub struct FactorLayout {
    width: usize,
    /// Column pointers of `L`: column `j` holds CSC positions
    /// `l_col_ptr[j]..l_col_ptr[j + 1]`.
    pub(crate) l_col_ptr: Vec<usize>,
    /// Row index of every `L` position.
    pub(crate) l_rows: Vec<usize>,
    /// Address of the L value stored at CSC position `p` (bank is
    /// `l_rows[p] % width`).
    l_addr: Vec<usize>,
    /// Layout of the diagonal `D`.
    d: Layout,
    /// Layout of the reciprocal diagonal `D⁻¹`.
    dinv: Layout,
}

impl FactorLayout {
    /// Plans storage for a factor whose `L` has the given column pointers
    /// and row indices, and keeps that pattern.
    pub fn plan(l_col_ptr: Vec<usize>, l_rows: Vec<usize>, alloc: &mut Allocator) -> Self {
        let width = alloc.width();
        let n = l_col_ptr.len() - 1;
        let mut per_bank = vec![0usize; width];
        let mut l_addr = Vec::with_capacity(l_rows.len());
        let base = {
            // Count first to reserve a contiguous region.
            let mut counts = vec![0usize; width];
            for &r in &l_rows {
                counts[r % width] += 1;
            }
            let rows = counts.iter().copied().max().unwrap_or(0);
            alloc.alloc_rows(rows)
        };
        for &r in &l_rows {
            let bank = r % width;
            l_addr.push(base + per_bank[bank]);
            per_bank[bank] += 1;
        }
        let d = alloc.alloc(n);
        let dinv = alloc.alloc(n);
        FactorLayout {
            width,
            l_col_ptr,
            l_rows,
            l_addr,
            d,
            dinv,
        }
    }

    /// Machine width this layout was planned for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `(bank, addr)` of the L value at CSC position `p` with row `r`.
    pub fn l_loc(&self, p: usize, row: usize) -> (usize, usize) {
        (row % self.width, self.l_addr[p])
    }

    /// Layout of the diagonal `D`.
    pub fn d(&self) -> Layout {
        self.d
    }

    /// Layout of the reciprocal diagonal `D⁻¹`.
    pub fn dinv(&self) -> Layout {
        self.dinv
    }

    /// Reads the L values back from a machine (verification of the
    /// on-machine factorization).
    pub fn read_l(&self, row_ind: &[usize], m: &Machine) -> Vec<f64> {
        row_ind
            .iter()
            .enumerate()
            .map(|(p, &r)| {
                let (bank, addr) = self.l_loc(p, r);
                m.regs()
                    .read(bank, addr)
                    .expect("factor layout fits bank depth")
            })
            .collect()
    }
}

/// Streamed-L `L_solve`: in-place `x ← L⁻¹ x` (unit lower `L`) with the
/// factor values arriving from HBM through the **output multipliers** —
/// one network instruction per column chunk (`x_j` fans out through the
/// butterfly and multiplies the streamed `-L(r,j)` at each target lane).
/// This is what the lowered ADMM iteration uses; the factorization step
/// writes `L` back to HBM for it.
pub fn lsolve_streamed(b: &mut KernelBuilder, f: &LdlFactor, x: Layout) {
    assert_eq!(x.len, f.n(), "x layout does not match factor dimension");
    let width = b.width();
    // One instruction's HBM words, reused, and the `x` address each of
    // its lanes updates.
    let mut stream = Vec::new();
    let mut addr_of = [0usize; 128];
    let col_ptr = f.l_col_ptr();
    let row_ind = f.l_row_ind();
    let values = f.l_values();
    for j in 0..f.n() {
        let range = col_ptr[j]..col_ptr[j + 1];
        let (rows, vals) = (&row_ind[range.clone()], &values[range]);
        let (sj, aj) = x.loc(j);
        for (run, used) in distinct_runs(rows, |&r| r % width) {
            for (&r, &v) in rows[run.clone()].iter().zip(&vals[run]) {
                let lane = r % width;
                addr_of[lane] = x.addr(r);
                stream.push((width + lane, v));
            }
            let src = LaneSource::Reg { addr: aj };
            let inst = NetInstruction::multicast(width, &[(sj, src, used)], |lane| {
                (add(addr_of[lane]), OutMul::MulStream { negate: true })
            });
            b.push(inst, stream.drain(..));
        }
    }
}

/// Streamed `D_solve`: `x ← D⁻¹x` with the reciprocal diagonal arriving
/// from HBM at the input multipliers.
pub fn dsolve_streamed(b: &mut KernelBuilder, f: &LdlFactor, x: Layout) {
    assert_eq!(x.len, f.n(), "x layout does not match factor dimension");
    let width = b.width();
    for (start, mask) in chunks(x.len, width) {
        let inst = NetInstruction::straight(width, mask, |lane| {
            let addr = x.addr(start + lane);
            let src = LaneSource::RegTimesStream {
                addr,
                negate: false,
            };
            (src, store(addr))
        });
        b.push(
            inst,
            lanes(mask).map(|lane| (lane, 1.0 / f.d()[start + lane])),
        );
    }
}

/// Streamed-L `Lt_solve`: row-oriented MAC substitution with the factor
/// values at the **input multipliers** (`x_r` from registers times the
/// streamed `-L(r,j)` reduce into `x_j`) — one instruction per chunk.
pub fn ltsolve_streamed(b: &mut KernelBuilder, f: &LdlFactor, x: Layout) {
    assert_eq!(x.len, f.n(), "x layout does not match factor dimension");
    let width = b.width();
    // One instruction's HBM words and each source lane's register address,
    // reused.
    let mut stream = Vec::new();
    let mut addr_of = vec![0; width];
    let col_ptr = f.l_col_ptr();
    let row_ind = f.l_row_ind();
    let values = f.l_values();
    for j in (0..f.n()).rev() {
        let range = col_ptr[j]..col_ptr[j + 1];
        let (rows, vals) = (&row_ind[range.clone()], &values[range]);
        let dst = x.bank(j);
        for (run, used) in distinct_runs(rows, |&r| r % width) {
            for (&r, &v) in rows[run.clone()].iter().zip(&vals[run]) {
                let lane = r % width;
                addr_of[lane] = x.addr(r);
                stream.push((lane, v));
            }
            let source = |lane: usize| LaneSource::RegTimesStream {
                addr: addr_of[lane],
                negate: true,
            };
            let write = LaneWrite {
                addr: x.addr(j),
                mode: WriteMode::Add,
            };
            let inst = NetInstruction::reduction(width, used, dst, source, write);
            b.push(inst, stream.drain(..));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementwise::load_vec;
    use crate::schedule::{schedule, ScheduleOptions};
    use mib_core::hbm::HbmStream;
    use mib_core::machine::HazardPolicy;
    use mib_core::MibConfig;
    use mib_sparse::ldl::LdlSymbolic;
    use mib_sparse::CscMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> MibConfig {
        MibConfig {
            width: 8,
            bank_depth: 4096,
            clock_hz: 1e6,
        }
    }

    /// Random sparse SPD matrix (diagonally dominant), upper triangle.
    fn spd(n: usize, seed: u64) -> CscMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..n {
            rows.push(i);
            cols.push(i);
            vals.push(10.0 + rng.gen::<f64>());
            for j in (i + 1)..n {
                if rng.gen::<f64>() < 0.2 {
                    rows.push(i);
                    cols.push(j);
                    vals.push(rng.gen_range(-1.0..1.0));
                }
            }
        }
        CscMatrix::from_triplet_parts(n, n, &rows, &cols, &vals).unwrap()
    }

    #[test]
    fn full_ldl_solve_on_machine_matches_reference() {
        let n = 20;
        let a = spd(n, 42);
        let sym = LdlSymbolic::new(&a).unwrap();
        let f = sym.factor(&a).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let bvec: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let c = cfg();
        let x = Allocator::new(c.width).alloc(n);
        let mut b = KernelBuilder::new("solve", c.width, c.latency());
        load_vec(&mut b, x, &bvec);
        lsolve_streamed(&mut b, &f, x);
        dsolve_streamed(&mut b, &f, x);
        ltsolve_streamed(&mut b, &f, x);
        let s = schedule(&b.finish(), ScheduleOptions::default());

        let mut m = Machine::new(c);
        let mut hbm = HbmStream::new(s.hbm.clone());
        m.run(&s.program, &mut hbm, HazardPolicy::Strict).unwrap();

        let got: Vec<f64> = (0..n)
            .map(|e| m.regs().read(x.bank(e), x.addr(e)).unwrap())
            .collect();
        let want = f.solve(&bvec);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "solve mismatch: {g} vs {w}");
        }
        // And the solution satisfies A x = b.
        let ax = a.sym_upper_mul_vec(&got);
        for (u, v) in ax.iter().zip(&bvec) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn lsolve_only_matches_reference() {
        let n = 12;
        let a = spd(n, 3);
        let f = LdlSymbolic::new(&a).unwrap().factor(&a).unwrap();
        let bvec: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        let c = cfg();
        let x = Allocator::new(c.width).alloc(n);
        let mut b = KernelBuilder::new("lsolve", c.width, c.latency());
        load_vec(&mut b, x, &bvec);
        lsolve_streamed(&mut b, &f, x);
        let s = schedule(&b.finish(), ScheduleOptions::default());
        let mut m = Machine::new(c);
        m.run(
            &s.program,
            &mut HbmStream::new(s.hbm.clone()),
            HazardPolicy::Strict,
        )
        .unwrap();
        let mut want = bvec.clone();
        f.l_solve(&mut want);
        for (e, &w) in want.iter().enumerate() {
            let g = m.regs().read(x.bank(e), x.addr(e)).unwrap();
            assert!((g - w).abs() < 1e-10, "lane {e}: {g} vs {w}");
        }
    }

    #[test]
    fn factor_layout_is_injective() {
        let a = spd(25, 9);
        let f = LdlSymbolic::new(&a).unwrap().factor(&a).unwrap();
        let mut alloc = Allocator::new(8);
        let fl = FactorLayout::plan(f.l_col_ptr().to_vec(), f.l_row_ind().to_vec(), &mut alloc);
        let mut seen = std::collections::HashSet::new();
        for (p, &r) in f.l_row_ind().iter().enumerate() {
            assert!(
                seen.insert(fl.l_loc(p, r)),
                "duplicate location for position {p}"
            );
        }
    }
}
