//! On-machine numeric LDLᵀ factorization (the `OSQP-direct` refactorization
//! kernel, Section IV.C of the paper).
//!
//! The kernel streams the (permuted) KKT matrix's upper triangle from HBM
//! column by column and executes the up-looking row algorithm of equation
//! (5) entirely with network instructions:
//!
//! * the sparse right-hand side of each row's triangular solve accumulates
//!   in a scratch vector `y` (cyclic layout),
//! * each pattern column `i` contributes a *column elimination* group —
//!   latch `D⁻¹ᵢ`, form `L(k,i) = yᵢ·D⁻¹ᵢ`, broadcast `yᵢ` (Fig. 6b) and
//!   scatter-subtract `L(r,i)·yᵢ` into `y`,
//! * pivots finish with a reciprocal writeback (`StoreRecip`) so the `D`
//!   solve can run as an element-wise product.
//!
//! [`plan_factor_exact`] replays the row patterns once to place `L`; the
//! [`FactorLayout`] keeps the pattern, and the kernel reads it. A column's
//! loads and each update are cut into maximal runs of distinct lanes by the
//! crate's one run cutter (`elementwise::distinct_runs`), one straight
//! instruction per run.
//!
//! The **elimination tree** defines the dependency structure: column `k`
//! can start only after its pattern columns finished, which the dependency
//! tracker discovers naturally through register reuse. The initial
//! instruction order processes rows ascending (a topological order of the
//! etree); the first-fit scheduler then interleaves independent subtrees —
//! exactly the reordering the paper's Figure 8 illustrates.

use mib_core::instruction::{LaneSource, LaneWrite, NetInstruction, OutMul, WriteMode};
use mib_sparse::ldl::LdlSymbolic;
use mib_sparse::CscMatrix;

use crate::elementwise::{add, distinct_runs, store, transfer, LATCH, ZERO};
use crate::kernel::KernelBuilder;
use crate::layout::{Allocator, Layout};
use crate::trisolve::FactorLayout;

/// Emits the numeric factorization kernel for the (permuted, upper
/// triangle) matrix `a` with symbolic analysis `sym`, writing `L`, `D` and
/// `D⁻¹` into `fl`, which [`plan_factor_exact`] planned for `a`'s pattern.
/// `y` is a scratch layout of length `n` that must start (and is left)
/// all-zero.
///
/// The matrix *values* stream from HBM; the sparsity *pattern* is compiled
/// into the instruction stream — re-running the kernel with different
/// values (a `ρ` update) re-factors without recompilation, matching the
/// paper's numeric-refactor-only behaviour.
///
/// # Panics
///
/// Panics if layout sizes disagree with the matrix dimension.
pub fn factor_kernel(
    b: &mut KernelBuilder,
    a: &CscMatrix,
    sym: &LdlSymbolic,
    fl: &FactorLayout,
    y: Layout,
) {
    let n = sym.n();
    assert_eq!(a.ncols(), n, "matrix does not match symbolic analysis");
    assert_eq!(y.len, n, "scratch layout must have length n");
    let width = b.width();
    let (l_col_ptr, l_rows) = (&fl.l_col_ptr, &fl.l_rows);
    let mut fill = vec![0usize; n];
    let d = fl.d();
    let dinv = fl.dinv();

    // One instruction's HBM words, reused; per lane of a load, its write
    // address, and per lane of an update, the L entry it reads and the y
    // entry it updates.
    let mut stream = Vec::new();
    let mut addr_of = [0usize; 128];
    let mut update_of = [(0usize, 0usize); 128];
    for k in 0..n {
        // ---- Load phase: scatter column k of A into y (and D[k]). ----
        let range = a.col_range(k);
        let (rows, vals) = (&a.row_ind()[range.clone()], &a.values()[range]);
        assert!(
            rows.contains(&k),
            "kkt matrix must have an explicit diagonal at column {k}"
        );
        let loc = |i: usize| if i == k { d.loc(k) } else { y.loc(i) };
        for (run, used) in distinct_runs(rows, |&i| loc(i).0) {
            for (&i, &v) in rows[run.clone()].iter().zip(&vals[run]) {
                let (lane, addr) = loc(i);
                addr_of[lane] = addr;
                stream.push((lane, v));
            }
            let inst = NetInstruction::straight(width, used, |lane| {
                (LaneSource::Stream, store(addr_of[lane]))
            });
            b.push(inst, stream.drain(..));
        }

        // ---- Elimination phase over the row pattern. ----
        let pattern = sym.etree().row_pattern(a, k);
        for &i in &pattern {
            let lane_i = y.bank(i);
            let lane_k = (k) % width;
            // (1) Latch D⁻¹ᵢ at lane i.
            let dinv_i = LaneSource::Reg { addr: dinv.addr(i) };
            let l1 = transfer(width, dinv.bank(i), dinv_i, lane_i, LATCH);
            b.push(l1, []);
            // (2) L(k, i) = yᵢ · D⁻¹ᵢ, stored at the next free slot of
            // column i (bank k % C).
            let p_ki = l_col_ptr[i] + fill[i];
            debug_assert_eq!(l_rows[p_ki], k);
            let (bank_ki, addr_ki) = fl.l_loc(p_ki, k);
            debug_assert_eq!(bank_ki, lane_k);
            let y_times_dinv = LaneSource::RegTimesLatch {
                addr: y.addr(i),
                negate: false,
            };
            let l2 = transfer(width, lane_i, y_times_dinv, lane_k, store(addr_ki));
            b.push(l2, []);
            // (3) Broadcast yᵢ into the latches of the update lanes and the
            // pivot lane.
            let update_rows = &l_rows[l_col_ptr[i]..p_ki];
            let targets = update_rows
                .iter()
                .fold(1 << lane_k, |m, &r| m | 1 << (r % width));
            let src = LaneSource::Reg { addr: y.addr(i) };
            let l3 = NetInstruction::multicast(width, &[(lane_i, src, targets)], |_| {
                (LATCH, OutMul::Bypass)
            });
            b.push(l3, []);
            // (4) Updates: y_r -= L(r, i) · yᵢ, chunked by lane.
            for (run, used) in distinct_runs(update_rows, |&r| r % width) {
                for (p, &r) in run.clone().zip(&update_rows[run]) {
                    update_of[r % width] = (fl.l_loc(l_col_ptr[i] + p, r).1, y.addr(r));
                }
                let upd = NetInstruction::straight(width, used, |lane| {
                    let (l_addr, y_addr) = update_of[lane];
                    let src = LaneSource::RegTimesLatch {
                        addr: l_addr,
                        negate: true,
                    };
                    (src, add(y_addr))
                });
                b.push(upd, []);
            }
            // (5) D[k] -= yᵢ · L(k, i).
            let l5 = NetInstruction::straight(width, 1 << lane_k, |_| {
                let src = LaneSource::RegTimesLatch {
                    addr: addr_ki,
                    negate: true,
                };
                (src, add(d.addr(k)))
            });
            b.push(l5, []);
            // (6) Clear yᵢ for the next row (preserves the all-zero scratch
            // invariant).
            let l6 = NetInstruction::straight(width, 1 << lane_i, |_| (ZERO, store(y.addr(i))));
            b.push(l6, []);
            fill[i] += 1;
        }
        // ---- Pivot reciprocal. ----
        let recip = LaneWrite {
            addr: dinv.addr(k),
            mode: WriteMode::StoreRecip,
        };
        let d_k = LaneSource::Reg { addr: d.addr(k) };
        let rec = transfer(width, k % width, d_k, dinv.bank(k), recip);
        b.push(rec, []);
    }
    debug_assert_eq!(
        fill,
        sym.etree().col_counts().to_vec(),
        "on-machine fill must match symbolic counts"
    );
}

/// Exact planner: replays the row patterns of `a` to place every L entry in
/// the bank of its true row. Use this together with [`factor_kernel`].
pub fn plan_factor_exact(
    a: &CscMatrix,
    sym: &LdlSymbolic,
    alloc: &mut Allocator,
) -> (FactorLayout, Layout) {
    let n = sym.n();
    let mut l_col_ptr = vec![0usize; n + 1];
    for (i, &c) in sym.etree().col_counts().iter().enumerate() {
        l_col_ptr[i + 1] = l_col_ptr[i] + c;
    }
    let mut l_rows = vec![0usize; l_col_ptr[n]];
    let mut fill = vec![0usize; n];
    for k in 0..n {
        for i in sym.etree().row_pattern(a, k) {
            l_rows[l_col_ptr[i] + fill[i]] = k;
            fill[i] += 1;
        }
    }
    let fl = FactorLayout::plan(l_col_ptr, l_rows, alloc);
    let y = alloc.alloc(n);
    (fl, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule, ScheduleOptions};
    use mib_core::hbm::HbmStream;
    use mib_core::machine::{HazardPolicy, Machine};
    use mib_core::MibConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> MibConfig {
        MibConfig {
            width: 8,
            bank_depth: 8192,
            clock_hz: 1e6,
        }
    }

    fn spd(n: usize, density: f64, seed: u64) -> CscMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..n {
            rows.push(i);
            cols.push(i);
            vals.push(12.0 + rng.gen::<f64>());
            for j in (i + 1)..n {
                if rng.gen::<f64>() < density {
                    rows.push(i);
                    cols.push(j);
                    vals.push(rng.gen_range(-1.0..1.0));
                }
            }
        }
        CscMatrix::from_triplet_parts(n, n, &rows, &cols, &vals).unwrap()
    }

    #[test]
    fn on_machine_factorization_matches_reference() {
        let n = 18;
        let a = spd(n, 0.25, 21);
        let sym = LdlSymbolic::new(&a).unwrap();
        let reference = sym.factor(&a).unwrap();

        let c = cfg();
        let mut alloc = Allocator::new(c.width);
        let (fl, y) = plan_factor_exact(&a, &sym, &mut alloc);
        let mut b = KernelBuilder::new("factor", c.width, c.latency());
        factor_kernel(&mut b, &a, &sym, &fl, y);
        let s = schedule(&b.finish(), ScheduleOptions::default());

        let mut m = Machine::new(c);
        let mut hbm = HbmStream::new(s.hbm.clone());
        m.run(&s.program, &mut hbm, HazardPolicy::Strict).unwrap();

        // L values must match.
        let got_l = fl.read_l(reference.l_row_ind(), &m);
        for (p, (g, w)) in got_l.iter().zip(reference.l_values()).enumerate() {
            assert!((g - w).abs() < 1e-10, "L[{p}]: {g} vs {w}");
        }
        // D and D⁻¹ must match.
        for k in 0..n {
            let dk = m.regs().read(fl.d().bank(k), fl.d().addr(k)).unwrap();
            let dik = m.regs().read(fl.dinv().bank(k), fl.dinv().addr(k)).unwrap();
            assert!((dk - reference.d()[k]).abs() < 1e-10, "D[{k}]: {dk}");
            assert!((dik - 1.0 / reference.d()[k]).abs() < 1e-10, "Dinv[{k}]");
        }
        // The scratch vector is left all-zero (invariant for re-running).
        for e in 0..n {
            assert_eq!(m.regs().read(y.bank(e), y.addr(e)).unwrap(), 0.0);
        }
    }

    #[test]
    fn refactor_streams_new_values_through_same_program() {
        let n = 12;
        let a = spd(n, 0.3, 5);
        let sym = LdlSymbolic::new(&a).unwrap();
        let c = cfg();
        let mut alloc = Allocator::new(c.width);
        let (fl, y) = plan_factor_exact(&a, &sym, &mut alloc);
        let mut b = KernelBuilder::new("factor", c.width, c.latency());
        factor_kernel(&mut b, &a, &sym, &fl, y);
        let s = schedule(&b.finish(), ScheduleOptions::default());

        // Second matrix: same pattern, scaled values (a rho update).
        let a2 = a.map_values(|v| v * 1.7);
        let ref2 = sym.factor(&a2).unwrap();
        // The HBM stream is the only thing that changes: rebuild it by
        // re-emitting the kernel against a2 (the schedule is identical).
        let mut b2 = KernelBuilder::new("factor", c.width, c.latency());
        let mut alloc2 = Allocator::new(c.width);
        let (_fl2, y2) = plan_factor_exact(&a2, &sym, &mut alloc2);
        factor_kernel(&mut b2, &a2, &sym, &fl, y2);
        let s2 = schedule(&b2.finish(), ScheduleOptions::default());
        assert_eq!(
            s.program.len(),
            s2.program.len(),
            "same pattern, same schedule"
        );

        let mut m = Machine::new(c);
        m.run(
            &s2.program,
            &mut HbmStream::new(s2.hbm.clone()),
            HazardPolicy::Strict,
        )
        .unwrap();
        let got_l = fl.read_l(ref2.l_row_ind(), &m);
        for (g, w) in got_l.iter().zip(ref2.l_values()) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn multi_issue_compresses_factorization() {
        let n = 24;
        let a = spd(n, 0.15, 33);
        let sym = LdlSymbolic::new(&a).unwrap();
        let c = cfg();
        let mut alloc = Allocator::new(c.width);
        let (fl, y) = plan_factor_exact(&a, &sym, &mut alloc);
        let mut b = KernelBuilder::new("factor", c.width, c.latency());
        factor_kernel(&mut b, &a, &sym, &fl, y);
        let k = b.finish();
        let multi = schedule(&k, ScheduleOptions::default());
        let single = schedule(
            &k,
            ScheduleOptions {
                multi_issue: false,
                ..ScheduleOptions::default()
            },
        );
        assert!(
            multi.slots() < single.slots(),
            "multi-issue {} vs single {}",
            multi.slots(),
            single.slots()
        );
    }
}
