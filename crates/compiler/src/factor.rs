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
//! The **elimination tree** defines the dependency structure: column `k`
//! can start only after its pattern columns finished, which the dependency
//! tracker discovers naturally through register reuse. The initial
//! instruction order processes rows ascending (a topological order of the
//! etree); the first-fit scheduler then interleaves independent subtrees —
//! exactly the reordering the paper's Figure 8 illustrates.

use mib_core::instruction::{InstrKind, LaneSource, LaneWrite, NetInstruction, WriteMode};
use mib_sparse::ldl::LdlSymbolic;
use mib_sparse::CscMatrix;

use crate::kernel::KernelBuilder;
use crate::layout::{Allocator, Layout};
use crate::route::RouteSpace;
use crate::trisolve::FactorLayout;

/// Emits the numeric factorization kernel for the (permuted, upper
/// triangle) matrix `a` with symbolic analysis `sym`, writing `L`, `D` and
/// `D⁻¹` into `fl`. `y` is a scratch layout of length `n` that must start
/// (and is left) all-zero.
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
    let l_col_ptr = {
        // Recover column pointers from the elimination-tree column counts.
        let mut ptr = vec![0usize; n + 1];
        for (i, &c) in sym.etree().col_counts().iter().enumerate() {
            ptr[i + 1] = ptr[i] + c;
        }
        ptr
    };
    // Row index of every L position, rebuilt as rows are processed (the
    // same replay the reference numeric factorization performs).
    let mut l_rows = vec![0usize; l_col_ptr[n]];
    let mut fill = vec![0usize; n];
    let d = fl.d();
    let dinv = fl.dinv();

    // One column's entries and one instruction's HBM words, reused.
    let mut entries: Vec<(usize, f64)> = Vec::new();
    let mut stream = Vec::new();
    for k in 0..n {
        // ---- Load phase: scatter column k of A into y (and D[k]). ----
        entries.clear();
        entries.extend(a.col(k));
        let mut idx = 0usize;
        let mut saw_diag = false;
        while idx < entries.len() {
            let mut used = 0u128; // the lanes taken so far
            let mut inst = NetInstruction::nop(width);
            inst.kind = InstrKind::Elementwise;
            while idx < entries.len() {
                let (i, v) = entries[idx];
                let (lane, addr) = if i == k {
                    saw_diag = true;
                    (d.bank(k), d.addr(k))
                } else {
                    (y.bank(i), y.addr(i))
                };
                if used & (1 << lane) != 0 {
                    break;
                }
                used |= 1 << lane;
                inst.set_input(lane, LaneSource::Stream);
                inst.route(lane, lane);
                inst.set_write(
                    lane,
                    LaneWrite {
                        addr,
                        mode: WriteMode::Store,
                    },
                );
                stream.push((lane, v));
                idx += 1;
            }
            b.push(inst, stream.drain(..));
        }
        assert!(
            saw_diag,
            "kkt matrix must have an explicit diagonal at column {k}"
        );

        // ---- Elimination phase over the row pattern. ----
        let pattern = sym.etree().row_pattern(a, k);
        for &i in &pattern {
            let lane_i = y.bank(i);
            let lane_k = (k) % width;
            // (1) Latch D⁻¹ᵢ at lane i.
            let mut l1 = NetInstruction::nop(width);
            l1.kind = InstrKind::Broadcast;
            l1.set_input(dinv.bank(i), LaneSource::Reg { addr: dinv.addr(i) });
            l1.route(dinv.bank(i), lane_i);
            l1.set_write(
                lane_i,
                LaneWrite {
                    addr: 0,
                    mode: WriteMode::Latch,
                },
            );
            b.push(l1, vec![]);
            // (2) L(k, i) = yᵢ · D⁻¹ᵢ, stored at the next free slot of
            // column i (bank k % C).
            let p_ki = l_col_ptr[i] + fill[i];
            l_rows[p_ki] = k;
            let (bank_ki, addr_ki) = fl.l_loc(p_ki, k);
            debug_assert_eq!(bank_ki, lane_k);
            let mut l2 = NetInstruction::nop(width);
            l2.kind = InstrKind::ColElim;
            l2.set_input(
                lane_i,
                LaneSource::RegTimesLatch {
                    addr: y.addr(i),
                    negate: false,
                },
            );
            l2.route(lane_i, lane_k);
            l2.set_write(
                lane_k,
                LaneWrite {
                    addr: addr_ki,
                    mode: WriteMode::Store,
                },
            );
            b.push(l2, vec![]);
            // (3) Broadcast yᵢ into the latches of the update lanes and the
            // pivot lane.
            let update_rows = &l_rows[l_col_ptr[i]..p_ki];
            let mut targets: Vec<usize> = update_rows.iter().map(|&r| r % width).collect();
            targets.push(lane_k);
            targets.sort_unstable();
            targets.dedup();
            let mut l3 = NetInstruction::nop(width);
            l3.kind = InstrKind::Broadcast;
            l3.set_input(lane_i, LaneSource::Reg { addr: y.addr(i) });
            let mut rs = RouteSpace::new(width);
            rs.try_claim_input(lane_i, 0);
            for &t in &targets {
                assert!(rs.try_route(&mut l3, 0, lane_i, t));
                l3.set_write(
                    t,
                    LaneWrite {
                        addr: 0,
                        mode: WriteMode::Latch,
                    },
                );
            }
            b.push(l3, vec![]);
            // (4) Updates: y_r -= L(r, i) · yᵢ, chunked by lane.
            let mut uidx = 0usize;
            while uidx < update_rows.len() {
                let mut used = 0u128; // the lanes taken so far
                let mut upd = NetInstruction::nop(width);
                upd.kind = InstrKind::ColElim;
                while uidx < update_rows.len() {
                    let r = update_rows[uidx];
                    let lane = r % width;
                    if used & (1 << lane) != 0 {
                        break;
                    }
                    used |= 1 << lane;
                    let p = l_col_ptr[i] + uidx;
                    upd.set_input(
                        lane,
                        LaneSource::RegTimesLatch {
                            addr: fl.l_loc(p, r).1,
                            negate: true,
                        },
                    );
                    upd.route(lane, lane);
                    upd.set_write(
                        lane,
                        LaneWrite {
                            addr: y.addr(r),
                            mode: WriteMode::Add,
                        },
                    );
                    uidx += 1;
                }
                b.push(upd, vec![]);
            }
            // (5) D[k] -= yᵢ · L(k, i).
            let mut l5 = NetInstruction::nop(width);
            l5.kind = InstrKind::ColElim;
            l5.set_input(
                lane_k,
                LaneSource::RegTimesLatch {
                    addr: addr_ki,
                    negate: true,
                },
            );
            l5.route(lane_k, lane_k);
            l5.set_write(
                lane_k,
                LaneWrite {
                    addr: d.addr(k),
                    mode: WriteMode::Add,
                },
            );
            b.push(l5, vec![]);
            // (6) Clear yᵢ for the next row (preserves the all-zero scratch
            // invariant).
            let mut l6 = NetInstruction::nop(width);
            l6.kind = InstrKind::Elementwise;
            l6.set_input(lane_i, LaneSource::RegTimesImm { addr: 0, imm: 0.0 });
            l6.route(lane_i, lane_i);
            l6.set_write(
                lane_i,
                LaneWrite {
                    addr: y.addr(i),
                    mode: WriteMode::Store,
                },
            );
            b.push(l6, vec![]);
            fill[i] += 1;
        }
        // ---- Pivot reciprocal. ----
        let lane_k = k % width;
        let mut rec = NetInstruction::nop(width);
        rec.kind = InstrKind::Elementwise;
        rec.set_input(lane_k, LaneSource::Reg { addr: d.addr(k) });
        rec.route(lane_k, dinv.bank(k));
        rec.set_write(
            dinv.bank(k),
            LaneWrite {
                addr: dinv.addr(k),
                mode: WriteMode::StoreRecip,
            },
        );
        b.push(rec, vec![]);
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
    let fl = FactorLayout::plan(&l_col_ptr, &l_rows, n, alloc);
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
