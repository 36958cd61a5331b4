//! Sparse matrix–vector multiplication kernels.
//!
//! Two generators, matching Section IV.B of the paper ("the multiplication
//! of A is performed with the MAC primitive instruction and Aᵀ is performed
//! with column elimination instruction"):
//!
//! * [`mac_spmv`] — row-oriented `y = A·x`: each row's nonzeros stream from
//!   HBM in CSR order, multiply register-resident `x` elements, and reduce
//!   through the MAC tree to the row's destination bank. Rows with more
//!   nonzeros than routable lanes split into chunks that accumulate through
//!   the writeback port. When an operand's home bank is already taken
//!   inside a chunk, the generator either starts a new chunk or (with
//!   prefetching enabled) emits a bank-to-bank **prefetch copy** that the
//!   first-fit scheduler hides in an earlier slot — the structural-hazard
//!   resolution of Section IV.A.
//! * [`col_spmv`] — column-oriented `y = Aᵀ·w`: for each row `i` of `A`,
//!   `w_i` fans out through the butterfly (Fig. 6b), each target lane's
//!   output multiplier scales it by the streamed matrix value, and the
//!   accumulating writeback folds the products into `y`.
//!
//! Each MAC chunk is one [`NetInstruction::reduction`] and each fan-out
//! one single-group [`NetInstruction::multicast`], both built from the
//! chunk's lane mask. A fan-out's chunk is a maximal run of distinct target
//! lanes, cut by the crate's one run cutter (`elementwise::distinct_runs`,
//! which the triangular solves and the factorization share); a MAC chunk
//! keeps its own loop, because it may also take a prefetched copy's lane.

use std::collections::HashMap;

use mib_core::instruction::{InstrKind, LaneSource, LaneWrite, NetInstruction, OutMul, WriteMode};
use mib_sparse::{CscMatrix, CsrMatrix};

use crate::elementwise::{add, distinct_runs, store, transfer, ZERO};
use crate::kernel::KernelBuilder;
use crate::layout::{Allocator, Layout};

/// Options for the MAC generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmvOptions {
    /// Resolve intra-chunk bank conflicts with prefetch copies instead of
    /// starting a new chunk (Section IV.A). Ablation knob.
    pub prefetch: bool,
}

impl Default for SpmvOptions {
    fn default() -> Self {
        SpmvOptions { prefetch: true }
    }
}

/// Builds `y = A·x` (or `y += A·x` when `accumulate`) with the MAC
/// primitive. `a` is the matrix in CSR form; `x` and `y` are cyclic
/// register layouts.
///
/// # Panics
///
/// Panics if layout lengths do not match the matrix shape.
pub fn mac_spmv(
    b: &mut KernelBuilder,
    alloc: &mut Allocator,
    a: &CsrMatrix,
    x: Layout,
    y: Layout,
    accumulate: bool,
    opts: SpmvOptions,
) {
    assert_eq!(x.len, a.ncols(), "x layout does not match A columns");
    assert_eq!(y.len, a.nrows(), "y layout does not match A rows");
    let width = b.width();
    // Copies of x elements made by prefetch instructions: x index -> extra
    // locations.
    let mut copies: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
    // One row's entries, one chunk's `(lane, matval)` operands and each
    // operand lane's register address, reused.
    let mut entries: Vec<(usize, f64)> = Vec::new();
    let mut chunk: Vec<(usize, f64)> = Vec::new();
    let mut addr_of = vec![0; width];

    for r in 0..a.nrows() {
        entries.clear();
        entries.extend(a.row(r));
        if entries.is_empty() {
            if !accumulate {
                // y_r = 0.
                let (lane, addr) = y.loc(r);
                let inst =
                    NetInstruction::straight(width, InstrKind::Elementwise, 1 << lane, |_| {
                        (ZERO, store(addr))
                    });
                b.push(inst, []);
            }
            continue;
        }
        let dst_lane = y.bank(r);
        let mut first_chunk = true;
        let mut idx = 0usize;
        while idx < entries.len() {
            // Greedily fill one chunk with operands on distinct lanes.
            let mut used = 0u128; // the lanes holding an operand
            let is_free = |used: u128, lane: usize| used & (1 << lane) == 0;
            chunk.clear();
            while idx < entries.len() && chunk.len() < width {
                let (j, v) = entries[idx];
                let home = x.loc(j);
                let mut placed = None;
                if is_free(used, home.0) {
                    placed = Some(home);
                } else if let Some(locs) = copies.get(&j) {
                    placed = locs.iter().copied().find(|&(bank, _)| is_free(used, bank));
                }
                if placed.is_none() && opts.prefetch {
                    // Prefetch x_j into a free lane.
                    if let Some(free) = (0..width).find(|&l| is_free(used, l)) {
                        let scratch = alloc.alloc_rows(1);
                        let x_j = LaneSource::Reg { addr: home.1 };
                        let pf = transfer(
                            width,
                            InstrKind::Prefetch,
                            home.0,
                            x_j,
                            free,
                            store(scratch),
                        );
                        b.push(pf, []);
                        copies.entry(j).or_default().push((free, scratch));
                        placed = Some((free, scratch));
                    }
                }
                match placed {
                    Some((lane, addr)) => {
                        used |= 1 << lane;
                        addr_of[lane] = addr;
                        chunk.push((lane, v));
                        idx += 1;
                    }
                    None => break, // chunk full for this bank pattern
                }
            }
            debug_assert!(!chunk.is_empty(), "chunk must make progress");
            // Emit the MAC instruction: multiply and reduce to dst_lane
            // (a single reduction tree is always routable).
            let mode = if first_chunk && !accumulate {
                WriteMode::Store
            } else {
                WriteMode::Add
            };
            let source = |lane: usize| LaneSource::RegTimesStream {
                addr: addr_of[lane],
                negate: false,
            };
            let write = LaneWrite {
                addr: y.addr(r),
                mode,
            };
            let inst =
                NetInstruction::reduction(width, InstrKind::Mac, used, dst_lane, source, write);
            b.push(inst, chunk.iter().copied());
            first_chunk = false;
        }
    }
}

/// Builds `y = Aᵀ·w` (or `y += Aᵀ·w` when `accumulate`) with the column
/// elimination primitive: `w_i` fans out through the butterfly to the
/// lanes owning the target `y` elements (Fig. 6b), the **output
/// multiplier** of each target lane scales it by the streamed matrix
/// value, and the accumulating writeback folds it into `y` — one network
/// instruction per chunk of distinct target banks.
///
/// `a` is in CSR form (rows of `A`); `w` has length `nrows`, `y` length
/// `ncols`.
///
/// # Panics
///
/// Panics if layout lengths do not match the matrix shape.
pub fn col_spmv(
    b: &mut KernelBuilder,
    alloc: &mut Allocator,
    a: &CsrMatrix,
    w: Layout,
    y: Layout,
    accumulate: bool,
) {
    assert_eq!(w.len, a.nrows(), "w layout does not match A rows");
    assert_eq!(y.len, a.ncols(), "y layout does not match A columns");
    let width = b.width();
    if !accumulate {
        crate::elementwise::zero(b, y);
    }
    // High-degree y elements would serialize on the accumulating writeback
    // (one RMW per pipeline latency); give them rotating partial slots that
    // are tree-folded afterwards.
    const PARTIALS: usize = 8;
    let mut degree = vec![0usize; a.ncols()];
    for i in 0..a.nrows() {
        for (j, _) in a.row(i) {
            degree[j] += 1;
        }
    }
    // Per column with partial slots: their base address and the touches
    // so far.
    let mut partials: Vec<Option<(usize, usize)>> = vec![None; a.ncols()];
    for (j, &d) in degree.iter().enumerate() {
        if d > PARTIALS {
            let base = alloc.alloc_rows(PARTIALS);
            partials[j] = Some((base, 0));
            // Zero this column's partial slots.
            let lane = y.bank(j);
            for p in 0..PARTIALS {
                let z = NetInstruction::straight(width, InstrKind::Elementwise, 1 << lane, |_| {
                    (ZERO, store(base + p))
                });
                b.push(z, []);
            }
        }
    }
    // One row's entries and one instruction's HBM words, reused, and the
    // `y` address each lane of the instruction accumulates into.
    let mut entries: Vec<(usize, f64)> = Vec::new();
    let mut stream = Vec::new();
    let mut addr_of = [0usize; 128];
    for i in 0..a.nrows() {
        entries.clear();
        entries.extend(a.row(i));
        let (src_lane, src_addr) = w.loc(i);
        for (run, used) in distinct_runs(&entries, |&(j, _)| y.bank(j)) {
            for &(j, v) in &entries[run] {
                let lane = y.bank(j);
                addr_of[lane] = match &mut partials[j] {
                    Some((base, touches)) => {
                        let slot = *base + *touches % PARTIALS;
                        *touches += 1;
                        slot
                    }
                    None => y.addr(j),
                };
                // Output-phase stream key: width + lane (consumed after all
                // input-phase words of the issue slot).
                stream.push((width + lane, v));
            }
            // Multicast from one source is always routable.
            let src = LaneSource::Reg { addr: src_addr };
            let groups = [(src_lane, src, used)];
            let inst = NetInstruction::multicast(width, InstrKind::ColElim, &groups, |lane| {
                (add(addr_of[lane]), OutMul::MulStream { negate: false })
            });
            b.push(inst, stream.drain(..));
        }
    }
    // Fold the partial slots into y (binary tree over addresses; folds of
    // different columns pack into shared slots when their lanes differ).
    for (j, partial) in partials.iter().enumerate() {
        let Some((base, _)) = *partial else {
            continue;
        };
        // `reg[to] += reg[from]` on the column's lane.
        let mut fold = |from: usize, to: usize| {
            let inst = NetInstruction::straight(width, InstrKind::ColElim, 1 << y.bank(j), |_| {
                (LaneSource::Reg { addr: from }, add(to))
            });
            b.push(inst, []);
        };
        let mut span = PARTIALS;
        while span > 1 {
            span /= 2;
            for p in 0..span {
                fold(base + p + span, base + p);
            }
        }
        fold(base, y.addr(j));
    }
}

/// Expands an upper-triangle-stored symmetric matrix into its full form —
/// used to run the MAC generator over the objective matrix `P`.
pub fn symmetrize_upper(upper: &CscMatrix) -> CscMatrix {
    let n = upper.ncols();
    let mut rows = Vec::with_capacity(2 * upper.nnz());
    let mut cols = Vec::with_capacity(2 * upper.nnz());
    let mut vals = Vec::with_capacity(2 * upper.nnz());
    for (i, j, v) in upper.iter() {
        rows.push(i);
        cols.push(j);
        vals.push(v);
        if i != j {
            rows.push(j);
            cols.push(i);
            vals.push(v);
        }
    }
    CscMatrix::from_triplet_parts(n, n, &rows, &cols, &vals)
        .expect("mirroring preserves csc invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementwise::load_vec;
    use crate::schedule::{schedule, Schedule, ScheduleOptions};
    use mib_core::hbm::HbmStream;
    use mib_core::machine::{HazardPolicy, Machine};
    use mib_core::MibConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> MibConfig {
        MibConfig {
            width: 8,
            bank_depth: 4096,
            clock_hz: 1e6,
        }
    }

    fn run_schedule(s: &Schedule) -> Machine {
        let mut m = Machine::new(cfg());
        let mut hbm = HbmStream::new(s.hbm.clone());
        m.run(&s.program, &mut hbm, HazardPolicy::Strict)
            .expect("scheduled kernel must be hazard-free");
        m
    }

    fn read_layout(m: &Machine, v: Layout) -> Vec<f64> {
        (0..v.len)
            .map(|e| m.regs().read(v.bank(e), v.addr(e)).unwrap())
            .collect()
    }

    fn random_sparse(nrows: usize, ncols: usize, density: f64, seed: u64) -> CscMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..nrows {
            for j in 0..ncols {
                if rng.gen::<f64>() < density {
                    rows.push(i);
                    cols.push(j);
                    vals.push(rng.gen_range(-2.0..2.0));
                }
            }
        }
        CscMatrix::from_triplet_parts(nrows, ncols, &rows, &cols, &vals).unwrap()
    }

    fn check_mac(a: &CscMatrix, seed: u64, prefetch: bool) {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(seed);
        let xv: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut b = KernelBuilder::new("spmv", c.width, c.latency());
        let mut alloc = Allocator::new(c.width);
        let x = alloc.alloc(a.ncols());
        let y = alloc.alloc(a.nrows());
        load_vec(&mut b, x, &xv);
        mac_spmv(
            &mut b,
            &mut alloc,
            &a.to_csr(),
            x,
            y,
            false,
            SpmvOptions { prefetch },
        );
        let s = schedule(&b.finish(), ScheduleOptions::default());
        let m = run_schedule(&s);
        let got = read_layout(&m, y);
        let want = a.mul_vec(&xv);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "mac mismatch: {g} vs {w}");
        }
    }

    #[test]
    fn mac_matches_reference_with_prefetch() {
        let a = random_sparse(20, 17, 0.3, 1);
        check_mac(&a, 2, true);
    }

    #[test]
    fn mac_matches_reference_without_prefetch() {
        let a = random_sparse(20, 17, 0.3, 3);
        check_mac(&a, 4, false);
    }

    #[test]
    fn mac_handles_dense_rows_and_empty_rows() {
        // One dense row (forces chunking), one empty row.
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for j in 0..30 {
            rows.push(0);
            cols.push(j);
            vals.push(1.0 + j as f64);
        }
        rows.push(2);
        cols.push(5);
        vals.push(-3.0);
        let a = CscMatrix::from_triplet_parts(3, 30, &rows, &cols, &vals).unwrap();
        check_mac(&a, 5, true);
    }

    #[test]
    fn col_spmv_matches_reference() {
        let a = random_sparse(19, 23, 0.25, 7);
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(8);
        let wv: Vec<f64> = (0..a.nrows()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut b = KernelBuilder::new("at_mul", c.width, c.latency());
        let mut alloc = Allocator::new(c.width);
        let w = alloc.alloc(a.nrows());
        let y = alloc.alloc(a.ncols());
        load_vec(&mut b, w, &wv);
        col_spmv(&mut b, &mut alloc, &a.to_csr(), w, y, false);
        let s = schedule(&b.finish(), ScheduleOptions::default());
        let m = run_schedule(&s);
        let got = read_layout(&m, y);
        let want = a.tr_mul_vec(&wv);
        for (g, wnt) in got.iter().zip(&want) {
            assert!((g - wnt).abs() < 1e-12, "col spmv mismatch: {g} vs {wnt}");
        }
    }

    #[test]
    fn symmetric_product_via_symmetrize() {
        let upper = {
            let full = random_sparse(12, 12, 0.3, 9);
            // Make symmetric by taking upper triangle.
            full.upper_triangle().unwrap()
        };
        let full = symmetrize_upper(&upper);
        let xv: Vec<f64> = (0..12).map(|i| (i as f64) / 3.0 - 2.0).collect();
        let want = upper.sym_upper_mul_vec(&xv);
        assert_eq!(full.mul_vec(&xv), want);
        check_mac(&full, 10, true);
    }

    #[test]
    fn multi_issue_beats_single_issue_on_spmv() {
        let a = random_sparse(40, 40, 0.1, 11);
        let c = cfg();
        let mut b = KernelBuilder::new("spmv", c.width, c.latency());
        let mut alloc = Allocator::new(c.width);
        let x = alloc.alloc(40);
        let y = alloc.alloc(40);
        load_vec(&mut b, x, &vec![1.0; 40]);
        mac_spmv(
            &mut b,
            &mut alloc,
            &a.to_csr(),
            x,
            y,
            false,
            SpmvOptions::default(),
        );
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
            multi.slots() * 2 < single.slots(),
            "multi-issue {} vs single-issue {}",
            multi.slots(),
            single.slots()
        );
        // Both must execute correctly.
        let m1 = run_schedule(&multi);
        let m2 = run_schedule(&single);
        assert_eq!(read_layout(&m1, y), read_layout(&m2, y));
    }
}
