//! Element-wise kernel builders: the vector half of the top-level ISA
//! (`axpby`, `ew_prod`, `select_min`/`select_max` projections, `norm_inf`,
//! `load_vec`).
//!
//! Every builder appends logical instructions to a shared
//! [`KernelBuilder`], so dependencies against earlier kernels (e.g. a
//! triangular solve that produced the vector being scaled) are tracked
//! automatically. Every instruction is built whole from lane masks: a
//! lane-to-same-lane one by [`NetInstruction::straight`], the MAC tree of
//! [`sum_reduce`] by [`NetInstruction::reduction`], and each pass of the
//! cross-lane folds of [`norm_inf`] and [`sum_reduce`] by one multi-group
//! [`NetInstruction::multicast`].

use std::ops::Range;

use mib_core::instruction::{
    lanes, InstrKind, LaneSource, LaneWrite, NetInstruction, OutMul, WriteMode,
};

use crate::kernel::KernelBuilder;
use crate::layout::Layout;

/// Splits `0..len` into chunks whose elements map to distinct lanes under a
/// cyclic layout: consecutive runs of `width`, each as its first element
/// and its lane mask (element `start + lane` sits on `lane`).
pub(crate) fn chunks(len: usize, width: usize) -> impl Iterator<Item = (usize, u128)> {
    (0..len)
        .step_by(width)
        .map(move |start| (start, first_lanes((len - start).min(width))))
}

/// Cuts `items` into maximal runs of distinct lanes, in order: each run as
/// its index range and its lane mask. A run ends just before the first
/// item whose lane (`lane` of the item, below 128) it already holds.
pub(crate) fn distinct_runs<'a, T>(
    items: &'a [T],
    lane: impl Fn(&T) -> usize + 'a,
) -> impl Iterator<Item = (Range<usize>, u128)> + 'a {
    let mut start = 0;
    std::iter::from_fn(move || {
        if start == items.len() {
            return None;
        }
        let mut mask = 0u128;
        let mut end = start;
        for item in &items[start..] {
            let bit = 1u128 << lane(item);
            if mask & bit != 0 {
                break;
            }
            mask |= bit;
            end += 1;
        }
        let run = start..end;
        start = end;
        Some((run, mask))
    })
}

/// The lanes `0..n` (`1 ≤ n ≤ 128`).
fn first_lanes(n: usize) -> u128 {
    u128::MAX >> (128 - n)
}

/// A straight-through element-wise instruction over `mask`.
fn straight(
    width: usize,
    mask: u128,
    lane: impl FnMut(usize) -> (LaneSource, LaneWrite),
) -> NetInstruction {
    NetInstruction::straight(width, InstrKind::Elementwise, mask, lane)
}

/// A source that reads nothing and yields `0.0`.
pub(crate) const ZERO: LaneSource = LaneSource::RegTimesImm { addr: 0, imm: 0.0 };

/// A plain store to `addr`.
pub(crate) fn store(addr: usize) -> LaneWrite {
    LaneWrite {
        addr,
        mode: WriteMode::Store,
    }
}

/// A load of the lane's broadcast latch.
pub(crate) const LATCH: LaneWrite = LaneWrite {
    addr: 0,
    mode: WriteMode::Latch,
};

/// An accumulating write to `addr`.
pub(crate) fn add(addr: usize) -> LaneWrite {
    LaneWrite {
        addr,
        mode: WriteMode::Add,
    }
}

/// One value moved across the network: lane `from` reads `src`, lane `to`
/// writes it with `write`.
pub(crate) fn transfer(
    width: usize,
    kind: InstrKind,
    from: usize,
    src: LaneSource,
    to: usize,
    write: LaneWrite,
) -> NetInstruction {
    NetInstruction::multicast(width, kind, &[(from, src, 1 << to)], |_| {
        (write, OutMul::Bypass)
    })
}

/// Writes zeros over a layout.
pub fn zero(b: &mut KernelBuilder, v: Layout) {
    let width = b.width();
    for (start, mask) in chunks(v.len, width) {
        let inst = straight(width, mask, |lane| (ZERO, store(v.addr(start + lane))));
        b.push(inst, []);
    }
}

/// Streams `values` from HBM into the layout (`load_vec`).
///
/// # Panics
///
/// Panics if `values.len() != v.len`.
pub fn load_vec(b: &mut KernelBuilder, v: Layout, values: &[f64]) {
    assert_eq!(values.len(), v.len, "load_vec length mismatch");
    let width = b.width();
    for (start, mask) in chunks(v.len, width) {
        let inst = straight(width, mask, |lane| {
            (LaneSource::Stream, store(v.addr(start + lane)))
        });
        b.push(inst, lanes(mask).map(|lane| (lane, values[start + lane])));
    }
}

/// `dst = s * src` (or `dst += s * src` with [`WriteMode::Add`]).
///
/// `src` and `dst` must have the same length (banks align automatically
/// under cyclic layouts).
pub fn scale(b: &mut KernelBuilder, src: Layout, dst: Layout, s: f64, mode: WriteMode) {
    assert_eq!(src.len, dst.len, "scale length mismatch");
    let width = b.width();
    for (start, mask) in chunks(src.len, width) {
        let inst = straight(width, mask, |lane| {
            let e = start + lane;
            let addr = src.addr(e);
            let write = LaneWrite {
                addr: dst.addr(e),
                mode,
            };
            (LaneSource::RegTimesImm { addr, imm: s }, write)
        });
        b.push(inst, []);
    }
}

/// `dst = x .* y` via the broadcast-latch path: one instruction latches a
/// chunk of `y`, the next multiplies the matching chunk of `x` against the
/// latches (`ew_prod`).
pub fn ew_prod(b: &mut KernelBuilder, x: Layout, y: Layout, dst: Layout, mode: WriteMode) {
    assert_eq!(x.len, y.len, "ew_prod length mismatch");
    assert_eq!(x.len, dst.len, "ew_prod length mismatch");
    let width = b.width();
    for (start, mask) in chunks(x.len, width) {
        let latch = straight(width, mask, |lane| {
            (
                LaneSource::Reg {
                    addr: y.addr(start + lane),
                },
                LATCH,
            )
        });
        b.push(latch, []);
        let mul = straight(width, mask, |lane| {
            let e = start + lane;
            let src = LaneSource::RegTimesLatch {
                addr: x.addr(e),
                negate: false,
            };
            let write = LaneWrite {
                addr: dst.addr(e),
                mode,
            };
            (src, write)
        });
        b.push(mul, []);
    }
}

/// Box projection `dst = min(max(x, l), u)` — `select_max` then
/// `select_min` against register-resident bound vectors.
pub fn clip(b: &mut KernelBuilder, x: Layout, l: Layout, u: Layout, dst: Layout) {
    assert_eq!(x.len, l.len, "clip length mismatch");
    assert_eq!(x.len, u.len, "clip length mismatch");
    assert_eq!(x.len, dst.len, "clip length mismatch");
    let width = b.width();
    // Pass 1: dst = x.
    scale(b, x, dst, 1.0, WriteMode::Store);
    // Pass 2: dst = max(dst, l). Pass 3: dst = min(dst, u).
    for (bounds, mode) in [(l, WriteMode::Max), (u, WriteMode::Min)] {
        for (start, mask) in chunks(x.len, width) {
            let inst = straight(width, mask, |lane| {
                let e = start + lane;
                let write = LaneWrite {
                    addr: dst.addr(e),
                    mode,
                };
                (
                    LaneSource::Reg {
                        addr: bounds.addr(e),
                    },
                    write,
                )
            });
            b.push(inst, []);
        }
    }
}

/// Number of interleaved partial-maximum rows used by [`norm_inf`]; chosen
/// to cover the pipeline latency so the reduction streams at full rate.
const NORM_PARTIALS: usize = 8;

/// `result = ‖x‖∞` (the `norm_inf` reduction), leaving the scalar at
/// `(bank 0, result_addr)`. Uses `NORM_PARTIALS` scratch rows starting at
/// `scratch_base`.
pub fn norm_inf(b: &mut KernelBuilder, x: Layout, scratch_base: usize, result_addr: usize) {
    let width = b.width();
    let every = first_lanes(width);
    let max_abs = |addr| LaneWrite {
        addr,
        mode: WriteMode::MaxAbs,
    };
    // Zero the partial rows and the result.
    for row in 0..NORM_PARTIALS {
        b.push(
            straight(width, every, |_| (ZERO, store(scratch_base + row))),
            [],
        );
    }
    // Accumulate |x| into rotating partial rows.
    for (c, (start, mask)) in chunks(x.len, width).enumerate() {
        let row = scratch_base + c % NORM_PARTIALS;
        let inst = straight(width, mask, |lane| {
            (
                LaneSource::Reg {
                    addr: x.addr(start + lane),
                },
                max_abs(row),
            )
        });
        b.push(inst, []);
    }
    // Fold the partial rows into row 0 with a binary tree over addresses
    // (each pass is one full-width instruction; passes are latency-spaced).
    let mut span = NORM_PARTIALS;
    while span > 1 {
        span /= 2;
        for row in 0..span {
            let src = LaneSource::Reg {
                addr: scratch_base + row + span,
            };
            b.push(
                straight(width, every, |_| (src, max_abs(scratch_base + row))),
                [],
            );
        }
    }
    // Cross-lane fold into (0, result_addr), max-combining.
    fold_lanes(b, width, scratch_base, WriteMode::MaxAbs);
    let src = LaneSource::Reg { addr: scratch_base };
    b.push(straight(width, 1, |_| (src, store(result_addr))), []);
}

/// Sum-reduces a vector into the scalar at `(bank 0, result_addr)` using
/// the MAC tree (each chunk reduces through the network in one
/// instruction; partial sums rotate over `NORM_PARTIALS` scratch slots to
/// hide the accumulator latency). Used for dot products in the PCG kernel.
pub fn sum_reduce(b: &mut KernelBuilder, x: Layout, scratch_base: usize, result_addr: usize) {
    let width = b.width();
    let partial_lanes = NORM_PARTIALS.min(width);
    // Zero the partial slots (one scratch row, spread across lanes).
    let zero_partials = straight(width, first_lanes(partial_lanes), |_| {
        (ZERO, store(scratch_base))
    });
    b.push(zero_partials, []);
    // Each chunk reduces through the MAC tree into a rotating partial lane
    // (the rotation hides the accumulator latency).
    for (c, (start, mask)) in chunks(x.len, width).enumerate() {
        let source = |lane| LaneSource::Reg {
            addr: x.addr(start + lane),
        };
        let dst = c % partial_lanes;
        let inst =
            NetInstruction::reduction(width, InstrKind::Mac, mask, dst, source, add(scratch_base));
        b.push(inst, []);
    }
    // Fold the partial lanes into lane 0, summing.
    fold_lanes(b, partial_lanes, scratch_base, WriteMode::Add);
    let src = LaneSource::Reg { addr: scratch_base };
    b.push(straight(width, 1, |_| (src, store(result_addr))), []);
}

/// Folds lanes `0..n` (a power of two) of row `addr` into lane 0 of that
/// row with `mode`: a binary tree over lanes, log₂n passes, each moving
/// the upper half of the live lanes onto the lower half as one fan-out
/// instruction with a group per moved lane.
fn fold_lanes(b: &mut KernelBuilder, n: usize, addr: usize, mode: WriteMode) {
    let width = b.width();
    let src = LaneSource::Reg { addr };
    let write = LaneWrite { addr, mode };
    let mut groups = Vec::with_capacity(n / 2);
    let mut half = n;
    while half > 1 {
        half /= 2;
        groups.clear();
        groups.extend((0..half).map(|lo| (lo + half, src, 1u128 << lo)));
        let inst = NetInstruction::multicast(width, InstrKind::Elementwise, &groups, |_| {
            (write, OutMul::Bypass)
        });
        b.push(inst, []);
    }
}

/// Broadcasts the scalar at `(bank, addr)` into the latches of every lane.
pub fn broadcast_scalar(b: &mut KernelBuilder, bank: usize, addr: usize) {
    let width = b.width();
    let src = LaneSource::Reg { addr };
    let every = first_lanes(width);
    let inst =
        NetInstruction::multicast(width, InstrKind::Broadcast, &[(bank, src, every)], |_| {
            (LATCH, OutMul::Bypass)
        });
    b.push(inst, []);
}

/// `dst ⟵op⟵ latch * src` element-wise, where every lane's latch holds the
/// same runtime scalar (loaded by [`broadcast_scalar`]).
pub fn scale_by_latch(
    b: &mut KernelBuilder,
    src: Layout,
    dst: Layout,
    negate: bool,
    mode: WriteMode,
) {
    assert_eq!(src.len, dst.len, "scale_by_latch length mismatch");
    let width = b.width();
    for (start, mask) in chunks(src.len, width) {
        let inst = straight(width, mask, |lane| {
            let e = start + lane;
            let addr = src.addr(e);
            let write = LaneWrite {
                addr: dst.addr(e),
                mode,
            };
            (LaneSource::RegTimesLatch { addr, negate }, write)
        });
        b.push(inst, []);
    }
}

/// Stores the reciprocal of the scalar at `src` into `dst` (same bank).
pub fn scalar_recip(b: &mut KernelBuilder, bank: usize, src: usize, dst: usize) {
    let write = LaneWrite {
        addr: dst,
        mode: WriteMode::StoreRecip,
    };
    let src = LaneSource::Reg { addr: src };
    b.push(straight(b.width(), 1 << bank, |_| (src, write)), []);
}

/// `dst = a * b` for two scalars in the same bank: latches `a`, multiplies
/// by `b`.
pub fn scalar_mul(b: &mut KernelBuilder, bank: usize, a_addr: usize, b_addr: usize, dst: usize) {
    let width = b.width();
    let a = LaneSource::Reg { addr: a_addr };
    b.push(straight(width, 1 << bank, |_| (a, LATCH)), []);
    let mul = LaneSource::RegTimesLatch {
        addr: b_addr,
        negate: false,
    };
    b.push(straight(width, 1 << bank, |_| (mul, store(dst))), []);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Allocator;
    use crate::schedule::{schedule, ScheduleOptions};
    use mib_core::hbm::HbmStream;
    use mib_core::machine::{HazardPolicy, Machine};
    use mib_core::MibConfig;
    use proptest::prelude::*;

    fn run(b: KernelBuilder) -> Machine {
        run_with(
            b,
            Machine::new(MibConfig {
                width: 8,
                bank_depth: 256,
                clock_hz: 1e6,
            }),
        )
    }

    fn run_with(b: KernelBuilder, mut m: Machine) -> Machine {
        let k = b.finish();
        let s = schedule(&k, ScheduleOptions::default());
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

    fn builder() -> (KernelBuilder, Allocator) {
        let cfg = MibConfig {
            width: 8,
            bank_depth: 256,
            clock_hz: 1e6,
        };
        (KernelBuilder::new("t", 8, cfg.latency()), Allocator::new(8))
    }

    #[test]
    fn load_and_scale() {
        let (mut b, mut a) = builder();
        let v = a.alloc(10);
        let w = a.alloc(10);
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        load_vec(&mut b, v, &data);
        scale(&mut b, v, w, 2.5, WriteMode::Store);
        let m = run(b);
        assert_eq!(
            read_layout(&m, w),
            data.iter().map(|x| x * 2.5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn axpby_via_two_scales() {
        let (mut b, mut a) = builder();
        let x = a.alloc(9);
        let y = a.alloc(9);
        let z = a.alloc(9);
        load_vec(&mut b, x, &[1.0; 9]);
        load_vec(&mut b, y, &[2.0; 9]);
        scale(&mut b, x, z, 3.0, WriteMode::Store);
        scale(&mut b, y, z, 0.5, WriteMode::Add);
        let m = run(b);
        assert_eq!(read_layout(&m, z), vec![4.0; 9]);
    }

    #[test]
    fn elementwise_product() {
        let (mut b, mut a) = builder();
        let x = a.alloc(11);
        let y = a.alloc(11);
        let z = a.alloc(11);
        let xv: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let yv: Vec<f64> = (0..11).map(|i| (i as f64) - 5.0).collect();
        load_vec(&mut b, x, &xv);
        load_vec(&mut b, y, &yv);
        ew_prod(&mut b, x, y, z, WriteMode::Store);
        let m = run(b);
        let expect: Vec<f64> = xv.iter().zip(&yv).map(|(a, b)| a * b).collect();
        assert_eq!(read_layout(&m, z), expect);
    }

    #[test]
    fn clip_projects_onto_box() {
        let (mut b, mut a) = builder();
        let x = a.alloc(5);
        let l = a.alloc(5);
        let u = a.alloc(5);
        let z = a.alloc(5);
        load_vec(&mut b, x, &[-3.0, 0.5, 2.0, 1.0, -0.1]);
        load_vec(&mut b, l, &[0.0, 0.0, 0.0, 0.0, 0.0]);
        load_vec(&mut b, u, &[1.0, 1.0, 1.0, 1.0, 1.0]);
        clip(&mut b, x, l, u, z);
        let m = run(b);
        assert_eq!(read_layout(&m, z), vec![0.0, 0.5, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn norm_inf_reduces_correctly() {
        let (mut b, mut a) = builder();
        let x = a.alloc(37);
        let scratch = a.alloc_rows(NORM_PARTIALS);
        let result = a.alloc_rows(1);
        let data: Vec<f64> = (0..37).map(|i| ((i * 7) % 23) as f64 - 11.0).collect();
        load_vec(&mut b, x, &data);
        norm_inf(&mut b, x, scratch, result);
        let m = run(b);
        let expect = data.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        assert_eq!(m.regs().read(0, result).unwrap(), expect);
    }

    #[test]
    fn sum_reduce_matches_sum() {
        let (mut b, mut a) = builder();
        let x = a.alloc(29);
        let scratch = a.alloc_rows(NORM_PARTIALS);
        let result = a.alloc_rows(1);
        let data: Vec<f64> = (0..29).map(|i| (i as f64) * 0.25 - 3.0).collect();
        load_vec(&mut b, x, &data);
        sum_reduce(&mut b, x, scratch, result);
        let m = run(b);
        let expect: f64 = data.iter().sum();
        let got = m.regs().read(0, result).unwrap();
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn scalar_broadcast_and_scale() {
        let (mut b, mut a) = builder();
        let x = a.alloc(10);
        let y = a.alloc(10);
        let s = a.alloc_rows(1);
        load_vec(&mut b, x, &[2.0; 10]);
        // Write 3.0 into the scalar slot via a stream load of length 1.
        let sl = Layout {
            base: s,
            len: 1,
            width: 8,
        };
        load_vec(&mut b, sl, &[3.0]);
        broadcast_scalar(&mut b, 0, s);
        scale_by_latch(&mut b, x, y, false, WriteMode::Store);
        let m = run(b);
        assert_eq!(read_layout(&m, y), vec![6.0; 10]);
    }

    #[test]
    fn scalar_recip_and_mul() {
        let (mut b, mut a) = builder();
        let s = a.alloc_rows(4);
        let sl = Layout {
            base: s,
            len: 2,
            width: 8,
        };
        // Two scalars... cyclic layout puts them in banks 0 and 1; use two
        // single-element loads into bank 0 instead.
        let _ = sl;
        load_vec(
            &mut b,
            Layout {
                base: s,
                len: 1,
                width: 8,
            },
            &[4.0],
        );
        load_vec(
            &mut b,
            Layout {
                base: s + 1,
                len: 1,
                width: 8,
            },
            &[10.0],
        );
        scalar_recip(&mut b, 0, s, s + 2); // 1/4
        scalar_mul(&mut b, 0, s + 2, s + 1, s + 3); // 10 * 0.25
        let m = run(b);
        assert_eq!(m.regs().read(0, s + 2).unwrap(), 0.25);
        assert_eq!(m.regs().read(0, s + 3).unwrap(), 2.5);
    }

    proptest! {
        /// Random lane sequences at widths 2–128, the top lane included:
        /// the runs cover every index in order, each mask holds exactly its
        /// run's lanes, and each run stops only at a lane it already holds.
        #[test]
        fn distinct_runs_are_maximal_and_cover_in_order(
            width in 2usize..129,
            draws in proptest::collection::vec(0usize..1 << 16, 0..200),
        ) {
            let seq: Vec<usize> = draws
                .iter()
                .enumerate()
                .map(|(i, &d)| if i % 7 == 3 { width - 1 } else { d % width })
                .collect();
            let mut next = 0;
            for (run, mask) in distinct_runs(&seq, |&l| l) {
                prop_assert_eq!(run.start, next);
                prop_assert!(run.end > run.start);
                let lanes = seq[run.clone()].iter().fold(0u128, |m, &l| m | 1 << l);
                prop_assert_eq!(mask, lanes);
                prop_assert_eq!(mask.count_ones() as usize, run.len());
                if let Some(&l) = seq.get(run.end) {
                    prop_assert!(mask & 1 << l != 0);
                }
                next = run.end;
            }
            prop_assert_eq!(next, seq.len());
        }
    }

    #[test]
    fn distinct_runs_of_nothing_is_empty() {
        assert_eq!(distinct_runs(&[] as &[usize], |&l| l).count(), 0);
    }

    #[test]
    fn zero_clears_layout() {
        let (mut b, mut a) = builder();
        let x = a.alloc(12);
        load_vec(&mut b, x, &[9.0; 12]);
        zero(&mut b, x);
        let m = run(b);
        assert_eq!(read_layout(&m, x), vec![0.0; 12]);
    }
}
