//! Vector permutation kernels.
//!
//! A butterfly realizes only those permutations whose transfers use
//! node-disjoint paths; general permutations split into several passes.
//! The generator packs transfers into open instructions first-fit: each
//! `(source element → destination slot)` transfer claims its unique path
//! through a [`RouteSpace`]; when no open instruction can take it, a new
//! one opens. The `permutate` / `inverse_permutate` schedules of Listing 1
//! are built this way from the fill-reducing permutation of the direct KKT
//! solver.

use mib_core::instruction::{InstrKind, LaneSource, LaneWrite, NetInstruction, WriteMode};
use mib_sparse::Permutation;

use crate::kernel::KernelBuilder;
use crate::layout::Layout;
use crate::route::RouteSpace;

/// One open instruction being packed.
struct OpenInstr {
    inst: NetInstruction,
    rs: RouteSpace,
    /// Which source element currently owns each input lane (multicast key).
    input_owner: Vec<Option<usize>>,
    write_used: Vec<bool>,
}

impl OpenInstr {
    fn new(width: usize) -> Self {
        let mut inst = NetInstruction::nop(width);
        inst.kind = InstrKind::Permute;
        OpenInstr {
            inst,
            rs: RouteSpace::new(width),
            input_owner: vec![None; width],
            write_used: vec![false; width],
        }
    }

    /// Attempts to pack the transfer `src element e (at src_loc) -> dst_loc`.
    fn try_add(&mut self, elem: usize, src_loc: (usize, usize), dst_loc: (usize, usize)) -> bool {
        let (sb, sa) = src_loc;
        let (db, da) = dst_loc;
        if self.write_used[db] {
            return false;
        }
        match self.input_owner[sb] {
            None => {}
            Some(e) if e == elem => {}
            Some(_) => return false,
        }
        if !self.rs.try_claim_input(sb, elem as u32) {
            return false;
        }
        if !self.rs.try_route(&mut self.inst, elem as u32, sb, db) {
            return false;
        }
        if self.input_owner[sb].is_none() {
            self.inst.set_input(sb, LaneSource::Reg { addr: sa });
            self.input_owner[sb] = Some(elem);
        }
        self.inst.set_write(
            db,
            LaneWrite {
                addr: da,
                mode: WriteMode::Store,
            },
        );
        self.write_used[db] = true;
        true
    }
}

/// Emits a gather permutation: `dst[k] = src[perm[k]]`.
///
/// # Panics
///
/// Panics if layout lengths do not match the permutation length.
pub fn permute(b: &mut KernelBuilder, src: Layout, dst: Layout, perm: &Permutation) {
    assert_eq!(src.len, perm.len(), "src layout does not match permutation");
    assert_eq!(dst.len, perm.len(), "dst layout does not match permutation");
    let width = b.width();
    let mut open: Vec<OpenInstr> = Vec::new();
    for k in 0..perm.len() {
        let e = perm.perm()[k];
        let src_loc = src.loc(e);
        let dst_loc = dst.loc(k);
        let mut placed = false;
        for oi in &mut open {
            if oi.try_add(e, src_loc, dst_loc) {
                placed = true;
                break;
            }
        }
        if !placed {
            let mut oi = OpenInstr::new(width);
            assert!(
                oi.try_add(e, src_loc, dst_loc),
                "single transfer always fits an empty instruction"
            );
            open.push(oi);
        }
    }
    for oi in open {
        b.push(oi.inst, vec![]);
    }
}

/// A single register-to-register transfer `(src_loc, dst_loc)`, each
/// location expressed as `(bank, row)`.
pub type Transfer = ((usize, usize), (usize, usize));

/// Emits an arbitrary set of register-to-register transfers
/// `(src_loc → dst_loc)`. Transfers sharing a source location multicast
/// from one read; destinations must be distinct. Used for the KKT
/// `permutate` / `inverse_permutate` steps, which move between *pairs* of
/// vectors (`[rhs_x; rhs_z] ↔` the stacked KKT vector).
///
/// # Panics
///
/// Panics if two transfers share a destination.
pub fn permute_locs(b: &mut KernelBuilder, transfers: &[Transfer]) {
    let _route_span = mib_trace::span("route", mib_trace::Category::Compiler);
    let width = b.width();
    {
        let mut seen = std::collections::HashSet::new();
        for &(_, dst) in transfers {
            assert!(seen.insert(dst), "duplicate destination {dst:?}");
        }
    }
    // Multicast key: index of the first transfer using each source.
    let mut src_key = std::collections::HashMap::new();
    let mut open: Vec<OpenInstr> = Vec::new();
    for (t, &(src, dst)) in transfers.iter().enumerate() {
        let key = *src_key.entry(src).or_insert(t);
        let mut placed = false;
        for oi in &mut open {
            if oi.try_add(key, src, dst) {
                placed = true;
                break;
            }
        }
        if !placed {
            let mut oi = OpenInstr::new(width);
            assert!(oi.try_add(key, src, dst));
            open.push(oi);
        }
    }
    for oi in open {
        b.push(oi.inst, vec![]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementwise::load_vec;
    use crate::layout::Allocator;
    use crate::schedule::{schedule, ScheduleOptions};
    use mib_core::hbm::HbmStream;
    use mib_core::machine::{HazardPolicy, Machine};
    use mib_core::MibConfig;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn run_permutation(n: usize, perm: &Permutation, seed: u64) {
        let c = MibConfig {
            width: 8,
            bank_depth: 1024,
            clock_hz: 1e6,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
        let _ = &mut rng;
        let mut alloc = Allocator::new(c.width);
        let src = alloc.alloc(n);
        let dst = alloc.alloc(n);
        let mut b = KernelBuilder::new("perm", c.width, c.latency());
        load_vec(&mut b, src, &data);
        permute(&mut b, src, dst, perm);
        let s = schedule(&b.finish(), ScheduleOptions::default());
        let mut m = Machine::new(c);
        m.run(
            &s.program,
            &mut HbmStream::new(s.hbm.clone()),
            HazardPolicy::Strict,
        )
        .unwrap();
        let got: Vec<f64> = (0..n)
            .map(|k| m.regs().read(dst.bank(k), dst.addr(k)).unwrap())
            .collect();
        let want = perm.apply(&data);
        assert_eq!(got, want);
    }

    #[test]
    fn identity_permutation() {
        run_permutation(13, &Permutation::identity(13), 1);
    }

    #[test]
    fn reversal_permutation() {
        let n = 16;
        let p = Permutation::from_vec((0..n).rev().collect()).unwrap();
        run_permutation(n, &p, 2);
    }

    #[test]
    fn random_permutations() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in [8usize, 15, 24, 40] {
            let mut v: Vec<usize> = (0..n).collect();
            v.shuffle(&mut rng);
            let p = Permutation::from_vec(v).unwrap();
            run_permutation(n, &p, n as u64);
        }
    }

    #[test]
    fn scatter_inverts_gather() {
        let c = MibConfig {
            width: 8,
            bank_depth: 1024,
            clock_hz: 1e6,
        };
        let n = 21;
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<usize> = (0..n).collect();
        v.shuffle(&mut rng);
        let p = Permutation::from_vec(v).unwrap();
        let data: Vec<f64> = (0..n).map(|i| (i * i) as f64).collect();
        let mut alloc = Allocator::new(c.width);
        let a0 = alloc.alloc(n);
        let a1 = alloc.alloc(n);
        let a2 = alloc.alloc(n);
        let mut b = KernelBuilder::new("perm", c.width, c.latency());
        load_vec(&mut b, a0, &data);
        permute(&mut b, a0, a1, &p);
        permute(&mut b, a1, a2, &p.inverse());
        let s = schedule(&b.finish(), ScheduleOptions::default());
        let mut m = Machine::new(c);
        m.run(
            &s.program,
            &mut HbmStream::new(s.hbm.clone()),
            HazardPolicy::Strict,
        )
        .unwrap();
        let got: Vec<f64> = (0..n)
            .map(|k| m.regs().read(a2.bank(k), a2.addr(k)).unwrap())
            .collect();
        assert_eq!(got, data);
    }
}
