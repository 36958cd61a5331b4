//! Vector permutation kernels.
//!
//! A butterfly realizes only those permutations whose transfers use
//! node-disjoint paths; general permutations split into several passes.
//! The generator packs transfers into open instructions first-fit: each
//! `(source element → destination slot)` transfer takes the nodes of its
//! unique path ([`fan_out_nodes`]), which it may share only with
//! transfers of the same source element (a multicast); when no open
//! instruction can take it, a new one opens. Each instruction is then
//! built whole as one multi-group [`NetInstruction::multicast`]. The
//! `permutate` / `inverse_permutate` schedules of Listing 1 are built this
//! way from the fill-reducing permutation of the direct KKT solver.

use mib_core::instruction::{fan_out_nodes, InstrKind, LaneSource, NetInstruction, OutMul};
use mib_sparse::Permutation;

use crate::elementwise::store;
use crate::kernel::KernelBuilder;
use crate::layout::Layout;

/// One open instruction being packed.
struct OpenInstr {
    /// Per adder stage, the nodes the packed transfers pass.
    nodes: Vec<u128>,
    /// The lanes whose write port is taken.
    written: u128,
    /// Per lane: the key its read port is claimed for, the address it
    /// reads and the lanes its value is routed to.
    reads: Vec<Option<(usize, usize, u128)>>,
    /// Per lane, the address its write stores to.
    writes: Vec<usize>,
}

impl OpenInstr {
    fn new(width: usize) -> Self {
        OpenInstr {
            nodes: vec![0; width.trailing_zeros() as usize],
            written: 0,
            reads: vec![None; width],
            writes: vec![0; width],
        }
    }

    /// Attempts to pack the transfer of the value keyed `key` from
    /// `(bank, row)` `src` to `dst`.
    fn try_add(&mut self, key: usize, (sb, sa): (usize, usize), (db, da): (usize, usize)) -> bool {
        if self.written & 1 << db != 0 {
            return false;
        }
        // The read port is claimed before the path is checked, and a
        // refused transfer leaves the claim: every committed schedule was
        // packed under this policy, so dropping it moves slot counts.
        let (owner, _, targets) = *self.reads[sb].get_or_insert((key, sa, 0));
        if owner != key {
            return false;
        }
        // The path may share nodes with its own key's fan-out only.
        let adds = |s: usize| fan_out_nodes(sb, 1 << db, s) & !fan_out_nodes(sb, targets, s);
        if (0..self.nodes.len()).any(|s| adds(s) & self.nodes[s] != 0) {
            return false;
        }
        for (s, nodes) in self.nodes.iter_mut().enumerate() {
            *nodes |= fan_out_nodes(sb, 1 << db, s);
        }
        self.reads[sb] = Some((key, sa, targets | 1 << db));
        self.written |= 1 << db;
        self.writes[db] = da;
        true
    }

    /// The packed transfers as one instruction.
    fn finish(&self) -> NetInstruction {
        let groups: Vec<_> = (self.reads.iter().enumerate())
            .filter_map(|(lane, read)| match *read {
                Some((_, addr, targets)) if targets != 0 => {
                    Some((lane, LaneSource::Reg { addr }, targets))
                }
                _ => None,
            })
            .collect();
        NetInstruction::multicast(self.writes.len(), InstrKind::Permute, &groups, |lane| {
            (store(self.writes[lane]), OutMul::Bypass)
        })
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
    let transfers: Vec<Transfer> = (perm.perm().iter().enumerate())
        .map(|(k, &e)| (src.loc(e), dst.loc(k)))
        .collect();
    permute_locs(b, &transfers);
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
        if !open.iter_mut().any(|oi| oi.try_add(key, src, dst)) {
            let mut oi = OpenInstr::new(width);
            assert!(
                oi.try_add(key, src, dst),
                "single transfer always fits an empty instruction"
            );
            open.push(oi);
        }
    }
    for oi in &open {
        b.push(oi.finish(), []);
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

    /// A transfer refused on its path leaves its source lane claimed for
    /// its key, so a transfer of another key from that lane cannot join
    /// the instruction even when its own path is free.
    #[test]
    fn a_refused_transfer_keeps_its_source_lane_claimed() {
        let mut b = KernelBuilder::new("perm", 8, 4);
        // 0 -> 2 holds node (0, 0). 1 -> 6 needs that node: refused in the
        // first instruction, it opens the second. 1 -> 5 reads another row
        // of lane 1 on a free path, but lane 1 is claimed in both.
        let transfers = [((0, 0), (2, 0)), ((1, 0), (6, 0)), ((1, 5), (5, 0))];
        permute_locs(&mut b, &transfers);
        let kernel = b.finish();
        let reads: Vec<Vec<_>> = (kernel.instrs().iter())
            .map(|i| i.input_locs().collect())
            .collect();
        let read = |lane, addr| vec![(lane, LaneSource::Reg { addr })];
        assert_eq!(reads, [read(0, 0), read(1, 0), read(1, 5)]);
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
