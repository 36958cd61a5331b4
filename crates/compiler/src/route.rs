//! Routing within one network instruction: ownership-tracked paths for
//! instructions that carry several value groups.
//!
//! The butterfly path between a source and destination lane is unique (the
//! XOR rule of Section III.C), so packing several transfers into one
//! instruction reduces to checking that no intermediate node must carry two
//! different values. [`RouteSpace`] tracks which *value group* owns each
//! node: transfers of the same group may share nodes (multicast fan-out),
//! different groups may not. Only the permutation generator packs several
//! groups into one instruction; a builder whose instruction carries one
//! group (a multicast or a reduction tree) configures it directly with
//! [`NetInstruction::route`] or [`NetInstruction::reduce`].
//!
//! Routing allocates nothing beyond the space itself: owners are plain
//! `u32`s with a sentinel for a free node, and a path is checked and then
//! claimed by walking it twice.

use mib_core::instruction::{NetInstruction, NodeMode};

/// The owner of a node no group holds.
const FREE: u32 = u32::MAX;

/// Per-instruction node ownership. Row 0 is the multiplier stage, rows
/// `1..=stages` the adder stages.
#[derive(Debug, Clone)]
pub struct RouteSpace {
    width: usize,
    stages: usize,
    /// The group holding each node, or [`FREE`].
    owner: Vec<u32>,
}

impl RouteSpace {
    /// Creates an empty route space for a width-`width` instruction.
    pub fn new(width: usize) -> Self {
        let stages = width.trailing_zeros() as usize;
        RouteSpace {
            width,
            stages,
            owner: vec![FREE; width * (stages + 1)],
        }
    }

    fn idx(&self, row: usize, lane: usize) -> usize {
        row * self.width + lane
    }

    /// Claims the multiplier node of `lane` for `group`. Returns `false`
    /// if another group holds it.
    ///
    /// # Panics
    ///
    /// Panics if `group` is `u32::MAX`, the free-node sentinel.
    pub fn try_claim_input(&mut self, lane: usize, group: u32) -> bool {
        assert_ne!(group, FREE, "group u32::MAX is reserved");
        let i = self.idx(0, lane);
        if self.owner[i] == FREE {
            self.owner[i] = group;
        }
        self.owner[i] == group
    }

    /// The node `src -> dst` passes at adder stage `s` when it left stage
    /// `s - 1` on `lane`, and the mode it needs there.
    fn hop(s: usize, lane: usize, src: usize, dst: usize) -> (usize, NodeMode) {
        let bit = 1usize << s;
        if (src ^ dst) & bit != 0 {
            (lane ^ bit, NodeMode::Cross)
        } else {
            (lane, NodeMode::Direct)
        }
    }

    /// Attempts to route `src -> dst` for `group`, configuring `inst` on
    /// success. Multicast reuse within the same group is allowed.
    ///
    /// # Panics
    ///
    /// Panics if `group` is `u32::MAX`, the free-node sentinel.
    pub fn try_route(
        &mut self,
        inst: &mut NetInstruction,
        group: u32,
        src: usize,
        dst: usize,
    ) -> bool {
        assert_ne!(group, FREE, "group u32::MAX is reserved");
        // First walk: feasibility.
        let mut lane = src;
        for s in 0..self.stages {
            let (next, mode) = Self::hop(s, lane, src, dst);
            match self.owner[self.idx(s + 1, next)] {
                FREE => {}
                // Shared prefix of a multicast: the mode must agree.
                g if g == group && inst.node(s, next) == mode => {}
                _ => return false,
            }
            lane = next;
        }
        // Second walk: claim.
        let mut lane = src;
        for s in 0..self.stages {
            let (next, mode) = Self::hop(s, lane, src, dst);
            let i = self.idx(s + 1, next);
            self.owner[i] = group;
            if inst.node(s, next) == NodeMode::Idle {
                inst.set_node(s, next, mode);
            }
            lane = next;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_routes_pack_together() {
        let mut inst = NetInstruction::nop(8);
        let mut rs = RouteSpace::new(8);
        assert!(rs.try_route(&mut inst, 0, 0, 5));
        assert!(rs.try_route(&mut inst, 1, 1, 4));
        // 0->5 path: stage0 cross (lane 1), stage1 direct (1), stage2 cross (5).
        assert_eq!(inst.node(0, 1), NodeMode::Cross);
    }

    #[test]
    fn conflicting_routes_rejected_without_side_effects() {
        let mut inst = NetInstruction::nop(8);
        let mut rs = RouteSpace::new(8);
        assert!(rs.try_route(&mut inst, 0, 0, 2));
        let before = inst.clone();
        // 6 -> 2 needs the same final node (2, 2).
        assert!(!rs.try_route(&mut inst, 1, 6, 2));
        assert_eq!(
            inst, before,
            "failed attempt must not mutate the instruction"
        );
    }

    #[test]
    fn multicast_same_group_shares_prefix() {
        let mut inst = NetInstruction::nop(8);
        let mut rs = RouteSpace::new(8);
        assert!(rs.try_claim_input(2, 7));
        for dst in 0..8 {
            assert!(rs.try_route(&mut inst, 7, 2, dst), "dst {dst}");
        }
    }

    #[test]
    fn input_claims_respect_groups() {
        let mut rs = RouteSpace::new(8);
        assert!(rs.try_claim_input(3, 0));
        assert!(rs.try_claim_input(3, 0));
        assert!(!rs.try_claim_input(3, 1));
    }
}
