//! Network instructions: the per-cycle configuration of every node.

use crate::MibError;

/// Operating mode of an adder node (2 control bits, Figure 5a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeMode {
    /// Node carries no live value this cycle.
    #[default]
    Idle,
    /// Broadcast the "direct" input (same lane of the previous stage).
    Direct,
    /// Broadcast the "cross" input (lane XOR 2ˢ of the previous stage).
    Cross,
    /// Broadcast the sum of both inputs (the MAC-tree merge mode).
    Sum,
}

/// Source of a lane's value at the multiplier stage.
///
/// Register reads always target the lane's own bank; the second multiplier
/// operand comes from the HBM stream, the per-lane broadcast latch or an
/// immediate baked into the instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneSource {
    /// Pass the register value through unchanged (multiplier bypassed).
    Reg {
        /// Address within the lane's bank.
        addr: usize,
    },
    /// Inject the next HBM stream word directly (used by `load_vec`).
    Stream,
    /// Register value times the next HBM stream word (the MAC primitive's
    /// matrix-value multiply), optionally negated.
    RegTimesStream {
        /// Address within the lane's bank.
        addr: usize,
        /// Negate the product (used for elimination updates).
        negate: bool,
    },
    /// Register value times the lane's broadcast latch (the column
    /// elimination primitive), optionally negated.
    RegTimesLatch {
        /// Address within the lane's bank.
        addr: usize,
        /// Negate the product.
        negate: bool,
    },
    /// Register value times an immediate scalar (used by `axpby` and the
    /// relaxation updates).
    RegTimesImm {
        /// Address within the lane's bank.
        addr: usize,
        /// The immediate multiplier.
        imm: f64,
    },
    /// HBM stream word times the lane's broadcast latch (column-oriented
    /// `Aᵀ·y` products, where the matrix value streams and the vector
    /// element was latched).
    StreamTimesLatch {
        /// Negate the product.
        negate: bool,
    },
}

impl LaneSource {
    /// Whether this source consumes one HBM stream word.
    pub fn uses_stream(&self) -> bool {
        matches!(
            self,
            LaneSource::Stream
                | LaneSource::RegTimesStream { .. }
                | LaneSource::StreamTimesLatch { .. }
        )
    }

    /// The register address read, if any.
    pub fn reg_addr(&self) -> Option<usize> {
        match *self {
            LaneSource::Reg { addr }
            | LaneSource::RegTimesStream { addr, .. }
            | LaneSource::RegTimesLatch { addr, .. }
            | LaneSource::RegTimesImm { addr, .. } => Some(addr),
            LaneSource::Stream | LaneSource::StreamTimesLatch { .. } => None,
        }
    }

    /// Whether this source reads the lane's broadcast latch.
    pub fn uses_latch(&self) -> bool {
        matches!(
            self,
            LaneSource::RegTimesLatch { .. } | LaneSource::StreamTimesLatch { .. }
        )
    }

    /// Whether the multiplier performs an actual multiplication (for FLOP
    /// accounting).
    pub fn is_multiply(&self) -> bool {
        !matches!(self, LaneSource::Reg { .. } | LaneSource::Stream)
    }
}

/// What the writeback stage does with a lane's final value.
///
/// `Add`, `Min`, `Max` and `MaxAbs` are read–modify–write operations of the
/// writeback ALU (the same ALU that implements the paper's `select_min` /
/// `select_max` / `norm_inf` top-level instructions); they carry the same
/// hazard semantics as a read followed by a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteMode {
    /// Store the value.
    Store,
    /// Accumulate: `reg[addr] += value` (the accumulating writeback port).
    Add,
    /// Store the reciprocal `1/value` (pivot inversion for `D⁻¹`).
    StoreRecip,
    /// Load the value into the lane's broadcast latch instead of a register
    /// (the Fig. 6b distribution step).
    Latch,
    /// `reg[addr] = min(reg[addr], value)` — `select_min`.
    Min,
    /// `reg[addr] = max(reg[addr], value)` — `select_max`.
    Max,
    /// `reg[addr] = max(reg[addr], |value|)` — the `norm_inf` reduction.
    MaxAbs,
}

impl WriteMode {
    /// Whether the mode reads the target register before writing it.
    pub fn is_rmw(self) -> bool {
        matches!(
            self,
            WriteMode::Add | WriteMode::Min | WriteMode::Max | WriteMode::MaxAbs
        )
    }
}

/// A lane's writeback action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneWrite {
    /// Address within the lane's bank (ignored for [`WriteMode::Latch`]).
    pub addr: usize,
    /// Writeback behaviour.
    pub mode: WriteMode,
}

/// Mode of a lane's **output multiplier node** (Figure 5b: "input and
/// output multiplier nodes can be bypassed if needed"). The output
/// multiplier scales the network's routed value by an HBM stream word just
/// before writeback — the datapath of the column-elimination primitive:
/// a broadcast vector element fans out through the butterfly and each
/// target lane multiplies it by its streamed matrix value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OutMul {
    /// Pass the routed value through unchanged.
    #[default]
    Bypass,
    /// Multiply by the next HBM stream word.
    MulStream {
        /// Negate the product.
        negate: bool,
    },
}

/// Classification of a network instruction by the primitive it implements;
/// used for statistics and the Fig. 3/Fig. 8 style breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InstrKind {
    /// Row-oriented multiply–accumulate (reduction trees).
    Mac,
    /// Column elimination update.
    ColElim,
    /// Broadcast/distribution of one value to several lanes.
    Broadcast,
    /// Vector permutation across banks.
    Permute,
    /// Element-wise vector operation.
    Elementwise,
    /// Compiler-inserted data prefetch (bank-to-bank copy).
    Prefetch,
    /// Empty cycle.
    #[default]
    Nop,
}

impl InstrKind {
    /// Number of variants (the length of per-kind counter arrays).
    pub const COUNT: usize = 7;

    /// Every variant, in [`InstrKind::index`] order.
    pub const ALL: [InstrKind; InstrKind::COUNT] = [
        InstrKind::Mac,
        InstrKind::ColElim,
        InstrKind::Broadcast,
        InstrKind::Permute,
        InstrKind::Elementwise,
        InstrKind::Prefetch,
        InstrKind::Nop,
    ];

    /// Dense index of the variant — the bucket used by every per-kind
    /// counter array ([`ExecStats::slots_by_kind`], the profiling
    /// timeline). `InstrKind::ALL[k.index()] == k` for every variant
    /// (pinned by an exhaustive round-trip test), so adding a variant
    /// without growing [`InstrKind::ALL`] and [`InstrKind::COUNT`] fails
    /// to compile rather than silently mis-bucketing statistics.
    ///
    /// [`ExecStats::slots_by_kind`]: crate::stats::ExecStats::slots_by_kind
    pub fn index(self) -> usize {
        match self {
            InstrKind::Mac => 0,
            InstrKind::ColElim => 1,
            InstrKind::Broadcast => 2,
            InstrKind::Permute => 3,
            InstrKind::Elementwise => 4,
            InstrKind::Prefetch => 5,
            InstrKind::Nop => 6,
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InstrKind::Mac => "mac",
            InstrKind::ColElim => "col_elim",
            InstrKind::Broadcast => "broadcast",
            InstrKind::Permute => "permute",
            InstrKind::Elementwise => "elementwise",
            InstrKind::Prefetch => "prefetch",
            InstrKind::Nop => "nop",
        }
    }
}

/// One network instruction: the complete configuration of the multiplier
/// stage, all adder stages and the writeback stage for a single issue slot.
#[derive(Debug, Clone, PartialEq)]
pub struct NetInstruction {
    width: usize,
    /// Per-lane multiplier-stage source (`None` = lane unused).
    inputs: Vec<Option<LaneSource>>,
    /// Adder node modes, stage-major: node `(stage, lane)` is at
    /// `stage * width + lane`.
    nodes: Vec<NodeMode>,
    /// Per-lane writeback (`None` = discard).
    writes: Vec<Option<LaneWrite>>,
    /// Per-lane output multiplier modes.
    out_muls: Vec<OutMul>,
    /// Primitive classification.
    pub kind: InstrKind,
}

impl NetInstruction {
    /// An empty (no-op) instruction for a width-`C` network.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two `≥ 2`.
    pub fn nop(width: usize) -> Self {
        assert!(
            width.is_power_of_two() && width >= 2,
            "width must be a power of two >= 2"
        );
        let stages = width.trailing_zeros() as usize;
        NetInstruction {
            width,
            inputs: vec![None; width],
            nodes: vec![NodeMode::Idle; stages * width],
            writes: vec![None; width],
            out_muls: vec![OutMul::Bypass; width],
            kind: InstrKind::Nop,
        }
    }

    /// Network width `C`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of adder stages.
    pub fn stages(&self) -> usize {
        self.width.trailing_zeros() as usize
    }

    /// Per-lane inputs.
    pub fn inputs(&self) -> &[Option<LaneSource>] {
        &self.inputs
    }

    /// Per-lane writebacks.
    pub fn writes(&self) -> &[Option<LaneWrite>] {
        &self.writes
    }

    /// Mode of adder node `(stage, lane)`.
    pub fn node(&self, stage: usize, lane: usize) -> NodeMode {
        self.nodes[stage * self.width + lane]
    }

    /// Modes of every adder node of `stage`, in lane order.
    pub fn stage(&self, stage: usize) -> &[NodeMode] {
        &self.nodes[stage * self.width..(stage + 1) * self.width]
    }

    fn node_mut(&mut self, stage: usize, lane: usize) -> &mut NodeMode {
        &mut self.nodes[stage * self.width + lane]
    }

    /// Sets a lane input.
    ///
    /// # Panics
    ///
    /// Panics if the lane already has an input (merge through
    /// [`NetInstruction::try_merge`] instead) or is out of range.
    pub fn set_input(&mut self, lane: usize, src: LaneSource) {
        assert!(self.inputs[lane].is_none(), "lane {lane} input already set");
        self.inputs[lane] = Some(src);
    }

    /// Sets a lane writeback.
    ///
    /// # Panics
    ///
    /// Panics if the lane already has a writeback or is out of range.
    pub fn set_write(&mut self, lane: usize, write: LaneWrite) {
        assert!(self.writes[lane].is_none(), "lane {lane} write already set");
        self.writes[lane] = Some(write);
    }

    /// Sets a lane's output multiplier mode.
    ///
    /// # Panics
    ///
    /// Panics if the output multiplier is already in use.
    pub fn set_out_mul(&mut self, lane: usize, mode: OutMul) {
        assert!(
            self.out_muls[lane] == OutMul::Bypass,
            "lane {lane} output multiplier already set"
        );
        self.out_muls[lane] = mode;
    }

    /// Per-lane output multiplier modes.
    pub fn out_muls(&self) -> &[OutMul] {
        &self.out_muls
    }

    /// Sets an adder node mode.
    ///
    /// # Panics
    ///
    /// Panics if the node is already non-idle with a different mode.
    pub fn set_node(&mut self, stage: usize, lane: usize, mode: NodeMode) {
        let node = self.node_mut(stage, lane);
        let cur = *node;
        assert!(
            cur == NodeMode::Idle || cur == mode,
            "node ({stage}, {lane}) already set to {cur:?}"
        );
        *node = mode;
    }

    /// Upgrades a node to `Sum` mode (merging a reduction collision);
    /// allowed from `Idle`, `Direct`, `Cross` or `Sum`.
    pub fn set_node_sum(&mut self, stage: usize, lane: usize) {
        *self.node_mut(stage, lane) = NodeMode::Sum;
    }

    /// Whether the instruction does nothing.
    pub fn is_nop(&self) -> bool {
        self.inputs.iter().all(Option::is_none)
            && self.writes.iter().all(Option::is_none)
            && self.nodes.iter().all(|&m| m == NodeMode::Idle)
    }

    /// Number of busy nodes (multiplier nodes with inputs + non-idle adder
    /// nodes) — the numerator of the spatial-utilization statistic.
    pub fn busy_nodes(&self) -> usize {
        let mul = self.inputs.iter().filter(|i| i.is_some()).count();
        let adders = self.nodes.iter().filter(|&&m| m != NodeMode::Idle).count();
        mul + adders
    }

    /// Number of HBM stream words this instruction consumes (input stage
    /// plus output multipliers).
    pub fn stream_words(&self) -> usize {
        self.inputs
            .iter()
            .flatten()
            .filter(|s| s.uses_stream())
            .count()
            + self
                .out_muls
                .iter()
                .filter(|&&m| m != OutMul::Bypass)
                .count()
    }

    /// Iterates over the `(lane, addr)` register locations read at the
    /// multiplier stage (one per lane at most — the single read port).
    pub fn reg_read_locs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.inputs
            .iter()
            .enumerate()
            .filter_map(|(lane, input)| Some((lane, input.as_ref()?.reg_addr()?)))
    }

    /// Iterates over the lanes whose multiplier stage reads the per-lane
    /// broadcast latch.
    pub fn latch_read_lanes(&self) -> impl Iterator<Item = usize> + '_ {
        self.inputs
            .iter()
            .enumerate()
            .filter(|(_, input)| input.is_some_and(|src| src.uses_latch()))
            .map(|(lane, _)| lane)
    }

    /// Iterates over the `(lane, addr)` register locations read by
    /// read-modify-write writebacks (`Add`, `Min`, `Max`, `MaxAbs`).
    pub fn rmw_read_locs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.writes.iter().enumerate().filter_map(|(lane, write)| {
            let w = write.as_ref()?;
            w.mode.is_rmw().then_some((lane, w.addr))
        })
    }

    /// Iterates over the configured writebacks as `(lane, write)` pairs.
    pub fn write_locs(&self) -> impl Iterator<Item = (usize, LaneWrite)> + '_ {
        self.writes
            .iter()
            .enumerate()
            .filter_map(|(lane, write)| Some((lane, (*write)?)))
    }

    /// Whether the final adder stage drives `lane` with a live value. A
    /// writeback on an undriven lane commits the architectural zero (the
    /// idle-node output), which is almost always a scheduling artifact.
    pub fn lane_driven(&self, lane: usize) -> bool {
        self.node(self.stages() - 1, lane) != NodeMode::Idle
    }

    /// Number of floating-point operations this instruction performs:
    /// active input multipliers, `Sum` adder nodes, output multipliers,
    /// and the writeback ALU ops (`Add`, `StoreRecip`, `Min`, `Max`,
    /// `MaxAbs`). Statically derivable, and exactly the increment the
    /// machine applies to `ExecStats::flops` when executing the slot —
    /// one of the issue-rule introspection accessors the static timing
    /// analyzer (`mib-verify`) replays the machine from.
    pub fn flop_count(&self) -> u64 {
        let muls = self
            .inputs
            .iter()
            .flatten()
            .filter(|s| s.is_multiply())
            .count();
        let sums = self.nodes.iter().filter(|&&m| m == NodeMode::Sum).count();
        let out_muls = self
            .out_muls
            .iter()
            .filter(|&&m| m != OutMul::Bypass)
            .count();
        let wb_alu = self
            .writes
            .iter()
            .flatten()
            .filter(|w| w.mode != WriteMode::Store && w.mode != WriteMode::Latch)
            .count();
        (muls + sums + out_muls + wb_alu) as u64
    }

    /// Number of register reads the multiplier stage performs (lanes whose
    /// source carries a register address) — the `ExecStats::reg_reads`
    /// increment of this slot.
    pub fn reg_read_count(&self) -> u64 {
        self.reg_read_locs().count() as u64
    }

    /// Number of writebacks (stores, accumulates and latches) — the
    /// `ExecStats::reg_writes` increment of this slot.
    pub fn write_count(&self) -> u64 {
        self.writes.iter().flatten().count() as u64
    }

    /// Per-stage busy-element counts of this slot, in the shape the
    /// profiling [`Timeline`](crate::timeline::Timeline) accumulates. The
    /// machine records exactly this value when executing the slot, so a
    /// static replay using this accessor reproduces the timeline's
    /// occupancy totals bitwise.
    pub fn stage_occupancy(&self) -> crate::timeline::StageOccupancy {
        crate::timeline::StageOccupancy {
            multiplier_lanes: self.inputs.iter().filter(|i| i.is_some()).count() as u64,
            adder_nodes: self.nodes.iter().filter(|&&m| m != NodeMode::Idle).count() as u64,
            output_mul_lanes: self
                .out_muls
                .iter()
                .filter(|&&m| !matches!(m, OutMul::Bypass))
                .count() as u64,
            writeback_lanes: self.writes.iter().filter(|w| w.is_some()).count() as u64,
        }
    }

    /// The hardware-occupancy vector of Section IV.B: one bit per node
    /// (`C·(log₂C + 1)` bits), multiplier stage first.
    pub fn occupancy(&self) -> Vec<bool> {
        let mut v = Vec::with_capacity(self.width * (self.stages() + 1));
        for input in &self.inputs {
            v.push(input.is_some());
        }
        v.extend(self.nodes.iter().map(|&m| m != NodeMode::Idle));
        v
    }

    /// The structural **footprint**, as a bitset (bit `i` is bit `i % 64`
    /// of word `i / 64`) over every per-slot resource the instruction
    /// claims: `C·(log₂C + 1)` node bits, multiplier stage first, then
    /// `C` writeback-port bits. A node bit is set for every node the
    /// instruction produces a value on *or consumes an input from*: a
    /// `Direct`/`Cross`/`Sum` node reads specific previous-stage outputs,
    /// and those must not be driven by another instruction merged into the
    /// same cycle (a `Sum` node whose second input is architecturally zero
    /// relies on that lane *staying* idle). A lane's multiplier bit also
    /// stands for its register read port. Merging is legal iff footprints
    /// are disjoint — this is the occupancy the first-fit scheduler packs.
    pub fn footprint(&self) -> Vec<u64> {
        let w = self.width;
        let nodes = w * (self.stages() + 1);
        let mut bits = vec![0u64; (nodes + w).div_ceil(64)];
        let mut set = |i: usize| bits[i / 64] |= 1 << (i % 64);
        for (lane, input) in self.inputs.iter().enumerate() {
            if input.is_some() {
                set(lane);
            }
        }
        for (s, stage) in self.nodes.chunks_exact(w).enumerate() {
            // Row offsets in the bitset: this stage's nodes sit one row
            // after the row they consume (stage 0 consumes the multipliers).
            let (prev, row) = (s * w, (s + 1) * w);
            let bit = 1usize << s;
            for (lane, &m) in stage.iter().enumerate() {
                match m {
                    NodeMode::Idle => continue,
                    NodeMode::Direct => set(prev + lane),
                    NodeMode::Cross => set(prev + (lane ^ bit)),
                    NodeMode::Sum => {
                        set(prev + lane);
                        set(prev + (lane ^ bit));
                    }
                }
                set(row + lane);
            }
        }
        for (lane, write) in self.writes.iter().enumerate() {
            if write.is_some() {
                set(nodes + lane);
            }
        }
        bits
    }

    /// Tests whether `other` can be merged into `self` without structural
    /// conflicts: disjoint footprints (shared or consumed nodes) and
    /// disjoint per-lane read/write ports. The conflict named is the first
    /// read or write port in lane order, else the first shared node.
    pub fn conflicts_with(&self, other: &NetInstruction) -> Option<String> {
        if self.width != other.width {
            return Some("width mismatch".into());
        }
        let shared = self
            .footprint()
            .iter()
            .zip(&other.footprint())
            .enumerate()
            .find_map(|(k, (a, b))| {
                let both = a & b;
                (both != 0).then(|| k * 64 + both.trailing_zeros() as usize)
            })?;
        for lane in 0..self.width {
            if self.inputs[lane].is_some() && other.inputs[lane].is_some() {
                return Some(format!("lane {lane} read port"));
            }
            if self.writes[lane].is_some() && other.writes[lane].is_some() {
                return Some(format!("lane {lane} write port"));
            }
        }
        // No port is shared, so the first shared resource is a node.
        let w = self.width;
        let (row, lane) = (shared / w, shared % w);
        Some(if row == 0 {
            format!("multiplier node {lane}")
        } else {
            format!("adder node ({}, {lane})", row - 1)
        })
    }

    /// Merges two structurally disjoint instructions into one issue slot
    /// (the *spatial interleave* of Section IV.B).
    ///
    /// # Errors
    ///
    /// Returns [`MibError::MergeConflict`] naming the shared resource.
    pub fn try_merge(&self, other: &NetInstruction) -> Result<NetInstruction, MibError> {
        if let Some(conflict) = self.conflicts_with(other) {
            return Err(MibError::MergeConflict(conflict));
        }
        let mut merged = self.clone();
        merged.merge_disjoint(other);
        Ok(merged)
    }

    /// Merges `other` into this slot in place, without the conflict check
    /// of [`NetInstruction::try_merge`]: for callers that have already
    /// proved the two footprints disjoint, as the first-fit scheduler does.
    /// The slot keeps its own `kind` — statistics count slots, not logical
    /// instructions.
    pub fn merge_disjoint(&mut self, other: &NetInstruction) {
        debug_assert_eq!(self.conflicts_with(other), None);
        for lane in 0..self.width {
            if let Some(src) = other.inputs[lane] {
                self.inputs[lane] = Some(src);
            }
            if let Some(w) = other.writes[lane] {
                self.writes[lane] = Some(w);
            }
            if other.out_muls[lane] != OutMul::Bypass {
                self.out_muls[lane] = other.out_muls[lane];
            }
        }
        for (m, &o) in self.nodes.iter_mut().zip(&other.nodes) {
            if o != NodeMode::Idle {
                *m = o;
            }
        }
    }

    /// Routes a value from `src` lane to `dst` lane through the butterfly,
    /// setting `Direct`/`Cross` modes along the unique path (the XOR rule of
    /// Section III.C). Existing `Sum` nodes on the path are left as sums —
    /// callers building reduction trees upgrade collision nodes explicitly.
    ///
    /// Returns the sequence of `(stage, lane)` nodes on the path, **after**
    /// each stage's routing decision (i.e. the node whose output carries the
    /// value).
    pub fn route(&mut self, src: usize, dst: usize) -> Vec<(usize, usize)> {
        let mut path = Vec::with_capacity(self.stages());
        let mut lane = src;
        for s in 0..self.stages() {
            let bit = 1usize << s;
            let cross = (src ^ dst) & bit != 0;
            let next = if cross { lane ^ bit } else { lane };
            let mode = if cross {
                NodeMode::Cross
            } else {
                NodeMode::Direct
            };
            let node = self.node_mut(s, next);
            let cur = *node;
            if cur == NodeMode::Idle {
                *node = mode;
            } else if cur != mode && cur != NodeMode::Sum {
                panic!("routing conflict at node ({s}, {next}): {cur:?} vs {mode:?}");
            }
            path.push((s, next));
            lane = next;
        }
        debug_assert_eq!(lane, dst);
        path
    }

    /// Builds a reduction tree: every lane in `sources` is routed to `dst`,
    /// and nodes where two live values meet are set to `Sum` — the
    /// multi-mode MAC tree of Figure 6a. Sources must be distinct.
    ///
    /// # Panics
    ///
    /// Panics on a routing conflict with previously configured nodes or on
    /// duplicate sources.
    pub fn reduce(&mut self, sources: &[usize], dst: usize) {
        let stages = self.stages();
        let mut live: Vec<usize> = sources.to_vec();
        live.sort_unstable();
        for w in live.windows(2) {
            assert_ne!(w[0], w[1], "duplicate reduction source lane {}", w[0]);
        }
        for s in 0..stages {
            let bit = 1usize << s;
            let mut next: Vec<usize> = Vec::with_capacity(live.len());
            for &lane in &live {
                let target = (lane & !bit) | (dst & bit);
                next.push(target);
            }
            next.sort_unstable();
            next.dedup();
            for &t in &next {
                let from_direct = live.contains(&t);
                let from_cross = live.contains(&(t ^ bit));
                let mode = match (from_direct, from_cross) {
                    (true, true) => NodeMode::Sum,
                    (true, false) => NodeMode::Direct,
                    (false, true) => NodeMode::Cross,
                    (false, false) => unreachable!("target with no live input"),
                };
                let node = self.node_mut(s, t);
                let cur = *node;
                assert!(
                    cur == NodeMode::Idle || cur == mode,
                    "reduction conflict at node ({s}, {t}): {cur:?} vs {mode:?}"
                );
                *node = mode;
            }
            live = next;
        }
        debug_assert_eq!(live, vec![dst]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_kind_index_round_trips_exhaustively() {
        // `ALL` enumerates every variant exactly once, in index order:
        // a match on each element keeps this test exhaustive — adding an
        // `InstrKind` variant fails compilation here until `ALL`, `COUNT`
        // and `index()` are all updated together.
        assert_eq!(InstrKind::ALL.len(), InstrKind::COUNT);
        for (pos, kind) in InstrKind::ALL.into_iter().enumerate() {
            match kind {
                InstrKind::Mac
                | InstrKind::ColElim
                | InstrKind::Broadcast
                | InstrKind::Permute
                | InstrKind::Elementwise
                | InstrKind::Prefetch
                | InstrKind::Nop => {}
            }
            assert_eq!(kind.index(), pos, "{kind:?} is mis-bucketed");
            assert_eq!(InstrKind::ALL[kind.index()], kind);
        }
        // Indices are dense and distinct.
        let mut seen = [false; InstrKind::COUNT];
        for kind in InstrKind::ALL {
            assert!(!seen[kind.index()], "duplicate index for {kind:?}");
            seen[kind.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Names are distinct too (they key report rows).
        for (i, a) in InstrKind::ALL.iter().enumerate() {
            for b in &InstrKind::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn nop_is_empty() {
        let i = NetInstruction::nop(8);
        assert!(i.is_nop());
        assert_eq!(i.stages(), 3);
        assert_eq!(i.busy_nodes(), 0);
        assert_eq!(i.occupancy().len(), 8 * 4);
    }

    #[test]
    fn route_follows_xor_rule() {
        let mut i = NetInstruction::nop(8);
        // Paper example (Fig. 6c): input 0 to output 3 needs control 011:
        // cross at stages 0 and 1, direct at stage 2.
        let path = i.route(0, 3);
        assert_eq!(path, vec![(0, 1), (1, 3), (2, 3)]);
        assert_eq!(i.node(0, 1), NodeMode::Cross);
        assert_eq!(i.node(1, 3), NodeMode::Cross);
        assert_eq!(i.node(2, 3), NodeMode::Direct);
    }

    #[test]
    fn merge_disjoint_instructions() {
        let mut a = NetInstruction::nop(8);
        a.set_input(0, LaneSource::Reg { addr: 0 });
        a.route(0, 0);
        a.set_write(
            0,
            LaneWrite {
                addr: 1,
                mode: WriteMode::Store,
            },
        );
        let mut b = NetInstruction::nop(8);
        b.set_input(4, LaneSource::Reg { addr: 0 });
        b.route(4, 4);
        b.set_write(
            4,
            LaneWrite {
                addr: 1,
                mode: WriteMode::Store,
            },
        );
        let m = a.try_merge(&b).unwrap();
        assert_eq!(m.busy_nodes(), a.busy_nodes() + b.busy_nodes());
    }

    #[test]
    fn merge_conflicts_detected() {
        let mut a = NetInstruction::nop(8);
        a.set_input(0, LaneSource::Reg { addr: 0 });
        let mut b = NetInstruction::nop(8);
        b.set_input(0, LaneSource::Reg { addr: 5 });
        assert!(a.try_merge(&b).is_err());

        let mut c = NetInstruction::nop(8);
        c.route(0, 2);
        let mut d = NetInstruction::nop(8);
        // 6 -> 2 shares the final node (2, 2) with 0 -> 2.
        d.route(6, 2);
        // Verify conflict detection catches the shared node.
        assert!(c.conflicts_with(&d).is_some());
    }

    #[test]
    fn occupancy_counts_used_nodes() {
        let mut i = NetInstruction::nop(4);
        i.set_input(1, LaneSource::Stream);
        i.route(1, 2);
        let occ = i.occupancy();
        // Multiplier node 1 plus 2 adder nodes on the path.
        assert_eq!(occ.iter().filter(|&&b| b).count(), 3);
        assert_eq!(i.busy_nodes(), 3);
        assert_eq!(i.stream_words(), 1);
    }

    #[test]
    fn lane_source_properties() {
        assert!(LaneSource::Stream.uses_stream());
        assert!(!LaneSource::Reg { addr: 0 }.uses_stream());
        assert_eq!(LaneSource::Reg { addr: 3 }.reg_addr(), Some(3));
        assert_eq!(LaneSource::Stream.reg_addr(), None);
        assert!(LaneSource::RegTimesImm { addr: 0, imm: 2.0 }.is_multiply());
        assert!(!LaneSource::Reg { addr: 0 }.is_multiply());
    }
}
