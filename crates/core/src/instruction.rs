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
    fn is_multiply(&self) -> bool {
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

/// A [`LaneWrite`] as an instruction stores it: half the bytes. No bank
/// is 2³² words deep, so a wider address is refused when it is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoredWrite {
    addr: u32,
    mode: WriteMode,
}

impl StoredWrite {
    fn of(lane: usize, write: LaneWrite) -> Self {
        let addr = u32::try_from(write.addr)
            .unwrap_or_else(|_| panic!("lane {lane} write address {} exceeds 32 bits", write.addr));
        StoredWrite {
            addr,
            mode: write.mode,
        }
    }

    fn get(self) -> LaneWrite {
        LaneWrite {
            addr: self.addr as usize,
            mode: self.mode,
        }
    }
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

    /// Dense index of the variant — the bucket of
    /// [`ExecStats::slots_by_kind`]. An exhaustive round-trip test pins
    /// the indices as `0..COUNT`, so adding a variant without updating
    /// [`InstrKind::COUNT`] fails that test's compilation rather than
    /// silently mis-bucketing statistics.
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
}

/// The widest network an instruction encodes: every lane set is one
/// `u128` mask.
const MAX_WIDTH: usize = 128;

/// Adder stages of a [`MAX_WIDTH`] network.
const MAX_STAGES: usize = MAX_WIDTH.trailing_zeros() as usize;

/// The lanes of a lane mask, in ascending order.
#[derive(Debug, Clone)]
pub struct Lanes(u128);

impl Iterator for Lanes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(lane)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

/// Iterates over the set lanes of `mask`, lowest first.
pub fn lanes(mask: u128) -> Lanes {
    Lanes(mask)
}

/// The mask of lane `lane`.
fn bit(lane: usize) -> u128 {
    1 << lane
}

/// The lanes with bit `s` clear: alternating runs of 2ˢ ones and zeros.
fn low_lanes(s: usize) -> u128 {
    u128::MAX / ((1u128 << (1u32 << s)) + 1)
}

/// `{lane ^ 2ˢ : lane ∈ mask}`: each lane's partner at stage `s`.
fn cross_lanes(mask: u128, s: usize) -> u128 {
    let (shift, low) = (1u32 << s, low_lanes(s));
    ((mask & low) << shift) | ((mask >> shift) & low)
}

/// One network instruction: the complete configuration of the multiplier
/// stage, all adder stages and the writeback stage for a single issue slot.
///
/// Every per-lane resource is a lane mask, so the machine, the timing
/// predictor and the pending-write window visit only the lanes a slot
/// uses. Adder node `(stage, lane)` is two bits: whether it consumes its
/// direct input and whether it consumes its cross input (`Direct`, `Cross`,
/// `Sum` = both, `Idle` = neither). Inputs and writebacks are stored once
/// per set lane, in lane order.
#[derive(Debug, Clone, PartialEq)]
pub struct NetInstruction {
    /// Lanes with a multiplier-stage source.
    input_mask: u128,
    /// Lanes with a writeback.
    write_mask: u128,
    /// Lanes whose output multiplier multiplies by a stream word.
    out_mul_mask: u128,
    /// The subset of `out_mul_mask` that negates the product.
    out_neg_mask: u128,
    /// Per adder stage, the nodes consuming their direct input.
    direct: [u128; MAX_STAGES],
    /// Per adder stage, the nodes consuming their cross input.
    cross: [u128; MAX_STAGES],
    /// One source per lane of `input_mask`, in lane order.
    inputs: Vec<LaneSource>,
    /// One writeback per lane of `write_mask`, in lane order.
    writes: Vec<StoredWrite>,
    /// `log₂C`.
    stages: u8,
    /// Primitive classification.
    pub kind: InstrKind,
}

impl NetInstruction {
    /// An empty (no-op) instruction for a width-`C` network.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two `≥ 2`, or exceeds 128 (each
    /// lane set is one `u128` mask).
    pub fn nop(width: usize) -> Self {
        assert!(
            width.is_power_of_two() && width >= 2,
            "width must be a power of two >= 2"
        );
        assert!(
            width <= MAX_WIDTH,
            "width {width} exceeds the {MAX_WIDTH} lanes an instruction's lane masks hold"
        );
        NetInstruction {
            input_mask: 0,
            write_mask: 0,
            out_mul_mask: 0,
            out_neg_mask: 0,
            direct: [0; MAX_STAGES],
            cross: [0; MAX_STAGES],
            inputs: Vec::new(),
            writes: Vec::new(),
            stages: width.trailing_zeros() as u8,
            kind: InstrKind::Nop,
        }
    }

    /// Network width `C`.
    pub fn width(&self) -> usize {
        1 << self.stages
    }

    /// Number of adder stages.
    pub fn stages(&self) -> usize {
        self.stages as usize
    }

    /// Lanes with a multiplier-stage source.
    pub(crate) fn input_mask(&self) -> u128 {
        self.input_mask
    }

    /// Lanes whose output multiplier is active.
    pub fn out_mul_mask(&self) -> u128 {
        self.out_mul_mask
    }

    /// The nodes of adder stage `stage` that consume their direct input
    /// and those that consume their cross input; a `Sum` node is in both.
    pub(crate) fn stage_inputs(&self, stage: usize) -> (u128, u128) {
        (self.direct[stage], self.cross[stage])
    }

    /// The non-idle nodes of adder stage `stage`.
    fn stage_mask(&self, stage: usize) -> u128 {
        self.direct[stage] | self.cross[stage]
    }

    /// The multiplier-stage source of `lane`, if it has one.
    pub fn input(&self, lane: usize) -> Option<LaneSource> {
        (self.input_mask & bit(lane) != 0).then(|| self.inputs[rank(self.input_mask, lane)])
    }

    /// The writeback of `lane`, if it has one.
    pub fn write(&self, lane: usize) -> Option<LaneWrite> {
        (self.write_mask & bit(lane) != 0).then(|| self.writes[rank(self.write_mask, lane)].get())
    }

    /// Output multiplier mode of `lane`.
    pub fn out_mul(&self, lane: usize) -> OutMul {
        if self.out_mul_mask & bit(lane) == 0 {
            OutMul::Bypass
        } else {
            OutMul::MulStream {
                negate: self.out_neg_mask & bit(lane) != 0,
            }
        }
    }

    /// Mode of adder node `(stage, lane)`.
    pub fn node(&self, stage: usize, lane: usize) -> NodeMode {
        let b = bit(lane);
        match (self.direct[stage] & b != 0, self.cross[stage] & b != 0) {
            (false, false) => NodeMode::Idle,
            (true, false) => NodeMode::Direct,
            (false, true) => NodeMode::Cross,
            (true, true) => NodeMode::Sum,
        }
    }

    /// Adds `mode`'s input bits to node `(stage, lane)`.
    fn or_node(&mut self, stage: usize, lane: usize, mode: NodeMode) {
        let b = bit(lane);
        if matches!(mode, NodeMode::Direct | NodeMode::Sum) {
            self.direct[stage] |= b;
        }
        if matches!(mode, NodeMode::Cross | NodeMode::Sum) {
            self.cross[stage] |= b;
        }
    }

    fn check_lane(&self, lane: usize) {
        assert!(
            lane < self.width(),
            "lane {lane} out of range for width {}",
            self.width()
        );
    }

    fn check_node(&self, stage: usize, lane: usize) {
        self.check_lane(lane);
        assert!(stage < self.stages(), "stage {stage} out of range");
    }

    /// Sets a lane input.
    ///
    /// # Panics
    ///
    /// Panics if the lane already has an input (merge through
    /// [`NetInstruction::try_merge`] instead) or is out of range.
    pub fn set_input(&mut self, lane: usize, src: LaneSource) {
        self.check_lane(lane);
        assert!(
            self.input_mask & bit(lane) == 0,
            "lane {lane} input already set"
        );
        self.inputs.insert(rank(self.input_mask, lane), src);
        self.input_mask |= bit(lane);
    }

    /// Sets a lane writeback.
    ///
    /// # Panics
    ///
    /// Panics if the lane already has a writeback, is out of range, or the
    /// address does not fit in 32 bits.
    pub fn set_write(&mut self, lane: usize, write: LaneWrite) {
        self.check_lane(lane);
        assert!(
            self.write_mask & bit(lane) == 0,
            "lane {lane} write already set"
        );
        let stored = StoredWrite::of(lane, write);
        self.writes.insert(rank(self.write_mask, lane), stored);
        self.write_mask |= bit(lane);
    }

    /// Sets a lane's output multiplier mode.
    ///
    /// # Panics
    ///
    /// Panics if the output multiplier is already in use or the lane is
    /// out of range.
    pub fn set_out_mul(&mut self, lane: usize, mode: OutMul) {
        self.check_lane(lane);
        assert!(
            self.out_mul_mask & bit(lane) == 0,
            "lane {lane} output multiplier already set"
        );
        if let OutMul::MulStream { negate } = mode {
            self.out_mul_mask |= bit(lane);
            if negate {
                self.out_neg_mask |= bit(lane);
            }
        }
    }

    /// Sets an adder node mode.
    ///
    /// # Panics
    ///
    /// Panics if the node is already non-idle with a different mode.
    pub fn set_node(&mut self, stage: usize, lane: usize, mode: NodeMode) {
        self.check_node(stage, lane);
        let cur = self.node(stage, lane);
        assert!(
            cur == NodeMode::Idle || cur == mode,
            "node ({stage}, {lane}) already set to {cur:?}"
        );
        self.or_node(stage, lane, mode);
    }

    /// Upgrades a node to `Sum` mode (merging a reduction collision);
    /// allowed from `Idle`, `Direct`, `Cross` or `Sum`.
    pub fn set_node_sum(&mut self, stage: usize, lane: usize) {
        self.check_node(stage, lane);
        self.or_node(stage, lane, NodeMode::Sum);
    }

    /// Whether the instruction does nothing.
    pub fn is_nop(&self) -> bool {
        self.input_mask == 0
            && self.write_mask == 0
            && self.direct.iter().chain(&self.cross).all(|&m| m == 0)
    }

    /// Non-idle adder nodes over all stages.
    fn adder_nodes(&self) -> u32 {
        (0..self.stages())
            .map(|s| self.stage_mask(s).count_ones())
            .sum()
    }

    /// Number of busy nodes (multiplier nodes with inputs + non-idle adder
    /// nodes) — the numerator of the spatial-utilization statistic.
    pub fn busy_nodes(&self) -> usize {
        (self.input_mask.count_ones() + self.adder_nodes()) as usize
    }

    /// Number of HBM stream words this instruction consumes (input stage
    /// plus output multipliers).
    pub fn stream_words(&self) -> usize {
        self.inputs.iter().filter(|s| s.uses_stream()).count()
            + self.out_mul_mask.count_ones() as usize
    }

    /// Iterates over the multiplier-stage sources as `(lane, source)`
    /// pairs, in lane order.
    pub fn input_locs(&self) -> impl Iterator<Item = (usize, LaneSource)> + '_ {
        lanes(self.input_mask).zip(self.inputs.iter().copied())
    }

    /// Iterates over the `(lane, addr)` register locations read at the
    /// multiplier stage (one per lane at most — the single read port).
    pub fn reg_read_locs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.input_locs()
            .filter_map(|(lane, src)| Some((lane, src.reg_addr()?)))
    }

    /// Iterates over the lanes whose multiplier stage reads the per-lane
    /// broadcast latch.
    pub fn latch_read_lanes(&self) -> impl Iterator<Item = usize> + '_ {
        self.input_locs()
            .filter(|(_, src)| src.uses_latch())
            .map(|(lane, _)| lane)
    }

    /// Iterates over the `(lane, addr)` register locations read by
    /// read-modify-write writebacks (`Add`, `Min`, `Max`, `MaxAbs`).
    pub fn rmw_read_locs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.write_locs()
            .filter(|(_, w)| w.mode.is_rmw())
            .map(|(lane, w)| (lane, w.addr))
    }

    /// Iterates over the configured writebacks as `(lane, write)` pairs.
    pub fn write_locs(&self) -> impl Iterator<Item = (usize, LaneWrite)> + '_ {
        lanes(self.write_mask).zip(self.writes.iter().map(|w| w.get()))
    }

    /// Iterates over the active output multipliers as `(lane, negate)`
    /// pairs, in lane order.
    pub fn out_mul_locs(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        lanes(self.out_mul_mask).map(|lane| (lane, self.out_neg_mask & bit(lane) != 0))
    }

    /// Whether the final adder stage drives `lane` with a live value. A
    /// writeback on an undriven lane commits the architectural zero (the
    /// idle-node output), which is almost always a scheduling artifact.
    pub fn lane_driven(&self, lane: usize) -> bool {
        self.stage_mask(self.stages() - 1) & bit(lane) != 0
    }

    /// Number of floating-point operations this instruction performs:
    /// active input multipliers, `Sum` adder nodes, output multipliers,
    /// and the writeback ALU ops (`Add`, `StoreRecip`, `Min`, `Max`,
    /// `MaxAbs`). Statically derivable, and exactly the increment the
    /// machine applies to `ExecStats::flops` when executing the slot —
    /// one of the issue-rule introspection accessors the static timing
    /// analyzer (`mib-verify`) replays the machine from.
    pub fn flop_count(&self) -> u64 {
        let muls = self.inputs.iter().filter(|s| s.is_multiply()).count() as u64;
        let sums: u32 = (0..self.stages())
            .map(|s| (self.direct[s] & self.cross[s]).count_ones())
            .sum();
        let wb_alu = self
            .writes
            .iter()
            .filter(|w| w.mode != WriteMode::Store && w.mode != WriteMode::Latch)
            .count() as u64;
        muls + u64::from(sums + self.out_mul_mask.count_ones()) + wb_alu
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
        u64::from(self.write_mask.count_ones())
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
        let w = self.width();
        let stages = self.stages();
        let mut bits = vec![0u64; (w * (stages + 2)).div_ceil(64)];
        // Row `r` covers bits `r·C .. (r + 1)·C`; `C` is a power of two,
        // so a row lies inside one word or spans whole words.
        let mut or_row = |row: usize, mask: u128| {
            let at = row * w;
            if w >= 64 {
                for k in 0..w / 64 {
                    bits[at / 64 + k] |= (mask >> (64 * k)) as u64;
                }
            } else {
                bits[at / 64] |= (mask as u64) << (at % 64);
            }
        };
        or_row(0, self.input_mask);
        for s in 0..stages {
            // Stage `s` consumes row `s` and drives row `s + 1`.
            let (direct, cross) = self.stage_inputs(s);
            or_row(s, direct | cross_lanes(cross, s));
            or_row(s + 1, direct | cross);
        }
        or_row(stages + 1, self.write_mask);
        bits
    }

    /// Tests whether `other` can be merged into `self` without structural
    /// conflicts: disjoint footprints (shared or consumed nodes) and
    /// disjoint per-lane read/write ports. The conflict named is the first
    /// read or write port in lane order, else the first shared node.
    fn conflicts_with(&self, other: &NetInstruction) -> Option<String> {
        if self.width() != other.width() {
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
        let reads = self.input_mask & other.input_mask;
        let ports = reads | (self.write_mask & other.write_mask);
        if ports != 0 {
            let lane = ports.trailing_zeros() as usize;
            let port = if reads & bit(lane) != 0 {
                "read"
            } else {
                "write"
            };
            return Some(format!("lane {lane} {port} port"));
        }
        // No port is shared, so the first shared resource is a node.
        let w = self.width();
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
        merge_lanes(
            &mut self.inputs,
            self.input_mask,
            &other.inputs,
            other.input_mask,
        );
        merge_lanes(
            &mut self.writes,
            self.write_mask,
            &other.writes,
            other.write_mask,
        );
        self.input_mask |= other.input_mask;
        self.write_mask |= other.write_mask;
        // Output multipliers are not part of the footprint: the merged
        // slot takes `other`'s where it has one, as a lane-wise overwrite.
        self.out_neg_mask = (self.out_neg_mask & !other.out_mul_mask) | other.out_neg_mask;
        self.out_mul_mask |= other.out_mul_mask;
        for s in 0..self.stages() {
            self.direct[s] |= other.direct[s];
            self.cross[s] |= other.cross[s];
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
        self.check_lane(src);
        self.check_lane(dst);
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
            let cur = self.node(s, next);
            if cur == NodeMode::Idle {
                self.or_node(s, next, mode);
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
        self.check_lane(dst);
        let mut live = 0u128;
        for &lane in sources {
            self.check_lane(lane);
            assert!(
                live & bit(lane) == 0,
                "duplicate reduction source lane {lane}"
            );
            live |= bit(lane);
        }
        for s in 0..self.stages() {
            let b = 1usize << s;
            // Each live lane moves to the lane with bit `s` taken from
            // `dst`: lanes that already agree stay, the others cross.
            let stay = if dst & b == 0 {
                low_lanes(s)
            } else {
                !low_lanes(s)
            };
            let next = (live & stay) | cross_lanes(live & !stay, s);
            for t in lanes(next) {
                let from_direct = live & bit(t) != 0;
                let from_cross = live & bit(t ^ b) != 0;
                let mode = match (from_direct, from_cross) {
                    (true, true) => NodeMode::Sum,
                    (true, false) => NodeMode::Direct,
                    (false, true) => NodeMode::Cross,
                    (false, false) => unreachable!("target with no live input"),
                };
                let cur = self.node(s, t);
                assert!(
                    cur == NodeMode::Idle || cur == mode,
                    "reduction conflict at node ({s}, {t}): {cur:?} vs {mode:?}"
                );
                self.or_node(s, t, mode);
            }
            live = next;
        }
        debug_assert_eq!(live, bit(dst));
    }
}

/// The position of `lane`'s entry in a per-lane store of `mask`.
fn rank(mask: u128, lane: usize) -> usize {
    (mask & (bit(lane) - 1)).count_ones() as usize
}

/// Merges `theirs` (one entry per lane of `their_mask`) into `mine` (one
/// per lane of `my_mask`), keeping lane order; the masks are disjoint.
fn merge_lanes<T: Copy>(mine: &mut Vec<T>, my_mask: u128, theirs: &[T], their_mask: u128) {
    if their_mask == 0 {
        return;
    }
    let (mut i, mut j) = (mine.len(), theirs.len());
    mine.reserve_exact(j);
    mine.extend_from_slice(theirs);
    if 128 - my_mask.leading_zeros() <= their_mask.trailing_zeros() {
        // Every lane of `theirs` is above every lane of `mine`.
        return;
    }
    // Fill from the back, highest lane first; the write position never
    // passes the unread part of `mine`.
    let mut k = mine.len();
    let mut union = my_mask | their_mask;
    while union != 0 {
        let lane = 127 - union.leading_zeros() as usize;
        union &= !bit(lane);
        k -= 1;
        if their_mask & bit(lane) != 0 {
            j -= 1;
            mine[k] = theirs[j];
        } else {
            i -= 1;
            mine[k] = mine[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The instruction as dense per-lane arrays, read through the per-lane
    /// accessors: inputs, node modes (stage-major), writes, output
    /// multipliers.
    type Dense = (
        Vec<Option<LaneSource>>,
        Vec<NodeMode>,
        Vec<Option<LaneWrite>>,
        Vec<OutMul>,
    );

    fn dense(i: &NetInstruction) -> Dense {
        let w = i.width();
        (
            (0..w).map(|l| i.input(l)).collect(),
            (0..i.stages())
                .flat_map(|s| (0..w).map(move |l| i.node(s, l)))
                .collect(),
            (0..w).map(|l| i.write(l)).collect(),
            (0..w).map(|l| i.out_mul(l)).collect(),
        )
    }

    fn mask_of(w: usize, pred: impl Fn(usize) -> bool) -> u128 {
        (0..w).filter(|&l| pred(l)).fold(0, |m, l| m | 1 << l)
    }

    /// Every lane mask equals the one recomputed from the per-lane
    /// accessors, the per-lane stores hold one entry per set lane, and the
    /// lane iterators visit exactly the accessors' lanes in ascending
    /// order.
    fn assert_masks(i: &NetInstruction) {
        let w = i.width();
        assert_eq!(i.input_mask, mask_of(w, |l| i.input(l).is_some()));
        assert_eq!(i.write_mask, mask_of(w, |l| i.write(l).is_some()));
        assert_eq!(
            i.out_mul_mask(),
            mask_of(w, |l| i.out_mul(l) != OutMul::Bypass)
        );
        assert_eq!(
            i.out_neg_mask,
            mask_of(w, |l| i.out_mul(l) == OutMul::MulStream { negate: true })
        );
        assert_eq!(i.inputs.len(), i.input_mask.count_ones() as usize);
        assert_eq!(i.writes.len(), i.write_mask.count_ones() as usize);
        for s in 0..MAX_STAGES {
            if s >= i.stages() {
                assert_eq!((i.direct[s], i.cross[s]), (0, 0), "stage {s}");
                continue;
            }
            let direct = mask_of(w, |l| {
                matches!(i.node(s, l), NodeMode::Direct | NodeMode::Sum)
            });
            let cross = mask_of(w, |l| {
                matches!(i.node(s, l), NodeMode::Cross | NodeMode::Sum)
            });
            assert_eq!(i.stage_inputs(s), (direct, cross), "stage {s}");
            assert_eq!(
                i.stage_mask(s),
                mask_of(w, |l| i.node(s, l) != NodeMode::Idle),
                "stage {s}"
            );
        }
        let inputs: Vec<_> = (0..w).filter_map(|l| Some((l, i.input(l)?))).collect();
        assert_eq!(i.input_locs().collect::<Vec<_>>(), inputs);
        let writes: Vec<_> = (0..w).filter_map(|l| Some((l, i.write(l)?))).collect();
        assert_eq!(i.write_locs().collect::<Vec<_>>(), writes);
        let outs: Vec<_> = (0..w)
            .filter_map(|l| match i.out_mul(l) {
                OutMul::Bypass => None,
                OutMul::MulStream { negate } => Some((l, negate)),
            })
            .collect();
        assert_eq!(i.out_mul_locs().collect::<Vec<_>>(), outs);
        let (_, nodes, _, _) = dense(i);
        let adders = nodes.iter().filter(|&&m| m != NodeMode::Idle).count();
        assert_eq!(i.busy_nodes(), inputs.len() + adders);
        assert_eq!(
            i.is_nop(),
            inputs.is_empty() && writes.is_empty() && adders == 0
        );
    }

    fn store(addr: usize) -> LaneWrite {
        LaneWrite {
            addr,
            mode: WriteMode::Store,
        }
    }

    #[test]
    fn instr_kind_index_round_trips_exhaustively() {
        // Every variant exactly once, in index order: the match on each
        // element keeps this test exhaustive — adding an `InstrKind`
        // variant fails compilation here until this list, `COUNT` and
        // `index()` are all updated together.
        const ALL: [InstrKind; InstrKind::COUNT] = [
            InstrKind::Mac,
            InstrKind::ColElim,
            InstrKind::Broadcast,
            InstrKind::Permute,
            InstrKind::Elementwise,
            InstrKind::Prefetch,
            InstrKind::Nop,
        ];
        for (pos, kind) in ALL.into_iter().enumerate() {
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
        }
    }

    #[test]
    fn nop_is_empty() {
        let i = NetInstruction::nop(8);
        assert!(i.is_nop());
        assert_eq!(i.stages(), 3);
        assert_eq!(i.busy_nodes(), 0);
        assert_eq!(i.footprint().len(), (8 * 5usize).div_ceil(64));
        assert!(i.footprint().iter().all(|&w| w == 0));
        assert_masks(&i);
    }

    #[test]
    #[should_panic(expected = "width 256 exceeds the 128 lanes")]
    fn widths_above_128_are_refused() {
        NetInstruction::nop(256);
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
        assert_masks(&i);
    }

    #[test]
    fn merge_disjoint_instructions() {
        let mut a = NetInstruction::nop(8);
        a.set_input(0, LaneSource::Reg { addr: 0 });
        a.route(0, 0);
        a.set_write(0, store(1));
        let mut b = NetInstruction::nop(8);
        b.set_input(4, LaneSource::Reg { addr: 0 });
        b.route(4, 4);
        b.set_write(4, store(1));
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

        // One write port per lane: a store and a latch load on lane 3
        // cannot share a slot, so no slot can write a location twice.
        let mut store = NetInstruction::nop(8);
        store.set_write(
            3,
            LaneWrite {
                addr: 0,
                mode: WriteMode::Store,
            },
        );
        let mut latch = NetInstruction::nop(8);
        latch.set_write(
            3,
            LaneWrite {
                addr: 0,
                mode: WriteMode::Latch,
            },
        );
        assert_eq!(
            store.try_merge(&latch),
            Err(MibError::MergeConflict("lane 3 write port".into()))
        );
    }

    #[test]
    #[should_panic(expected = "lane 3 write already set")]
    fn second_write_on_a_lane_panics() {
        let mut i = NetInstruction::nop(8);
        let write = LaneWrite {
            addr: 0,
            mode: WriteMode::Store,
        };
        i.set_write(3, write);
        i.set_write(3, write);
    }

    #[test]
    fn occupancy_counts_used_nodes() {
        let mut i = NetInstruction::nop(4);
        i.set_input(1, LaneSource::Stream);
        i.route(1, 2);
        // Multiplier node 1 plus 2 adder nodes on the path.
        assert_eq!(i.busy_nodes(), 3);
        assert_eq!(i.stream_words(), 1);
        assert_masks(&i);
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

    #[test]
    fn masks_follow_every_lane_setter_in_any_order() {
        let mut i = NetInstruction::nop(16);
        for (k, lane) in [9, 2, 15, 0, 7].into_iter().enumerate() {
            i.set_input(lane, LaneSource::Reg { addr: k });
            assert_masks(&i);
            i.set_write(lane, store(10 + k));
            assert_masks(&i);
            i.set_out_mul(lane, OutMul::MulStream { negate: k % 2 == 0 });
            assert_masks(&i);
        }
        // A bypassed output multiplier sets nothing.
        i.set_out_mul(3, OutMul::Bypass);
        assert_masks(&i);
        let lanes: Vec<usize> = i.input_locs().map(|(l, _)| l).collect();
        assert_eq!(lanes, vec![0, 2, 7, 9, 15]);
        assert_eq!(i.input(9), Some(LaneSource::Reg { addr: 0 }));
        assert_eq!(i.write(15), Some(store(12)));
        assert_eq!(i.out_mul(2), OutMul::MulStream { negate: false });
        assert_eq!(i.out_mul(0), OutMul::MulStream { negate: false });
        assert_eq!(i.out_mul(7), OutMul::MulStream { negate: true });
        assert_eq!(i.stream_words(), 5);
    }

    #[test]
    fn setting_an_idle_node_idle_changes_nothing() {
        let mut i = NetInstruction::nop(8);
        i.set_node(1, 5, NodeMode::Idle);
        assert_masks(&i);
        assert_eq!(i, NetInstruction::nop(8));
        i.set_node(1, 5, NodeMode::Cross);
        i.set_node(1, 5, NodeMode::Cross);
        assert_masks(&i);
        assert_eq!(i.stage_inputs(1), (0, 1 << 5));
        i.set_node_sum(1, 5);
        assert_masks(&i);
        assert_eq!(i.node(1, 5), NodeMode::Sum);
    }

    #[test]
    #[should_panic(expected = "already set to Cross")]
    fn setting_a_busy_node_idle_is_refused() {
        let mut i = NetInstruction::nop(8);
        i.set_node(1, 5, NodeMode::Cross);
        i.set_node(1, 5, NodeMode::Idle);
    }

    #[test]
    fn routing_through_a_sum_node_keeps_the_sum() {
        let mut i = NetInstruction::nop(8);
        i.set_node_sum(0, 1);
        // 0 -> 3 crosses into node (0, 1) and leaves it a sum.
        i.route(0, 3);
        assert_masks(&i);
        assert_eq!(i.node(0, 1), NodeMode::Sum);
        assert_eq!(i.node(1, 3), NodeMode::Cross);
        assert_eq!(i.node(2, 3), NodeMode::Direct);
        assert_eq!(i.flop_count(), 1);
    }

    #[test]
    fn reduction_collisions_become_sums() {
        let mut i = NetInstruction::nop(8);
        i.reduce(&[6, 1, 2], 5);
        assert_masks(&i);
        // Stage 0 (bit 0 from dst = 1): 6 -> 7, 1 stays, 2 -> 3.
        assert_eq!(i.stage_mask(0), 1 << 7 | 1 << 1 | 1 << 3);
        // Stage 1 (bit 1 from dst = 0): 7 -> 5, 1 stays, 3 -> 1: a sum.
        assert_eq!(i.node(1, 1), NodeMode::Sum);
        assert_eq!(i.node(1, 5), NodeMode::Cross);
        // Stage 2 (bit 2 from dst = 1): 5 stays, 1 -> 5: a sum.
        assert_eq!(i.node(2, 5), NodeMode::Sum);
        assert_eq!(i.stage_mask(2), 1 << 5);
        assert_eq!(i.flop_count(), 2);
        // A second tree into the other half, disjoint from the first.
        i.reduce(&[0], 0);
        assert_masks(&i);
    }

    #[test]
    fn merge_disjoint_keeps_lane_order_and_every_mask() {
        let mut a = NetInstruction::nop(16);
        for lane in [1, 8, 12] {
            a.set_input(lane, LaneSource::Reg { addr: lane });
            a.route(lane, lane);
            a.set_write(lane, store(lane));
        }
        a.set_out_mul(8, OutMul::MulStream { negate: true });
        let mut b = NetInstruction::nop(16);
        for lane in [0, 5, 9, 15] {
            b.set_input(lane, LaneSource::Stream);
            b.route(lane, lane);
            b.set_write(lane, store(100 + lane));
        }
        b.set_out_mul(15, OutMul::MulStream { negate: false });
        let merged = a.try_merge(&b).unwrap();
        assert_masks(&merged);
        // Lane-wise, the merge is the union of the two dense forms.
        let (da, db, dm) = (dense(&a), dense(&b), dense(&merged));
        for lane in 0..16 {
            assert_eq!(dm.0[lane], da.0[lane].or(db.0[lane]), "input {lane}");
            assert_eq!(dm.2[lane], da.2[lane].or(db.2[lane]), "write {lane}");
            let out = if db.3[lane] == OutMul::Bypass {
                da.3[lane]
            } else {
                db.3[lane]
            };
            assert_eq!(dm.3[lane], out, "out mul {lane}");
        }
        for (k, node) in dm.1.iter().enumerate() {
            let want = if da.1[k] == NodeMode::Idle {
                db.1[k]
            } else {
                da.1[k]
            };
            assert_eq!(*node, want, "node {k}");
        }
        // Appending lanes above every existing one takes the same path.
        let mut hi = NetInstruction::nop(16);
        hi.set_input(14, LaneSource::Stream);
        let mut lo = NetInstruction::nop(16);
        lo.set_input(3, LaneSource::Reg { addr: 3 });
        let mut up = lo.clone();
        up.merge_disjoint(&hi);
        assert_masks(&up);
        let mut down = hi.clone();
        down.merge_disjoint(&lo);
        assert_eq!(up, down);
    }

    #[test]
    fn lane_127_at_c128() {
        let mut i = NetInstruction::nop(128);
        i.set_input(127, LaneSource::Reg { addr: 9 });
        i.set_input(0, LaneSource::Stream);
        i.route(127, 64);
        i.route(0, 127);
        i.set_write(127, store(3));
        i.set_write(64, store(4));
        i.set_out_mul(127, OutMul::MulStream { negate: true });
        assert_masks(&i);
        assert_eq!(i.input_mask(), 1 << 127 | 1);
        assert!(i.lane_driven(127) && i.lane_driven(64));
        assert_eq!(i.write(127), Some(store(3)));
        let mut other = NetInstruction::nop(128);
        other.reduce(&[126, 125], 126);
        let conflict = i.conflicts_with(&other);
        assert!(conflict.is_some(), "{conflict:?}");
        let mut far = NetInstruction::nop(128);
        far.set_input(2, LaneSource::Stream);
        far.route(2, 2);
        let merged = i.try_merge(&far).unwrap();
        assert_masks(&merged);
        assert_eq!(merged.input_mask(), 1 << 127 | 0b101);
    }

    /// Bytes one instruction holds: the struct plus its per-lane stores.
    fn bytes(i: &NetInstruction) -> usize {
        std::mem::size_of::<NetInstruction>()
            + i.inputs.capacity() * std::mem::size_of::<LaneSource>()
            + i.writes.capacity() * std::mem::size_of::<StoredWrite>()
    }

    /// The dense layout this replaced held, at C = 32, a 112-byte struct
    /// and 1472 bytes of per-lane arrays (`Option<LaneSource>` 24 B and
    /// `Option<LaneWrite>` 16 B per lane, one byte per node and output
    /// multiplier) whatever the slot used. The lane-mask layout must not
    /// hold more even for a slot that uses every resource.
    #[test]
    fn bytes_per_instruction_at_c32_do_not_grow() {
        const DENSE_BYTES_C32: usize = 1584;
        let nop = NetInstruction::nop(32);
        assert_eq!(bytes(&nop), std::mem::size_of::<NetInstruction>());
        let mut full = nop.clone();
        let mut merged = nop.clone();
        for lane in 0..32 {
            let src = LaneSource::RegTimesImm {
                addr: lane,
                imm: 2.0,
            };
            full.set_input(lane, src);
            full.set_write(lane, store(lane));
            full.set_out_mul(lane, OutMul::MulStream { negate: false });
            let mut one = NetInstruction::nop(32);
            one.set_input(31 - lane, src);
            one.set_write(31 - lane, store(lane));
            merged.merge_disjoint(&one);
        }
        for s in 0..5 {
            for lane in 0..32 {
                full.set_node_sum(s, lane);
            }
        }
        assert_masks(&full);
        assert_masks(&merged);
        for (name, i) in [("full", &full), ("merged", &merged)] {
            assert!(
                bytes(i) <= DENSE_BYTES_C32,
                "{name}: {} bytes per instruction, dense layout {DENSE_BYTES_C32}",
                bytes(i)
            );
        }
    }
}
