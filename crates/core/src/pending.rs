//! The pending-write window: the register and latch writes still in
//! flight, as the machine's hazard check, the static timing predictor
//! (`mib_verify::timing`, whose strict verdict certifies compiled
//! schedules) and the critical-path extractor
//! (`mib_verify::critical_path`) all see them.
//!
//! One slot issues per cycle and its writes become visible `latency`
//! cycles after it issued. Issue cycles strictly increase, so a slot
//! `latency` or more slots older than the one being checked issued at
//! least `latency` cycles before that slot's earliest issue cycle: its
//! writes are visible by then — exactly then at the latest. Only the last
//! `latency` slots can hold a write that binds an issue cycle, so the
//! window keeps just those, per lane, and searches them newest first. For
//! every write that can bind (visible after the earliest issue cycle, or
//! exactly at it for the critical path's tight hops) it gives the answer a
//! map of every write ever made would give: the newest write to the
//! location, its visibility cycle and its slot. For older writes it gives
//! nothing, which no caller can tell from a visible write.
//!
//! [`PendingWrites::binding`] is the issue rule all three consumers apply
//! to the window, scanned in one order.

use crate::instruction::{lanes, NetInstruction, WriteMode};
use crate::MibConfig;

/// Marks a lane with no register write in a window slot. No bank holds
/// this address: the machine and the predictor fault on it before they
/// record the slot, so it never stands for a real write.
const NO_WRITE: usize = usize::MAX;

/// The pending write a slot's issue waits for: the location the slot
/// reads, when the write to it becomes visible, and which slot made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BindingWrite {
    /// Bank (= lane) of the location.
    pub bank: usize,
    /// Address within the bank (0 for a latch).
    pub addr: usize,
    /// Whether the location is the lane's broadcast latch.
    pub latch: bool,
    /// Cycle at which the write becomes visible.
    pub ready: u64,
    /// Slot that issued the write.
    pub slot: usize,
}

/// The last `latency` issued slots' writes: per lane, the register
/// address written, plus each slot's visibility cycle, index and written
/// lanes, and every lane latch's newest write.
#[derive(Debug, Clone)]
pub struct PendingWrites {
    /// Window length in slots: the pipeline latency.
    depth: usize,
    /// Per lane, `2·depth` addresses (`NO_WRITE` for no write or a latch
    /// write). The ring is stored twice — position `p` at `p` and at
    /// `p + depth` — so the newest `len` entries are always the one run
    /// that ends at `newest`, with no wrap-around and no `%`.
    addrs: Vec<usize>,
    /// Per position, mirrored the same way: (visible cycle, slot).
    meta: Vec<(u64, usize)>,
    /// Per position (not mirrored): the lanes with a register write, the
    /// only entries of `addrs` at that position that are not `NO_WRITE`.
    written: Vec<u128>,
    /// The union of `written` over the window: a lane outside it has no
    /// pending register write.
    any_written: u128,
    /// Per lane: the newest latch write's (visible cycle, slot), however
    /// old.
    latches: Vec<Option<(u64, usize)>>,
    /// Mirrored index of the newest entry, in `depth..2·depth`.
    newest: usize,
    /// Filled positions, at most `depth`.
    len: usize,
}

impl PendingWrites {
    /// An empty window for a machine with `config`.
    pub fn new(config: &MibConfig) -> Self {
        let depth = config.latency() as usize;
        PendingWrites {
            depth,
            addrs: vec![NO_WRITE; 2 * depth * config.width],
            meta: vec![(0, 0); 2 * depth],
            written: vec![0; depth],
            any_written: 0,
            latches: vec![None; config.width],
            newest: 2 * depth - 1,
            len: 0,
        }
    }

    /// Records the writes of `inst`, issued as slot `slot` and visible
    /// from cycle `ready` on, as the window's newest slot; the oldest
    /// slot leaves once the window is full. Only the lanes the two slots
    /// write are touched.
    pub fn record(&mut self, slot: usize, ready: u64, inst: &NetInstruction) {
        let depth = self.depth;
        let span = 2 * depth;
        debug_assert_eq!(inst.width() * span, self.addrs.len());
        let pos = if self.newest + 1 == span {
            0
        } else {
            self.newest + 1 - depth
        };
        self.newest = pos + depth;
        self.len = (self.len + 1).min(depth);
        self.meta[pos] = (ready, slot);
        self.meta[pos + depth] = (ready, slot);
        let mut written = 0u128;
        for (lane, w) in inst.write_locs() {
            if w.mode == WriteMode::Latch {
                self.latches[lane] = Some((ready, slot));
                continue;
            }
            written |= 1 << lane;
            self.addrs[lane * span + pos] = w.addr;
            self.addrs[lane * span + pos + depth] = w.addr;
        }
        // The evicted slot's register writes that this one did not
        // overwrite.
        for lane in lanes(self.written[pos] & !written) {
            self.addrs[lane * span + pos] = NO_WRITE;
            self.addrs[lane * span + pos + depth] = NO_WRITE;
        }
        self.written[pos] = written;
        self.any_written = self.written.iter().fold(0, |acc, &m| acc | m);
    }

    /// The write that binds `inst`'s issue: among the locations it reads
    /// whose pending write becomes visible at or after cycle `from`, the
    /// first to reach the latest visible cycle, scanned in the machine's
    /// order — per lane, the register read then the latch read; then the
    /// read-modify-write writebacks' targets, in lane order. Later writes
    /// with the same visible cycle come from the same slot (one slot issues
    /// per cycle), so the order only picks which location is named.
    ///
    /// The machine and the predictor ask from the cycle after the earliest
    /// issue cycle: a write visible exactly then does not hold the slot
    /// back. The critical path asks from the earliest issue cycle itself,
    /// so that such a write binds as a tight, zero-stall hop.
    pub fn binding(&self, inst: &NetInstruction, from: u64) -> Option<BindingWrite> {
        let mut best: Option<BindingWrite> = None;
        let mut note = |bank: usize, addr: usize, latch: bool, found: Option<(u64, usize)>| {
            let Some((ready, slot)) = found else { return };
            if ready >= best.map_or(from, |b| b.ready + 1) {
                best = Some(BindingWrite {
                    bank,
                    addr,
                    latch,
                    ready,
                    slot,
                });
            }
        };
        for (lane, src) in inst.input_locs() {
            if let Some(addr) = src.reg_addr() {
                note(lane, addr, false, self.reg(lane, addr));
            }
            if src.uses_latch() {
                note(lane, 0, true, self.latches[lane]);
            }
        }
        for (lane, addr) in inst.rmw_read_locs() {
            note(lane, addr, false, self.reg(lane, addr));
        }
        best
    }

    /// The newest write to register `(bank, addr)` in the window: the
    /// cycle it becomes visible and the slot that made it.
    fn reg(&self, bank: usize, addr: usize) -> Option<(u64, usize)> {
        if addr == NO_WRITE || self.any_written & (1 << bank) == 0 {
            return None;
        }
        let span = 2 * self.depth;
        let first = self.newest + 1 - self.len;
        let window = &self.addrs[bank * span..(bank + 1) * span][first..=self.newest];
        let k = window.iter().rposition(|&a| a == addr)?;
        Some(self.meta[first + k])
    }
}
