//! Logical instruction streams with automatic dependency tracking.
//!
//! A [`KernelBuilder`] collects network instructions in *algorithm order*
//! and derives, for each one, the set of earlier instructions it must wait
//! for and by how many cycles:
//!
//! * **read-after-write** (and read-modify-write after write): the full
//!   pipeline latency — the paper's data hazards (Section IV.A),
//! * **write-after-write**: one cycle (in-order commit),
//! * **write-after-read**: zero cycles (reads happen at issue, writes land
//!   `latency` later).
//!
//! The per-lane broadcast latch is tracked like a register location.
//! The resulting [`Kernel`] is the input of the first-fit scheduler.

use mib_core::instruction::{NetInstruction, WriteMode};

/// A logical network instruction plus its dependencies and HBM words.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalInstr {
    /// The network configuration.
    pub inst: NetInstruction,
    /// `(producer index, minimum slot distance)` pairs.
    pub deps: Vec<(usize, u64)>,
    /// HBM words consumed, tagged by sort key: `lane` for input-stage
    /// words, `width + lane` for output-multiplier words (the machine
    /// consumes a slot's input-phase words in lane order first, then the
    /// output-multiplier words in lane order).
    pub stream: Vec<(usize, f64)>,
}

/// A finished logical instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Human-readable kernel name (e.g. `"A_multiply"`).
    pub name: String,
    /// Machine width the kernel was built for.
    pub width: usize,
    /// The logical instructions in algorithm order.
    pub instrs: Vec<LogicalInstr>,
}

impl Kernel {
    /// Total logical instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the kernel is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Concatenates another kernel after this one, shifting its dependency
    /// indices. The combined kernel preserves both dependency structures;
    /// cross-kernel hazards are still tracked because indices are local —
    /// callers that need cross-kernel dependencies should build through one
    /// [`KernelBuilder`] instead.
    pub fn concat(mut self, other: Kernel) -> Kernel {
        assert_eq!(self.width, other.width, "kernel width mismatch");
        let offset = self.instrs.len();
        for mut li in other.instrs {
            for d in &mut li.deps {
                d.0 += offset;
            }
            self.instrs.push(li);
        }
        self
    }
}

/// No instruction: an unwritten location, or a location without readers.
const NONE: u32 = u32::MAX;

/// The dependency state of one register or latch location.
#[derive(Debug, Clone, Copy)]
struct LocState {
    /// The last instruction that wrote the location.
    last_write: u32,
    /// The location's list in [`KernelBuilder::lists`]: the instructions
    /// that read it since that write.
    readers: u32,
}

impl LocState {
    const EMPTY: LocState = LocState {
        last_write: NONE,
        readers: NONE,
    };
}

/// A location an instruction accesses.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// Register `addr` of bank `lane`.
    Reg(usize, usize),
    /// The broadcast latch of a lane.
    Latch(usize),
}

/// Builds a [`Kernel`], deriving dependencies from each instruction's
/// register and latch accesses.
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    width: usize,
    latency: u64,
    instrs: Vec<LogicalInstr>,
    /// Per lane, per register address (grown on first touch).
    regs: Vec<Vec<LocState>>,
    /// Per lane, its broadcast latch.
    latches: Vec<LocState>,
    /// Reader lists, recycled: a write that drains a list returns it to
    /// `free`.
    lists: Vec<Vec<u32>>,
    free: Vec<u32>,
    /// The `(producer, delay)` pairs of the instruction being pushed.
    deps: Vec<(usize, u64)>,
}

impl KernelBuilder {
    /// Starts a kernel for a width-`width` machine with the given pipeline
    /// latency (use [`mib_core::MibConfig::latency`]).
    pub fn new(name: impl Into<String>, width: usize, latency: u64) -> Self {
        KernelBuilder {
            name: name.into(),
            width,
            latency,
            instrs: Vec::new(),
            regs: vec![Vec::new(); width],
            latches: vec![LocState::EMPTY; width],
            lists: Vec::new(),
            free: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// Machine width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of instructions so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether no instruction has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Appends an instruction, computing its dependencies. `stream` holds
    /// the HBM words the instruction consumes, tagged by lane.
    ///
    /// Returns the logical index of the instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction width differs from the kernel width.
    pub fn push(&mut self, inst: NetInstruction, stream: Vec<(usize, f64)>) -> usize {
        assert_eq!(inst.width(), self.width, "instruction width mismatch");
        let id = self.instrs.len();
        let id32 = u32::try_from(id).expect("a kernel holds fewer than 2^32 instructions");
        self.deps.clear();

        // Reads (multiplier stage, at issue time).
        for (lane, src) in inst.input_locs() {
            if let Some(addr) = src.reg_addr() {
                self.note_read(Loc::Reg(lane, addr), id32);
            }
            if src.uses_latch() {
                self.note_read(Loc::Latch(lane), id32);
            }
        }
        // Writes (writeback stage).
        for (lane, w) in inst.write_locs() {
            let loc = if w.mode == WriteMode::Latch {
                Loc::Latch(lane)
            } else {
                Loc::Reg(lane, w.addr)
            };
            self.note_write(loc, id32, w.mode.is_rmw());
        }

        // One entry per producer with its largest delay: sorted, that is
        // the last of each producer's run.
        self.deps.sort_unstable();
        let mut deps: Vec<(usize, u64)> = Vec::with_capacity(self.deps.len());
        for &(producer, delay) in &self.deps {
            match deps.last_mut() {
                Some(last) if last.0 == producer => last.1 = delay,
                _ => deps.push((producer, delay)),
            }
        }
        self.instrs.push(LogicalInstr { inst, deps, stream });
        id
    }

    fn state(&mut self, loc: Loc) -> &mut LocState {
        match loc {
            Loc::Reg(lane, addr) => {
                let bank = &mut self.regs[lane];
                if bank.len() <= addr {
                    bank.resize(addr + 1, LocState::EMPTY);
                }
                &mut bank[addr]
            }
            Loc::Latch(lane) => &mut self.latches[lane],
        }
    }

    fn note_read(&mut self, loc: Loc, id: u32) {
        let state = *self.state(loc);
        if state.last_write != NONE {
            self.deps.push((state.last_write as usize, self.latency));
        }
        let list = if state.readers == NONE {
            let list = self.free.pop().unwrap_or_else(|| {
                self.lists.push(Vec::new());
                (self.lists.len() - 1) as u32
            });
            self.state(loc).readers = list;
            list
        } else {
            state.readers
        };
        self.lists[list as usize].push(id);
    }

    fn note_write(&mut self, loc: Loc, id: u32, rmw: bool) {
        let state = *self.state(loc);
        if state.last_write != NONE {
            // A read-modify-write must wait for the previous value; a plain
            // store only needs commit ordering.
            let delay = if rmw { self.latency } else { 1 };
            self.deps.push((state.last_write as usize, delay));
        }
        if state.readers != NONE {
            let readers = &mut self.lists[state.readers as usize];
            let earlier = readers.iter().filter(|&&r| r != id);
            self.deps.extend(earlier.map(|&r| (r as usize, 0)));
            readers.clear();
            self.free.push(state.readers);
        }
        *self.state(loc) = LocState {
            last_write: id,
            readers: NONE,
        };
    }

    /// Finishes the kernel.
    pub fn finish(self) -> Kernel {
        Kernel {
            name: self.name,
            width: self.width,
            instrs: self.instrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_core::instruction::{LaneSource, LaneWrite, WriteMode};

    fn store(width: usize, lane: usize, from_addr: usize, to_addr: usize) -> NetInstruction {
        let mut i = NetInstruction::nop(width);
        i.set_input(lane, LaneSource::Reg { addr: from_addr });
        i.route(lane, lane);
        i.set_write(
            lane,
            LaneWrite {
                addr: to_addr,
                mode: WriteMode::Store,
            },
        );
        i
    }

    #[test]
    fn raw_dependency_has_full_latency() {
        let mut b = KernelBuilder::new("t", 8, 5);
        let p = b.push(store(8, 0, 0, 1), vec![]);
        let c = b.push(store(8, 0, 1, 2), vec![]); // reads what p wrote
        let k = b.finish();
        assert_eq!(k.instrs[c].deps, vec![(p, 5)]);
        assert!(k.instrs[p].deps.is_empty());
    }

    #[test]
    fn waw_is_one_cycle_and_war_is_zero() {
        let mut b = KernelBuilder::new("t", 8, 5);
        let w1 = b.push(store(8, 0, 9, 1), vec![]);
        let r = b.push(store(8, 0, 1, 3), vec![]); // reads (0,1)
        let w2 = b.push(store(8, 0, 9, 1), vec![]); // overwrites (0,1)
        let k = b.finish();
        // w2 depends on w1 with delay 1 (WAW) and on r with delay 0 (WAR).
        assert!(k.instrs[w2].deps.contains(&(w1, 1)));
        assert!(k.instrs[w2].deps.contains(&(r, 0)));
    }

    #[test]
    fn rmw_write_waits_full_latency() {
        let mut b = KernelBuilder::new("t", 8, 5);
        let w1 = b.push(store(8, 2, 0, 7), vec![]);
        let mut acc = NetInstruction::nop(8);
        acc.set_input(2, LaneSource::Reg { addr: 0 });
        acc.route(2, 2);
        acc.set_write(
            2,
            LaneWrite {
                addr: 7,
                mode: WriteMode::Add,
            },
        );
        let a = b.push(acc, vec![]);
        let k = b.finish();
        assert!(k.instrs[a].deps.contains(&(w1, 5)));
    }

    #[test]
    fn latch_tracked_as_location() {
        let mut b = KernelBuilder::new("t", 8, 5);
        let mut bcast = NetInstruction::nop(8);
        bcast.set_input(1, LaneSource::Reg { addr: 0 });
        bcast.route(1, 3);
        bcast.set_write(
            3,
            LaneWrite {
                addr: 0,
                mode: WriteMode::Latch,
            },
        );
        let p = b.push(bcast, vec![]);
        let mut use_latch = NetInstruction::nop(8);
        use_latch.set_input(
            3,
            LaneSource::RegTimesLatch {
                addr: 2,
                negate: false,
            },
        );
        use_latch.route(3, 3);
        use_latch.set_write(
            3,
            LaneWrite {
                addr: 4,
                mode: WriteMode::Store,
            },
        );
        let c = b.push(use_latch, vec![]);
        let k = b.finish();
        assert!(k.instrs[c].deps.contains(&(p, 5)));
    }

    #[test]
    fn independent_instructions_have_no_deps() {
        let mut b = KernelBuilder::new("t", 8, 5);
        b.push(store(8, 0, 0, 1), vec![]);
        let i2 = b.push(store(8, 1, 0, 1), vec![]); // different bank
        let k = b.finish();
        assert!(k.instrs[i2].deps.is_empty());
    }

    #[test]
    fn concat_shifts_indices() {
        let mut b1 = KernelBuilder::new("a", 8, 5);
        b1.push(store(8, 0, 0, 1), vec![]);
        let mut b2 = KernelBuilder::new("b", 8, 5);
        let p = b2.push(store(8, 0, 0, 1), vec![]);
        let c = b2.push(store(8, 0, 1, 2), vec![]);
        let k = b1.finish().concat(b2.finish());
        assert_eq!(k.len(), 3);
        assert_eq!(k.instrs[1 + c].deps, vec![(1 + p, 5)]);
    }
}
