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
//!
//! A kernel is struct-of-arrays: one vector of instructions, one flat
//! vector of `(producer, delay)` dependences and one flat vector of
//! `(key, word)` HBM stream entries, the latter two cut per instruction by
//! end offsets. Building a kernel allocates per kernel, not per logical
//! instruction: the builder appends each instruction's dependences and
//! words in place, and the readers of every register and latch location
//! since its last write are linked lists threaded through one arena.
//! Lanes name the same producer many times (a full-width instruction after
//! another names it once per lane); a per-producer stamp keeps one entry
//! per producer as they arrive, so only the distinct producers are sorted.

use mib_core::instruction::{NetInstruction, WriteMode};

/// A finished logical instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Human-readable kernel name (e.g. `"A_multiply"`).
    pub name: String,
    /// Machine width the kernel was built for.
    pub width: usize,
    /// The logical instructions in algorithm order.
    instrs: Vec<NetInstruction>,
    /// Every instruction's `(producer index, minimum slot distance)`
    /// pairs, one entry per producer in ascending producer order,
    /// instruction after instruction.
    deps: Vec<(usize, u64)>,
    /// `deps_end[i]`: the end of instruction `i`'s run in `deps`.
    deps_end: Vec<usize>,
    /// Every instruction's HBM words tagged by sort key, instruction after
    /// instruction: `lane` for input-stage words, `width + lane` for
    /// output-multiplier words (the machine consumes a slot's input-phase
    /// words in lane order first, then the output-multiplier words in lane
    /// order).
    stream: Vec<(usize, f64)>,
    /// `stream_end[i]`: the end of instruction `i`'s run in `stream`.
    stream_end: Vec<usize>,
}

/// Instruction `i`'s run of a flat array cut by `ends`.
fn run<'a, T>(all: &'a [T], ends: &[usize], i: usize) -> &'a [T] {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    &all[start..ends[i]]
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

    /// The logical instructions in algorithm order.
    pub(crate) fn instrs(&self) -> &[NetInstruction] {
        &self.instrs
    }

    /// Logical instruction `i`'s `(producer index, minimum slot distance)`
    /// pairs: one per producer, in ascending producer order.
    pub(crate) fn deps(&self, i: usize) -> &[(usize, u64)] {
        run(&self.deps, &self.deps_end, i)
    }

    /// Total HBM words the kernel streams.
    pub(crate) fn stream_words(&self) -> usize {
        self.stream.len()
    }

    /// Logical instruction `i`'s HBM words, tagged by sort key: `lane` for
    /// input-stage words, `width + lane` for output-multiplier words.
    pub(crate) fn stream(&self, i: usize) -> &[(usize, f64)] {
        run(&self.stream, &self.stream_end, i)
    }
}

/// No instruction or arena node: an unwritten location, a location
/// without readers, or the end of a reader list.
const NONE: u32 = u32::MAX;

/// The dependency state of one register or latch location.
#[derive(Debug, Clone, Copy)]
struct LocState {
    /// The last instruction that wrote the location.
    last_write: u32,
    /// The head of the location's reader list in [`KernelBuilder::readers`]:
    /// the instructions that read it since that write, latest first.
    readers: u32,
}

impl LocState {
    const EMPTY: LocState = LocState {
        last_write: NONE,
        readers: NONE,
    };
}

/// One reader of a location, linked to the location's earlier readers.
#[derive(Debug, Clone, Copy)]
struct Reader {
    instr: u32,
    next: u32,
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
    kernel: Kernel,
    latency: u64,
    /// Per lane, per register address (grown on first touch).
    regs: Vec<Vec<LocState>>,
    /// Per lane, its broadcast latch.
    latches: Vec<LocState>,
    /// The arena of every location's reader list. A write that drains a
    /// list returns its nodes to the `free` list.
    readers: Vec<Reader>,
    free: u32,
    /// Per instruction, as a producer: the last instruction that depended
    /// on it and the position of that dependence in `kernel.deps`, so an
    /// instruction keeps one entry per producer as its lanes add them.
    seen: Vec<(u32, usize)>,
}

impl KernelBuilder {
    /// Starts a kernel for a width-`width` machine with the given pipeline
    /// latency (use [`mib_core::MibConfig::latency`]).
    pub fn new(name: impl Into<String>, width: usize, latency: u64) -> Self {
        KernelBuilder {
            kernel: Kernel {
                name: name.into(),
                width,
                instrs: Vec::new(),
                deps: Vec::new(),
                deps_end: Vec::new(),
                stream: Vec::new(),
                stream_end: Vec::new(),
            },
            latency,
            regs: vec![Vec::new(); width],
            latches: vec![LocState::EMPTY; width],
            readers: Vec::new(),
            free: NONE,
            seen: Vec::new(),
        }
    }

    /// Machine width.
    pub fn width(&self) -> usize {
        self.kernel.width
    }

    /// Number of instructions so far.
    pub fn len(&self) -> usize {
        self.kernel.len()
    }

    /// Whether no instruction has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.kernel.is_empty()
    }

    /// Appends an instruction, computing its dependencies. `stream` holds
    /// the HBM words the instruction consumes, tagged by lane.
    ///
    /// Returns the logical index of the instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction width differs from the kernel width.
    pub fn push(
        &mut self,
        inst: NetInstruction,
        stream: impl IntoIterator<Item = (usize, f64)>,
    ) -> usize {
        assert_eq!(
            inst.width(),
            self.kernel.width,
            "instruction width mismatch"
        );
        let id = self.kernel.instrs.len();
        let id32 = u32::try_from(id).expect("a kernel holds fewer than 2^32 instructions");
        // This instruction's pairs collect at the end of the flat array.
        let start = self.kernel.deps.len();

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

        // One entry per producer, with its largest delay, in producer order.
        self.kernel.deps[start..].sort_unstable_by_key(|&(producer, _)| producer);
        self.kernel.deps_end.push(self.kernel.deps.len());
        self.seen.push((NONE, 0));
        self.kernel.stream.extend(stream);
        self.kernel.stream_end.push(self.kernel.stream.len());
        self.kernel.instrs.push(inst);
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

    /// Records that instruction `id` waits `delay` slots for `producer`:
    /// a new entry for the first lane that names the producer, the larger
    /// delay on the entry for every later one.
    fn depend(&mut self, id: u32, producer: u32, delay: u64) {
        let deps = &mut self.kernel.deps;
        let seen = &mut self.seen[producer as usize];
        if seen.0 == id {
            let entry = &mut deps[seen.1].1;
            *entry = (*entry).max(delay);
        } else {
            *seen = (id, deps.len());
            deps.push((producer as usize, delay));
        }
    }

    fn note_read(&mut self, loc: Loc, id: u32) {
        let state = *self.state(loc);
        if state.last_write != NONE {
            self.depend(id, state.last_write, self.latency);
        }
        let node = Reader {
            instr: id,
            next: state.readers,
        };
        let head = if self.free == NONE {
            self.readers.push(node);
            (self.readers.len() - 1) as u32
        } else {
            let head = self.free;
            self.free = self.readers[head as usize].next;
            self.readers[head as usize] = node;
            head
        };
        self.state(loc).readers = head;
    }

    fn note_write(&mut self, loc: Loc, id: u32, rmw: bool) {
        let state = *self.state(loc);
        if state.last_write != NONE {
            // A read-modify-write must wait for the previous value; a plain
            // store only needs commit ordering.
            let delay = if rmw { self.latency } else { 1 };
            self.depend(id, state.last_write, delay);
        }
        // Every earlier reader is a zero-delay producer; the drained nodes
        // go back to the free list.
        let mut node = state.readers;
        while node != NONE {
            let Reader { instr, next } = self.readers[node as usize];
            if instr != id {
                self.depend(id, instr, 0);
            }
            self.readers[node as usize].next = self.free;
            self.free = node;
            node = next;
        }
        *self.state(loc) = LocState {
            last_write: id,
            readers: NONE,
        };
    }

    /// Finishes the kernel.
    pub fn finish(self) -> Kernel {
        self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mib_core::instruction::{InstrKind, LaneSource, LaneWrite, WriteMode};

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
        assert_eq!(k.deps(c), vec![(p, 5)]);
        assert!(k.deps(p).is_empty());
    }

    #[test]
    fn waw_is_one_cycle_and_war_is_zero() {
        let mut b = KernelBuilder::new("t", 8, 5);
        let w1 = b.push(store(8, 0, 9, 1), vec![]);
        let r = b.push(store(8, 0, 1, 3), vec![]); // reads (0,1)
        let w2 = b.push(store(8, 0, 9, 1), vec![]); // overwrites (0,1)
        let k = b.finish();
        // w2 depends on w1 with delay 1 (WAW) and on r with delay 0 (WAR).
        assert!(k.deps(w2).contains(&(w1, 1)));
        assert!(k.deps(w2).contains(&(r, 0)));
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
        assert!(k.deps(a).contains(&(w1, 5)));
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
        assert!(k.deps(c).contains(&(p, 5)));
    }

    #[test]
    fn one_dependence_per_producer_with_its_largest_delay() {
        // Rows, one address across all 32 lanes.
        const A: usize = 1;
        const B: usize = 2;
        const OTHER: usize = 3;
        let row = |read: usize, write: usize| {
            NetInstruction::straight(32, InstrKind::Elementwise, u128::from(u32::MAX), |_| {
                let write = LaneWrite {
                    addr: write,
                    mode: WriteMode::Store,
                };
                (LaneSource::Reg { addr: read }, write)
            })
        };
        let mut b = KernelBuilder::new("t", 32, 5);
        let writer = b.push(row(OTHER, B), []);
        // Reads B and writes A: B's first reader and A's producer, so the
        // instruction below names it with delays 5 (RAW) and 0 (WAR).
        let producer = b.push(row(B, A), []);
        let reader = b.push(row(B, 8), []);
        // Every lane reads A (RAW on `producer`) and overwrites B (WAW on
        // `writer`, WAR on both readers): 128 lane dependences, three
        // producers.
        let c = b.push(row(A, B), []);
        let k = b.finish();
        assert_eq!(k.deps(c), [(writer, 1), (producer, 5), (reader, 0)]);
    }

    #[test]
    fn independent_instructions_have_no_deps() {
        let mut b = KernelBuilder::new("t", 8, 5);
        b.push(store(8, 0, 0, 1), vec![]);
        let i2 = b.push(store(8, 1, 0, 1), vec![]); // different bank
        let k = b.finish();
        assert!(k.deps(i2).is_empty());
    }
}
