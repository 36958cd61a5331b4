//! Compiler-side certification of compiled schedules.
//!
//! A schedule is **certified** when two checks pass:
//!
//! 1. the exact timing predictor accepts it under the strict hazard
//!    policy — `mib_core::timing::predict(…, HazardPolicy::Strict)` returns the
//!    machine's own verdict, so a certified program cannot be rejected by
//!    [`mib_core::machine::Machine::run`];
//! 2. the kernel-aware **packing cross-check** (`verify_packing`), which
//!    only the compiler can run because it needs the logical instruction
//!    stream, proves the scheduler *placed* instructions legally: every
//!    dependency distance is respected, the logical instructions of each
//!    slot re-merge without collisions, and the re-merged slots and
//!    re-assembled HBM stream are bitwise identical to what
//!    [`crate::schedule::schedule`] published.
//!
//! The lowering pipeline calls [`checked_schedule`] instead of the raw
//! scheduler: in builds with debug assertions (debug builds and the
//! `checked` profile) every schedule is certified immediately after
//! packing. A program-cache hit schedules nothing: it shares the miss's
//! certified programs.

use std::fmt;

use mib_core::instruction::NetInstruction;
use mib_core::machine::HazardPolicy;
use mib_core::{timing, MibConfig};

use crate::kernel::Kernel;
use crate::schedule::{schedule, Schedule, ScheduleOptions};

/// The first defect the packing cross-check finds in a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PackingError {
    /// `slot_of` gives this logical instruction no slot inside the program
    /// (or covers a different number of instructions than the kernel has).
    Unplaced { logical: usize },
    /// A logical instruction sits closer to its producer than the
    /// dependency distance allows.
    Dependency {
        logical: usize,
        producer: usize,
        required: u64,
        actual: u64,
    },
    /// Two logical instructions packed into one slot collide on a network
    /// node or register port (`detail` names it, as the merge check does).
    Collision { logical: usize, detail: String },
    /// The slot rebuilt from the kernel's logical instructions differs from
    /// the published one.
    SlotMismatch { slot: usize },
    /// The HBM stream rebuilt from the kernel differs from the published
    /// stream at this word (or at the shorter length).
    StreamMismatch { word: usize },
}

impl fmt::Display for PackingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackingError::Unplaced { logical } => write!(f, "logical {logical} has no slot"),
            PackingError::Dependency {
                logical,
                producer,
                required,
                actual,
            } => write!(
                f,
                "logical {logical} is {actual} slot(s) after producer {producer}, \
                 the dependency requires {required}"
            ),
            PackingError::Collision { logical, detail } => {
                write!(f, "logical {logical} collides in its slot: {detail}")
            }
            PackingError::SlotMismatch { slot } => {
                write!(f, "slot {slot} differs from its re-merge")
            }
            PackingError::StreamMismatch { word } => {
                write!(f, "HBM stream diverges at word {word}")
            }
        }
    }
}

/// Cross-checks a schedule against the kernel it was packed from:
///
/// 1. every logical instruction sits at or after its dependency-ready slot,
/// 2. the logical instructions assigned to each slot merge collision-free,
/// 3. the re-merged slots equal the published program bitwise,
/// 4. the re-assembled HBM stream equals the published stream.
///
/// Returns the first defect, in that check order.
fn verify_packing(kernel: &Kernel, s: &Schedule) -> Result<(), PackingError> {
    if s.slot_of.len() != kernel.len() {
        return Err(PackingError::Unplaced {
            logical: s.slot_of.len().min(kernel.len()),
        });
    }

    // 1. Dependency distances.
    for c in 0..kernel.len() {
        let slot_c = s.slot_of[c] as u64;
        for &(p, delay) in kernel.deps(c) {
            let slot_p = s.slot_of[p] as u64;
            if slot_c < slot_p + delay {
                return Err(PackingError::Dependency {
                    logical: c,
                    producer: p,
                    required: delay,
                    actual: slot_c.saturating_sub(slot_p),
                });
            }
        }
    }

    // 2. Re-merge each slot's logical instructions, re-assemble the stream.
    let mut rebuilt = vec![NetInstruction::nop(kernel.width); s.program.len()];
    let mut streams: Vec<Vec<(usize, f64)>> = vec![Vec::new(); s.program.len()];
    for (idx, inst) in kernel.instrs().iter().enumerate() {
        let t = s.slot_of[idx];
        let slot = rebuilt
            .get_mut(t)
            .ok_or(PackingError::Unplaced { logical: idx })?;
        *slot = slot.try_merge(inst).map_err(|e| PackingError::Collision {
            logical: idx,
            detail: e.to_string(),
        })?;
        streams[t].extend_from_slice(kernel.stream(idx));
    }

    // 3. Slot equality.
    if let Some(slot) = rebuilt.iter().zip(&s.program[..]).position(|(a, b)| a != b) {
        return Err(PackingError::SlotMismatch { slot });
    }

    // 4. Stream equality: within a slot the machine consumes words in the
    // kernel's lane-order sort keys, slots in issue order.
    let mut hbm = Vec::with_capacity(s.hbm.len());
    for slot_stream in &mut streams {
        slot_stream.sort_by_key(|&(lane, _)| lane);
        hbm.extend(slot_stream.iter().map(|&(_, w)| w));
    }
    if hbm.len() != s.hbm.len() {
        return Err(PackingError::StreamMismatch {
            word: hbm.len().min(s.hbm.len()),
        });
    }
    match hbm
        .iter()
        .zip(&s.hbm)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(word) => Err(PackingError::StreamMismatch { word }),
        None => Ok(()),
    }
}

/// Schedules a kernel and — in builds with debug assertions — immediately
/// certifies the result: one strict prediction plus the packing
/// cross-check.
///
/// # Panics
///
/// Panics with the defect if certification fails: a schedule the machine
/// would reject, or one the packer placed unfaithfully, must never leave
/// the compiler silently.
pub fn checked_schedule(kernel: &Kernel, opts: ScheduleOptions, config: &MibConfig) -> Schedule {
    let s = schedule(kernel, opts);
    if cfg!(debug_assertions) {
        if let Err(e) = verify_packing(kernel, &s) {
            panic!("compiler packed {} unfaithfully: {e}", kernel.name);
        }
        let strict = timing::predict(&s.program, s.hbm.len(), config, HazardPolicy::Strict);
        if let Err(e) = strict {
            panic!(
                "compiler produced an uncertifiable {} schedule: {e}",
                kernel.name
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use mib_core::instruction::{LaneSource, LaneWrite, WriteMode};
    use mib_core::MibError;

    fn config() -> MibConfig {
        MibConfig {
            width: 8,
            bank_depth: 64,
            clock_hz: 1e6,
        }
    }

    fn mov(lane: usize, from: usize, to: usize) -> NetInstruction {
        let mut i = NetInstruction::nop(8);
        i.set_input(lane, LaneSource::Reg { addr: from });
        i.route(lane, lane);
        i.set_write(
            lane,
            LaneWrite {
                addr: to,
                mode: WriteMode::Store,
            },
        );
        i
    }

    fn chain_kernel() -> Kernel {
        let mut b = KernelBuilder::new("chain", 8, config().latency());
        b.push(mov(0, 0, 1), vec![]);
        b.push(mov(0, 1, 2), vec![]); // RAW on (0,1)
        b.push(mov(3, 0, 1), vec![]); // independent
        b.finish()
    }

    /// The strict prediction of a schedule: `Ok` iff it is certified at
    /// the program level.
    fn strict(s: &Schedule) -> Result<timing::StaticTiming, MibError> {
        timing::predict(&s.program, s.hbm.len(), &config(), HazardPolicy::Strict)
    }

    #[test]
    fn faithful_packing_passes_cross_check() {
        let kernel = chain_kernel();
        let s = schedule(&kernel, ScheduleOptions::default());
        assert_eq!(verify_packing(&kernel, &s), Ok(()));
        assert!(strict(&s).is_ok());
    }

    #[test]
    fn shrunk_dependency_gap_is_caught() {
        let kernel = chain_kernel();
        let mut s = schedule(&kernel, ScheduleOptions::default());
        // Move the consumer one slot after its producer: both the packing
        // cross-check and the strict prediction must object.
        let producer_slot = s.slot_of[0];
        let old_slot = s.slot_of[1];
        let mut program = s.program.to_vec();
        program[old_slot] = NetInstruction::nop(8);
        program[producer_slot + 1] = s.program[old_slot].clone();
        s.program = program.into();
        s.slot_of[1] = producer_slot + 1;
        assert!(matches!(
            verify_packing(&kernel, &s),
            Err(PackingError::Dependency { logical: 1, .. })
        ));
        assert!(matches!(strict(&s), Err(MibError::DataHazard { .. })));
    }

    #[test]
    fn corrupted_slot_is_caught() {
        let kernel = chain_kernel();
        let mut s = schedule(&kernel, ScheduleOptions::default());
        // Tamper with a published slot without telling slot_of.
        let t = s.slot_of[2];
        let mut program = s.program.to_vec();
        program[t] = program[t].try_merge(&mov(5, 0, 1)).unwrap();
        s.program = program.into();
        assert_eq!(
            verify_packing(&kernel, &s),
            Err(PackingError::SlotMismatch { slot: t })
        );
    }

    #[test]
    fn colliding_placement_is_caught() {
        // Two moves on the same lane cannot share a slot; force slot_of to
        // claim they do and the re-merge must report the port collision.
        let mut b = KernelBuilder::new("collide", 8, config().latency());
        b.push(mov(0, 0, 1), vec![]);
        b.push(mov(0, 5, 6), vec![]); // same lane as logical 0
        let kernel = b.finish();
        let mut s = schedule(&kernel, ScheduleOptions::default());
        s.slot_of = vec![0, 0];
        s.program = vec![s.program[0].clone()].into();
        let err = verify_packing(&kernel, &s);
        assert!(
            matches!(err, Err(PackingError::Collision { logical: 1, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn dropped_stream_word_is_caught() {
        let mut b = KernelBuilder::new("stream", 8, config().latency());
        let mut i = NetInstruction::nop(8);
        i.set_input(2, LaneSource::Stream);
        i.route(2, 2);
        i.set_write(
            2,
            LaneWrite {
                addr: 0,
                mode: WriteMode::Store,
            },
        );
        b.push(i, vec![(2, 7.5)]);
        let kernel = b.finish();
        let mut s = schedule(&kernel, ScheduleOptions::default());
        s.hbm.pop();
        assert_eq!(
            verify_packing(&kernel, &s),
            Err(PackingError::StreamMismatch { word: 0 })
        );
        // The strict prediction independently rejects the short stream.
        assert!(matches!(
            strict(&s),
            Err(MibError::StreamExhausted { instruction: 0 })
        ));
    }

    #[test]
    fn forced_appends_still_certify() {
        let mut b = KernelBuilder::new("tight", 8, config().latency());
        b.push(mov(0, 2, 1), vec![]);
        b.push(mov(0, 3, 1), vec![]);
        b.push(mov(0, 4, 1), vec![]);
        b.push(mov(0, 5, 6), vec![]);
        let kernel = b.finish();
        let s = schedule(
            &kernel,
            ScheduleOptions {
                probe_limit: 0,
                ..ScheduleOptions::default()
            },
        );
        assert!(s.forced_appends > 0);
        // Degraded packing is still collision-free and hazard-free.
        assert_eq!(verify_packing(&kernel, &s), Ok(()));
        assert!(strict(&s).is_ok());
    }

    #[test]
    fn checked_schedule_accepts_compiler_output() {
        let kernel = chain_kernel();
        let s = checked_schedule(&kernel, ScheduleOptions::default(), &config());
        assert_eq!(s.logical_count(), 3);
    }
}
