//! Diagnostics with provenance: every finding names the issue slot it
//! anchors to and, where applicable, the storage location involved.

use std::fmt;

/// How serious a finding is.
///
/// `Error` diagnostics are exactly the class of defects the machine's
/// [`mib_core::machine::HazardPolicy::Strict`] execution (or its width /
/// address / stream checks) would reject at runtime — a program is
/// *certified* iff it has none. `Warning` marks legal-but-wasteful
/// constructs (dead writes, surplus stream words, packing fallbacks);
/// `Info` carries analysis facts (live-in locations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Analysis fact; no action needed.
    Info,
    /// Legal but suspicious or wasteful.
    Warning,
    /// The machine would reject this program.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A storage location of the machine: a register-bank word or a lane's
/// broadcast latch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Loc {
    /// `bank[addr]` of the banked register files.
    Reg {
        /// Bank (= lane) index.
        bank: usize,
        /// Address within the bank.
        addr: usize,
    },
    /// The broadcast latch of a lane.
    Latch {
        /// Lane index.
        lane: usize,
    },
}

impl Loc {
    /// The bank/lane component of the location.
    pub fn bank(&self) -> usize {
        match *self {
            Loc::Reg { bank, .. } => bank,
            Loc::Latch { lane } => lane,
        }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Loc::Reg { bank, addr } => write!(f, "bank {bank} addr {addr}"),
            Loc::Latch { lane } => write!(f, "lane {lane} latch"),
        }
    }
}

/// What a diagnostic is about.
///
/// The first group mirrors the machine's runtime failure modes one-to-one;
/// the second group holds schedule-level lints a runtime execution cannot
/// see. Kinds prefixed `Packing*` are produced by the compiler's
/// kernel-aware cross-checker, not by [`crate::verify_program`].
#[derive(Debug, Clone, PartialEq)]
pub enum DiagKind {
    /// A read (or the implicit read of a read-modify-write writeback)
    /// issues inside the producing write's latency window — the machine
    /// would raise `MibError::DataHazard`.
    HazardRead {
        /// Location read too early.
        loc: Loc,
        /// Slot of the pending write.
        write_slot: usize,
        /// First slot at which the write is architecturally visible.
        visible_slot: usize,
        /// Whether the offending read is a read-modify-write writeback.
        rmw: bool,
    },
    /// An instruction's width differs from the machine width
    /// (`MibError::WidthMismatch`).
    WidthMismatch {
        /// Width of the slot's instruction.
        got: usize,
        /// Machine width.
        expected: usize,
    },
    /// A register access outside the configured bank depth
    /// (`MibError::AddressOutOfRange`).
    AddressOutOfRange {
        /// Offending location.
        loc: Loc,
        /// Configured bank depth.
        depth: usize,
    },
    /// The program consumes more HBM words than the stream provides
    /// (`MibError::StreamExhausted`).
    StreamUnderflow {
        /// Words the program consumes.
        consumed: usize,
        /// Words the stream provides.
        provided: usize,
    },
    /// The stream provides words the program never consumes — wasted
    /// bandwidth, and a likely consumption-order bug upstream.
    StreamSurplus {
        /// Words the program consumes.
        consumed: usize,
        /// Words the stream provides.
        provided: usize,
    },
    /// A value is overwritten without ever having been read — the earlier
    /// write was wasted work.
    DeadWrite {
        /// Location whose value dies.
        loc: Loc,
        /// Slot of the overwritten (dead) write.
        write_slot: usize,
    },
    /// Two writebacks in one slot target the same location; the commit
    /// order inside a slot is undefined. (Structurally unreachable through
    /// `NetInstruction`'s one-write-port-per-lane invariant; checked as
    /// defense in depth.)
    DoubleWrite {
        /// Location written twice.
        loc: Loc,
    },
    /// A writeback commits the architectural zero of an idle final-stage
    /// node — usually a routing that was dropped on the floor.
    UndrivenWrite {
        /// Lane whose writeback has no driven value.
        lane: usize,
    },
    /// Locations read before any write in this program: the program's
    /// live-in set, which callers must guarantee earlier programs (or the
    /// initial zero state) populated. One summary diagnostic per program.
    ReadBeforeInit {
        /// Number of distinct live-in locations.
        count: usize,
        /// A few sample locations with the slot of their **first** read,
        /// lowest bank/address first. Register and latch locations carry
        /// their provenance uniformly through [`Loc`], mirroring the
        /// `bank`/`addr`/`latch` fields of `MibError::DataHazard`.
        sample: Vec<(Loc, usize)>,
    },
    /// First-fit exhausted its probe limit and fell back to appending
    /// fresh slots; packing quality is degraded.
    ForcedAppends {
        /// How many instructions were force-appended.
        count: usize,
    },
    /// Two logical instructions packed into one slot collide on a network
    /// node or register port.
    PackingCollision {
        /// Logical index of the later instruction.
        logical: usize,
        /// The shared resource, as reported by the merge check.
        detail: String,
    },
    /// A logical instruction was placed closer to its producer than the
    /// dependency distance allows.
    PackingDependency {
        /// Logical index of the consumer.
        logical: usize,
        /// Logical index of the producer.
        producer: usize,
        /// Required minimum slot distance.
        required: u64,
        /// Actual slot distance.
        actual: u64,
    },
    /// The slot rebuilt from the kernel's logical instructions differs
    /// from the published program — the packer corrupted a merge.
    PackingSlotMismatch,
    /// The HBM stream rebuilt from the kernel differs from the published
    /// stream.
    PackingStreamMismatch {
        /// First differing word index (or the shorter length).
        word: usize,
    },
}

impl DiagKind {
    /// The severity class this kind always carries.
    pub fn severity(&self) -> Severity {
        match self {
            DiagKind::HazardRead { .. }
            | DiagKind::WidthMismatch { .. }
            | DiagKind::AddressOutOfRange { .. }
            | DiagKind::StreamUnderflow { .. }
            | DiagKind::DoubleWrite { .. }
            | DiagKind::PackingCollision { .. }
            | DiagKind::PackingDependency { .. }
            | DiagKind::PackingSlotMismatch
            | DiagKind::PackingStreamMismatch { .. } => Severity::Error,
            DiagKind::StreamSurplus { .. }
            | DiagKind::DeadWrite { .. }
            | DiagKind::UndrivenWrite { .. }
            | DiagKind::ForcedAppends { .. } => Severity::Warning,
            DiagKind::ReadBeforeInit { .. } => Severity::Info,
        }
    }

    /// The storage location the finding is about, when it has a single
    /// canonical one — the third component of the deterministic
    /// `(severity, slot, loc)` report ordering.
    pub fn loc(&self) -> Option<Loc> {
        match self {
            DiagKind::HazardRead { loc, .. }
            | DiagKind::AddressOutOfRange { loc, .. }
            | DiagKind::DeadWrite { loc, .. }
            | DiagKind::DoubleWrite { loc } => Some(*loc),
            DiagKind::ReadBeforeInit { sample, .. } => sample.first().map(|&(loc, _)| loc),
            _ => None,
        }
    }

    /// Short kebab-case name of the kind (stable; used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            DiagKind::HazardRead { .. } => "hazard-read",
            DiagKind::WidthMismatch { .. } => "width-mismatch",
            DiagKind::AddressOutOfRange { .. } => "address-out-of-range",
            DiagKind::StreamUnderflow { .. } => "stream-underflow",
            DiagKind::StreamSurplus { .. } => "stream-surplus",
            DiagKind::DeadWrite { .. } => "dead-write",
            DiagKind::DoubleWrite { .. } => "double-write",
            DiagKind::UndrivenWrite { .. } => "undriven-write",
            DiagKind::ReadBeforeInit { .. } => "read-before-init",
            DiagKind::ForcedAppends { .. } => "forced-appends",
            DiagKind::PackingCollision { .. } => "packing-collision",
            DiagKind::PackingDependency { .. } => "packing-dependency",
            DiagKind::PackingSlotMismatch => "packing-slot-mismatch",
            DiagKind::PackingStreamMismatch { .. } => "packing-stream-mismatch",
        }
    }
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagKind::HazardRead {
                loc,
                write_slot,
                visible_slot,
                rmw,
            } => {
                let what = if *rmw {
                    "read-modify-write of"
                } else {
                    "read of"
                };
                write!(
                    f,
                    "{what} {loc} inside the latency window: written at slot \
                     {write_slot}, visible from slot {visible_slot}"
                )
            }
            DiagKind::WidthMismatch { got, expected } => {
                write!(f, "instruction width {got} on a width-{expected} machine")
            }
            DiagKind::AddressOutOfRange { loc, depth } => {
                write!(f, "{loc} outside bank depth {depth}")
            }
            DiagKind::StreamUnderflow { consumed, provided } => write!(
                f,
                "program consumes {consumed} HBM words but the stream holds {provided}"
            ),
            DiagKind::StreamSurplus { consumed, provided } => write!(
                f,
                "stream holds {provided} HBM words but the program consumes only {consumed}"
            ),
            DiagKind::DeadWrite { loc, write_slot } => write!(
                f,
                "write to {loc} at slot {write_slot} is overwritten without being read"
            ),
            DiagKind::DoubleWrite { loc } => {
                write!(f, "two writebacks target {loc} in the same slot")
            }
            DiagKind::UndrivenWrite { lane } => write!(
                f,
                "lane {lane} writes back an undriven (architectural zero) value"
            ),
            DiagKind::ReadBeforeInit { count, sample } => {
                write!(f, "{count} location(s) read before any write (live-in):")?;
                for (loc, first_read_slot) in sample {
                    write!(f, " {loc} (first read at slot {first_read_slot});")?;
                }
                if *count > sample.len() {
                    write!(f, " …")?;
                }
                Ok(())
            }
            DiagKind::ForcedAppends { count } => write!(
                f,
                "first-fit probe limit exhausted {count} time(s); slots were force-appended"
            ),
            DiagKind::PackingCollision { logical, detail } => write!(
                f,
                "logical instruction {logical} collides with its slot's packing: {detail}"
            ),
            DiagKind::PackingDependency {
                logical,
                producer,
                required,
                actual,
            } => write!(
                f,
                "logical instruction {logical} is {actual} slot(s) after producer \
                 {producer}, but the dependency requires {required}"
            ),
            DiagKind::PackingSlotMismatch => {
                write!(f, "slot differs from the merge of its logical instructions")
            }
            DiagKind::PackingStreamMismatch { word } => write!(
                f,
                "HBM stream diverges from the kernel's words at index {word}"
            ),
        }
    }
}

/// One finding, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Severity class (always `self.kind.severity()`).
    pub severity: Severity,
    /// Issue slot the finding anchors to (`None` for whole-program
    /// findings such as stream accounting).
    pub slot: Option<usize>,
    /// Logical instruction index, when the kernel-aware cross-checker
    /// knows it (`None` for post-merge program analysis).
    pub logical: Option<usize>,
    /// The finding itself.
    pub kind: DiagKind,
}

impl Diagnostic {
    /// Builds a diagnostic anchored to an issue slot.
    pub fn at_slot(slot: usize, kind: DiagKind) -> Self {
        Diagnostic {
            severity: kind.severity(),
            slot: Some(slot),
            logical: None,
            kind,
        }
    }

    /// Builds a whole-program diagnostic.
    pub fn global(kind: DiagKind) -> Self {
        Diagnostic {
            severity: kind.severity(),
            slot: None,
            logical: None,
            kind,
        }
    }

    /// Attaches a logical instruction index.
    pub fn with_logical(mut self, logical: usize) -> Self {
        self.logical = Some(logical);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.kind.name())?;
        if let Some(slot) = self.slot {
            write!(f, " slot {slot}")?;
        }
        if let Some(logical) = self.logical {
            write!(f, " (logical {logical})")?;
        }
        write!(f, ": {}", self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_prints() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn diagnostic_display_names_location_and_slot() {
        let d = Diagnostic::at_slot(
            12,
            DiagKind::HazardRead {
                loc: Loc::Reg { bank: 3, addr: 7 },
                write_slot: 9,
                visible_slot: 14,
                rmw: false,
            },
        );
        let s = d.to_string();
        assert!(s.contains("error[hazard-read]"), "{s}");
        assert!(s.contains("slot 12"), "{s}");
        assert!(s.contains("bank 3 addr 7"), "{s}");
        assert!(s.contains("slot 9"), "{s}");
    }

    #[test]
    fn kind_severities_are_fixed() {
        assert_eq!(
            DiagKind::DeadWrite {
                loc: Loc::Latch { lane: 0 },
                write_slot: 0
            }
            .severity(),
            Severity::Warning
        );
        assert_eq!(
            DiagKind::ReadBeforeInit {
                count: 1,
                sample: vec![]
            }
            .severity(),
            Severity::Info
        );
        assert_eq!(
            DiagKind::StreamUnderflow {
                consumed: 2,
                provided: 1
            }
            .severity(),
            Severity::Error
        );
    }
}
