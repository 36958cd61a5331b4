use std::error::Error;
use std::fmt;

/// Errors raised by the MIB machine model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MibError {
    /// A data hazard was detected in strict verification mode: the
    /// instruction at `cycle` reads or accumulates into a location whose
    /// pending write completes only at `ready`. The reported location is
    /// the **binding** hazard — the pending write with the latest
    /// visibility cycle — and the static timing predictor
    /// (`mib_verify::predict`) returns the identical value.
    DataHazard {
        /// Issue cycle of the offending instruction.
        cycle: u64,
        /// Index of the instruction within the program.
        instruction: usize,
        /// Offending bank (the lane whose latch is pending, for latch
        /// hazards).
        bank: usize,
        /// Offending address within the bank (0 for latch hazards).
        addr: usize,
        /// Whether the pending location is the lane's broadcast latch
        /// rather than a register.
        latch: bool,
        /// Cycle at which the pending write becomes visible.
        ready: u64,
    },
    /// The HBM stream was exhausted while an instruction requested a word.
    StreamExhausted {
        /// Index of the instruction within the program.
        instruction: usize,
    },
    /// A register access was outside the configured bank depth.
    AddressOutOfRange {
        /// Offending bank.
        bank: usize,
        /// Offending address.
        addr: usize,
        /// Configured bank depth.
        depth: usize,
    },
    /// An instruction's width does not match the machine width.
    WidthMismatch {
        /// Width of the instruction.
        instruction: usize,
        /// Width of the machine.
        machine: usize,
    },
    /// Two instructions could not be merged because of a structural
    /// conflict (shared node, lane input or lane write).
    MergeConflict(String),
}

impl fmt::Display for MibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MibError::DataHazard {
                cycle,
                instruction,
                bank,
                addr,
                latch,
                ready,
            } => {
                if *latch {
                    write!(
                        f,
                        "data hazard at cycle {cycle} (instruction {instruction}): lane {bank} broadcast latch not ready until cycle {ready}"
                    )
                } else {
                    write!(
                        f,
                        "data hazard at cycle {cycle} (instruction {instruction}): bank {bank} addr {addr} not ready until cycle {ready}"
                    )
                }
            }
            MibError::StreamExhausted { instruction } => {
                write!(f, "hbm stream exhausted at instruction {instruction}")
            }
            MibError::AddressOutOfRange { bank, addr, depth } => write!(
                f,
                "register address {addr} out of range for bank {bank} (depth {depth})"
            ),
            MibError::WidthMismatch {
                instruction,
                machine,
            } => write!(
                f,
                "instruction width {instruction} does not match machine width {machine}"
            ),
            MibError::MergeConflict(msg) => write!(f, "merge conflict: {msg}"),
        }
    }
}

impl Error for MibError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_location() {
        let e = MibError::DataHazard {
            cycle: 9,
            instruction: 3,
            bank: 2,
            addr: 7,
            latch: false,
            ready: 12,
        };
        let s = e.to_string();
        assert!(s.contains("cycle 9") && s.contains("bank 2") && s.contains("12"));
        let l = MibError::DataHazard {
            cycle: 9,
            instruction: 3,
            bank: 2,
            addr: 0,
            latch: true,
            ready: 12,
        };
        assert!(l.to_string().contains("lane 2 broadcast latch"));
    }
}
