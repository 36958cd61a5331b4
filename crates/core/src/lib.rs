//! Cycle-accurate model of the **Multi-Issue Butterfly (MIB)** spatial
//! architecture (Section III of the paper).
//!
//! The machine consists of:
//!
//! * `C` single-port **register-file banks** ([`regfile::RegisterFiles`]);
//!   lane *i* of the network reads from and writes to bank *i* only — data
//!   is moved between banks by the network itself,
//! * a **multiplier stage** of `C` nodes, each able to bypass its register
//!   operand, inject an HBM stream word, or multiply the register operand by
//!   a stream word / a per-lane broadcast latch / an immediate
//!   ([`instruction::LaneSource`]),
//! * `log₂C` **adder stages** of `C` multi-mode nodes; node *j* of stage *s*
//!   sees the previous stage's lane *j* ("direct") and lane *j XOR 2ˢ*
//!   ("cross") and selects `Direct`, `Cross`, their `Sum`, or `Idle` — the
//!   four 2-bit modes of Figure 5,
//! * a **writeback stage** that stores, accumulates (`Add`), reciprocates
//!   (`Recip`, used for LDLᵀ pivots) or latches the lane value,
//! * an **HBM stream** ([`hbm::HbmStream`]) delivering up to `C` contiguous
//!   words per cycle alongside the instruction stream.
//!
//! One [`instruction::NetInstruction`] is the full per-cycle configuration
//! of every node — *multi-issue* means the compiler merges several logical
//! operations into one configuration wherever their node-occupancy vectors
//! and register ports do not collide (Section IV). The
//! [`machine::Machine`] executes programs functionally while enforcing the
//! pipeline hazard rules, so a mis-scheduled program either stalls (with
//! stalls counted) or fails verification.
//!
//! Two fidelity notes relative to the paper, also recorded in DESIGN.md:
//! the paper leaves the column-elimination datapath partially unspecified;
//! we concretize it with a per-lane *broadcast latch* (loaded by the
//! Fig. 6b distribution instruction) and an accumulating writeback port.
//! Both are standard FPGA datapath elements and preserve the paper's port
//! counts (one read, one write per bank per cycle).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
pub mod hbm;
pub mod instruction;
pub mod machine;
pub mod pending;
pub mod regfile;
pub mod stats;

pub use config::MibConfig;
pub use error::MibError;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, MibError>;
