//! **mib-verify** — the static analyses of compiled MIB programs, under
//! their historical paths. Both now live in `mib-core`, beside the issue
//! engine they run:
//!
//! * [`predict`] ([`mib_core::timing`]) runs the machine's issue engine
//!   with values switched off: the run's full `ExecStats`, or the very
//!   `MibError` the machine would reject the program with.
//! * [`critical_path()`] ([`mib_core::critical_path`]) decomposes a
//!   program's cycle count into the chain of dependences that bounds it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mib_core::critical_path::{critical_path, CriticalHop, CriticalPath, Loc};
pub use mib_core::timing::{predict, StaticTiming};
pub use mib_core::{critical_path, timing};
