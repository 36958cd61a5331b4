//! The MIB compiler stack (Sections III.D and IV of the paper).
//!
//! The compiler accepts the solver algorithm (as kernels over matrices and
//! vectors) together with the **sparsity patterns** of the problem matrices,
//! and emits network-instruction programs for the Multi-Issue Butterfly
//! machine:
//!
//! 1. **Kernel builders** generate one logical network instruction stream
//!    per primitive operation —
//!    [`spmv`] (MAC row products and column-elimination `Aᵀ` products),
//!    [`permute`] (butterfly-routable permutation partitions),
//!    [`trisolve`] (`L`/`D`/`Lᵀ` solves), [`factor`] (elimination-tree-
//!    ordered numeric LDLᵀ) and [`elementwise`] (`axpby`, products,
//!    projections, `norm_inf`).
//! 2. Each logical instruction records its **data dependencies**
//!    automatically (read-after-write with full pipeline latency,
//!    write-after-read/write ordering) via the [`kernel::KernelBuilder`].
//! 3. The [`schedule`](mod@schedule) module packs logical instructions
//!    into issue slots with the **first-fit** algorithm of Section IV.B:
//!    an instruction goes into the earliest dependency-feasible slot whose
//!    hardware-occupancy footprint does not collide — multiple short
//!    instructions issue together, and prefetch copies fill otherwise-empty
//!    slots.
//! 4. [`lower`] assembles whole OSQP iterations (direct and indirect) into
//!    scheduled programs and a per-solve cycle model.
//! 5. [`cache::ProgramCache`] memoizes compiled programs by sparsity
//!    pattern: parametric re-solves (new `q`, `l`, `u` over a fixed
//!    structure) share every cached program and only write the new
//!    vectors into a copy of the load program's stream.
//!
//! Scheduled programs are *verified*: executing them on the
//! [`mib_core::machine::Machine`] in strict hazard mode must reproduce the
//! reference `mib-sparse` results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cost;
pub mod elementwise;
pub mod factor;
pub mod kernel;
pub mod layout;
pub mod lower;
pub mod permute;
pub mod schedule;
pub mod spmv;
pub mod trisolve;
pub mod verify;

pub use cache::ProgramCache;
pub use cost::{lower_bound, static_cost, StaticCost};
pub use kernel::{Kernel, KernelBuilder};
pub use layout::{Allocator, Layout};
pub use schedule::{schedule, Schedule, ScheduleOptions};
pub use verify::checked_schedule;
