//! mib-serve: a multi-tenant QP serving runtime on top of `mib-qp`.
//!
//! The solver stack below this crate answers one question: *how fast can
//! one problem be solved?* This crate answers the production question:
//! *how are thousands of parametric solves served concurrently without
//! losing the determinism story?* It is built from four pieces:
//!
//! - **Pattern sharding** ([`PatternKey`]): requests route by the
//!   structural identity of their QP (sparsity patterns + dimensions +
//!   KKT backend + solver algorithm). A tenant is served by the solver
//!   it registered with (`Settings::algorithm`), so ADMM and PDQP
//!   tenants of one problem keep shards of their own. Each shard owns
//!   worker threads with warm per-tenant
//!   [`Solver`](mib_qp::Solver) clones, so steady-state serving pays no
//!   setup and no allocation. Cold shards are LRU-evicted.
//! - **Opportunistic batching**: a worker claims whatever same-pattern
//!   requests are queued when it becomes free (up to 16) and
//!   solves them back-to-back; it never holds a request to wait for
//!   company, so an idle shard answers at once and batches form only
//!   under load.
//! - **Admission control**: bounded queues reject with an explicit
//!   [`SubmitError::QueueFull`] (carrying observed depth and capacity)
//!   at the submission boundary; per-request deadlines and cancellation
//!   are observed by the ADMM loop at iteration-check boundaries;
//!   shutdown drains before it joins. In front of the queues, an
//!   [`AdmissionController`] adds per-tenant token-bucket rate limiting
//!   and weighted fair-share admission under congestion — the policy
//!   layer the `mib-net` wire front-end answers shed frames from.
//! - **Metrics** ([`Metrics`]): lock-free counters and log-linear
//!   [`Histogram`]s wired through submit → queue → solve → complete, with
//!   a text snapshot export.
//!
//! # Determinism contract
//!
//! Serving never changes answers. A request is served by re-parameterizing
//! a warm clone of the tenant's template solver and solving from a reset
//! state, which `mib-qp` guarantees is bitwise-identical to a fresh clone
//! of the template given the same updates. The root `serve_soak` test
//! verifies this bitwise on every `Solved` answer, and the `load_bench`
//! harness on a sample of answers, in process and over the wire.
//!
//! # Example
//!
//! ```
//! use mib_serve::{QpServer, Request, ServeConfig};
//! use mib_qp::{Problem, Settings};
//! use mib_sparse::CscMatrix;
//!
//! let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
//!     .upper_triangle()
//!     .unwrap();
//! let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
//! let problem = Problem::new(
//!     p,
//!     vec![1.0, 1.0],
//!     a,
//!     vec![1.0, 0.0, 0.0],
//!     vec![1.0, 0.7, 0.7],
//! )
//! .unwrap();
//!
//! let server = QpServer::new(ServeConfig::default());
//! let tenant = server.register(problem, Settings::default()).unwrap();
//! let ticket = server
//!     .submit(tenant, Request::with_q(vec![0.5, 1.5]))
//!     .unwrap();
//! let response = ticket.wait();
//! assert!(response.outcome.is_solved());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod metrics;
mod obs;
mod pattern;
mod request;
mod server;
mod shard;

pub use admission::{
    queue_full_retry_after, AdmissionConfig, AdmissionController, TenantPolicy, TenantSlot, Verdict,
};
pub use metrics::{Counters, Histogram, Metrics, TenantCounters};
pub use obs::{ObsConfig, ObsPlane};
pub use pattern::PatternKey;
pub use request::{CancelHandle, Outcome, RegisterError, Request, Response, SubmitError, Ticket};
pub use server::{QpServer, ServeConfig, TenantId};
