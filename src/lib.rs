//! **MIB** — a from-scratch Rust reproduction of *"Multi-Issue Butterfly
//! Architecture for Sparse Convex Quadratic Programming"* (MICRO 2024).
//!
//! This façade crate re-exports the whole stack; see the individual crates
//! for the deep documentation:
//!
//! * [`sparse`] — sparse linear algebra (CSC/CSR, orderings, elimination
//!   trees, LDLᵀ),
//! * [`qp`] — the OSQP-style ADMM solver (direct and indirect variants),
//! * [`core`] — the cycle-accurate Multi-Issue Butterfly machine model,
//! * [`compiler`] — sparsity-pattern-driven network-instruction generation
//!   and first-fit multi-issue scheduling,
//! * [`verify`] — exact static timing prediction, which certifies
//!   compiled schedules hazard-free without executing them, and
//!   critical-path extraction,
//! * [`problems`] — the five-domain benchmark generators,
//! * [`platforms`] — reference CPU/GPU/RSQP performance models,
//! * [`serve`] — the multi-tenant serving runtime (pattern-sharded warm
//!   solver pools, micro-batching, deadlines, backpressure, metrics),
//! * [`net`] — the wire-protocol front-end (length-prefixed binary TCP
//!   frames, tenant auth, admission-controlled load shedding).
//!
//! Runnable entry points live in `examples/` (quickstart, portfolio
//! backtest, closed-loop MPC, Lasso path, on-machine acceleration) and in
//! the `mib-bench` crate's binaries, which regenerate every figure and
//! table of the paper (see DESIGN.md and EXPERIMENTS.md).

#![forbid(unsafe_code)]

pub use mib_compiler as compiler;
pub use mib_core as core;
pub use mib_net as net;
pub use mib_obs as obs;
pub use mib_platforms as platforms;
pub use mib_problems as problems;
pub use mib_qp as qp;
pub use mib_serve as serve;
pub use mib_sparse as sparse;
pub use mib_trace as trace;
pub use mib_verify as verify;
