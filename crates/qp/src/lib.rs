//! An OSQP-style ADMM solver for convex quadratic programs.
//!
//! This crate reimplements, from scratch, the solver algorithm of the paper
//! (Stellato et al.'s OSQP, Algorithm 1) in both variants the Multi-Issue
//! Butterfly architecture accelerates:
//!
//! * **OSQP-direct** — the KKT linear system (2) is solved by a sparse
//!   LDLᵀ factorization with numeric-only refactorization on `ρ` updates
//!   ([`linsys::DirectKkt`]);
//! * **OSQP-indirect** — the KKT system is reduced to the positive-definite
//!   form `(P + σI + AᵀρA) x = b` and solved by Preconditioned Conjugate
//!   Gradient ([`linsys::IndirectKkt`], Algorithm 2 of the paper), with
//!   the reduced matrix assembled when it stays sparse.
//!
//! A restarted primal-dual first-order method ("PDQP", matrix-vector
//! products only) is the one other algorithm. [`Solver`] runs the one
//! [`Settings::algorithm`] names inside a single envelope — scaling,
//! parametric updates, warm starts, interruption and the result — that
//! both algorithms share.
//!
//! The solver includes modified Ruiz equilibration, per-constraint step
//! sizes (`ρ` vector with equality-constraint boosting), adaptive `ρ`,
//! primal/dual infeasibility certificates, warm starting, and an exact FLOP
//! profiler that attributes work to the paper's four primitive operations
//! (MAC, vector permutation, column elimination, element-wise) — the data
//! behind Figure 3.
//!
//! # Example
//!
//! ```
//! use mib_qp::{Problem, Settings, Solver};
//! use mib_sparse::CscMatrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // minimize 1/2 x'Px + q'x  s.t. 1 <= x0 + x1 <= 1, 0 <= x <= 0.7
//! let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0]).upper_triangle()?;
//! let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
//! let problem = Problem::new(p, vec![1.0, 1.0], a,
//!     vec![1.0, 0.0, 0.0], vec![1.0, 0.7, 0.7])?;
//! let result = Solver::new(problem, Settings::default())?.solve();
//! assert!(result.status.is_solved());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admm;
mod error;
pub mod kkt;
pub mod linsys;
mod pdqp;
mod problem;
pub mod profile;
pub mod scaling;
mod settings;
mod solver;
pub mod telemetry;
mod types;
mod workspace;

pub use error::QpError;
pub use problem::Problem;
pub use settings::{Algorithm, KktBackend, Settings};
pub use solver::Solver;
pub use telemetry::SolveTrace;
pub use types::{SolveResult, Status};
pub use workspace::SolveWorkspace;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, QpError>;

/// Value used to represent an absent bound (`+inf` / `-inf`).
///
/// Following OSQP, bounds with magnitude at or above this value are treated
/// as infinite by the scaling, projection and infeasibility logic.
pub const INFTY: f64 = 1e30;
