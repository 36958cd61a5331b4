//! Sparse linear-algebra substrate for the Multi-Issue Butterfly QP stack.
//!
//! This crate implements, from scratch, everything the OSQP-style solver and
//! the MIB compiler need from a sparse matrix library:
//!
//! * [`CscMatrix`] / [`CsrMatrix`] compressed storage with validated
//!   construction from [`TripletMatrix`] (COO) data,
//! * structural operations: transpose, horizontal/vertical/diagonal stacking,
//!   Kronecker products, sub-matrix extraction, symmetric permutation,
//! * matrix–vector products, including the symmetric-upper-triangular product
//!   used for the objective matrix `P`,
//! * fill-reducing orderings ([`order`]): Amestoy–Davis–Duff approximate
//!   minimum degree (AMD; within +0.02 % of exact-degree minimum degree's
//!   fill on the benchmark suite), reverse Cuthill–McKee, and the natural
//!   order,
//! * the elimination tree machinery ([`etree`]): Liu's algorithm, postorder,
//!   row/column non-zero counts,
//! * an up-looking sparse LDLᵀ factorization ([`ldl`]) in the style of QDLDL
//!   (the factorization OSQP ships), with separate symbolic and numeric
//!   phases and both row- and column-oriented triangular solves,
//! * allocation-free `_into` kernels for every hot-path product and solve.
//!
//! The scalar type is `f64` throughout: the paper's FPGA prototype uses
//! floating-point function units, and `f64` matches the reference OSQP
//! implementation the paper benchmarks against.
//!
//! # Example
//!
//! ```
//! use mib_sparse::{CscMatrix, TripletMatrix};
//!
//! # fn main() -> Result<(), mib_sparse::SparseError> {
//! let mut t = TripletMatrix::new(2, 2);
//! t.push(0, 0, 4.0)?;
//! t.push(1, 1, 2.0)?;
//! let m = CscMatrix::from_triplets(&t)?;
//! let y = m.mul_vec(&[1.0, 1.0]);
//! assert_eq!(y, vec![4.0, 2.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csc;
mod csr;
mod error;
pub mod etree;
pub mod ldl;
pub mod order;
mod perm;
pub mod simd;
mod stack;
mod triplet;
pub mod vector;

pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use perm::Permutation;
pub use stack::{block_diag, hstack, kron, vstack};
pub use triplet::TripletMatrix;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, SparseError>;
