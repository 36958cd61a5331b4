//! Structural identity of a QP: the shard routing key.
//!
//! Two problems land on the same shard exactly when their `P`/`A`
//! sparsity patterns, dimensions, KKT backend and solver algorithm
//! agree. Values (`P`/`A` entries, `q`, `l`, `u`) deliberately do
//! **not** participate: they are per-tenant/per-request data, and the
//! shard exists to share the structure-keyed machinery (worker threads,
//! micro-batch queues, warm solver pools) across everything with the
//! same shape.

use std::fmt;
use std::hash::{Hash, Hasher};

use mib_qp::{Algorithm, KktBackend, Problem};
use mib_sparse::CscMatrix;

/// Structural hash key of a QP family: dimensions, `P`/`A` sparsity
/// patterns, the KKT backend and the solver algorithm.
///
/// The key stores the full structural stream (not just a digest), so two
/// distinct patterns can never collide; the 64-bit [`digest`] is a cheap
/// fingerprint for display and map hashing only.
///
/// [`digest`]: PatternKey::digest
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternKey {
    stream: Vec<u64>,
    digest: u64,
}

impl PatternKey {
    /// The structural key of `problem` solved with `backend` by
    /// `algorithm`.
    pub fn of(problem: &Problem, backend: KktBackend, algorithm: Algorithm) -> Self {
        let mut stream = Vec::new();
        stream.push(problem.num_vars() as u64);
        stream.push(problem.num_constraints() as u64);
        push_structure(&mut stream, problem.p());
        push_structure(&mut stream, problem.a());
        stream.push(backend as u64);
        stream.push(algorithm.index() as u64);
        let digest = fnv1a(&stream);
        PatternKey { stream, digest }
    }

    /// A 64-bit fingerprint of the pattern (FNV-1a over the structural
    /// stream). Collision-tolerant uses only: display, hashing.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl Hash for PatternKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal streams imply equal digests, so hashing the digest alone
        // is consistent with `Eq` and avoids rehashing the whole stream.
        state.write_u64(self.digest);
    }
}

impl fmt::Display for PatternKey {
    /// Renders the digest as a fixed-width hex tag.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.digest)
    }
}

/// Appends the structure (shape, column pointers, row indices — no
/// values) of `m` to the key stream, each section length-prefixed so
/// adjacent sections cannot alias.
fn push_structure(stream: &mut Vec<u64>, m: &CscMatrix) {
    stream.push(m.col_ptr().len() as u64);
    stream.extend(m.col_ptr().iter().map(|&p| p as u64));
    stream.push(m.row_ind().len() as u64);
    stream.extend(m.row_ind().iter().map(|&i| i as u64));
}

/// FNV-1a over the words of the structural stream.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            h ^= (w >> shift) & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(vals: &[f64; 4], cap: f64) -> Problem {
        let p = CscMatrix::from_dense(2, 2, &[vals[0], vals[1], 0.0, vals[2]])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, vals[3], 0.0, 0.0, 1.0]);
        Problem::new(
            p,
            vec![1.0, 1.0],
            a,
            vec![1.0, 0.0, 0.0],
            vec![1.0, cap, cap],
        )
        .unwrap()
    }

    #[test]
    fn same_structure_same_key_despite_values() {
        let a = PatternKey::of(
            &problem(&[4.0, 1.0, 2.0, 1.0], 0.7),
            KktBackend::Direct,
            Algorithm::Admm,
        );
        let b = PatternKey::of(
            &problem(&[9.0, 3.0, 5.0, 2.0], 0.2),
            KktBackend::Direct,
            Algorithm::Admm,
        );
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn structure_backend_or_algorithm_change_changes_key() {
        let base = PatternKey::of(
            &problem(&[4.0, 1.0, 2.0, 1.0], 0.7),
            KktBackend::Direct,
            Algorithm::Admm,
        );
        // Extra structural nonzero in A.
        let p = CscMatrix::from_dense(2, 2, &[4.0, 1.0, 0.0, 2.0])
            .upper_triangle()
            .unwrap();
        let a = CscMatrix::from_dense(3, 2, &[1.0, 1.0, 1.0, 0.5, 0.0, 1.0]);
        let other = Problem::new(
            p,
            vec![1.0, 1.0],
            a,
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.7, 0.7],
        )
        .unwrap();
        assert_ne!(
            base,
            PatternKey::of(&other, KktBackend::Direct, Algorithm::Admm)
        );
        assert_ne!(
            base,
            PatternKey::of(
                &problem(&[4.0, 1.0, 2.0, 1.0], 0.7),
                KktBackend::Indirect,
                Algorithm::Admm
            )
        );
        assert_ne!(
            base,
            PatternKey::of(
                &problem(&[4.0, 1.0, 2.0, 1.0], 0.7),
                KktBackend::Direct,
                Algorithm::Pdqp
            )
        );
    }

    #[test]
    fn display_is_stable_hex() {
        let k = PatternKey::of(
            &problem(&[4.0, 1.0, 2.0, 1.0], 0.7),
            KktBackend::Direct,
            Algorithm::Admm,
        );
        let s = k.to_string();
        assert_eq!(s.len(), 16);
        assert_eq!(s, format!("{:016x}", k.digest()));
    }
}
