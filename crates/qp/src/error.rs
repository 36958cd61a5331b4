use std::error::Error;
use std::fmt;

use mib_sparse::SparseError;

/// Errors produced when setting up or running the QP solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QpError {
    /// The problem data is inconsistent (dimension mismatches, lower bound
    /// above upper bound, `P` not upper triangular, non-finite data...).
    InvalidProblem(String),
    /// A setting has an out-of-range value.
    InvalidSetting(String),
    /// The underlying sparse linear algebra failed.
    Sparse(SparseError),
    /// The KKT matrix could not be factored (should not occur for valid
    /// convex data since the KKT matrix is quasi-definite).
    KktFactorization(String),
}

impl fmt::Display for QpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QpError::InvalidProblem(msg) => write!(f, "invalid problem: {msg}"),
            QpError::InvalidSetting(msg) => write!(f, "invalid setting: {msg}"),
            QpError::Sparse(e) => write!(f, "sparse algebra error: {e}"),
            QpError::KktFactorization(msg) => {
                write!(f, "kkt factorization failed: {msg}")
            }
        }
    }
}

impl Error for QpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QpError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for QpError {
    fn from(e: SparseError) -> Self {
        QpError::Sparse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = QpError::InvalidProblem("l > u at row 3".into());
        assert!(e.to_string().contains("row 3"));
        let e = QpError::from(SparseError::ZeroPivot(2));
        assert!(e.source().is_some());
    }
}
