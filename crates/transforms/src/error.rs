//! Errors produced by loop transformations.

use std::fmt;

use loop_ir::expr::Var;

/// Convenience alias for transformation results.
pub type Result<T> = std::result::Result<T, TransformError>;

/// Errors produced when a transformation cannot be applied to a loop nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The requested loop iterator does not exist in the nest.
    UnknownLoop(Var),
    /// The requested permutation does not cover the perfectly nested loops.
    NotAPermutation {
        /// Iterators of the perfect chain of the nest.
        expected: Vec<Var>,
        /// Iterators the caller supplied.
        found: Vec<Var>,
    },
    /// The nest is not perfectly nested deep enough for the transformation.
    NotPerfectlyNested(Var),
    /// A tile size or unroll factor must be at least 2 to have an effect.
    InvalidFactor {
        /// The loop the factor applies to.
        iterator: Var,
        /// The offending factor.
        factor: i64,
    },
    /// The two loops have different iteration domains and cannot be fused.
    DomainMismatch,
    /// A statement group index is out of bounds for distribution, or listed
    /// twice.
    InvalidGroup(usize),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::UnknownLoop(v) => write!(f, "no loop with iterator `{v}` in the nest"),
            TransformError::NotAPermutation { expected, found } => write!(
                f,
                "requested order {found:?} is not a permutation of the nest iterators {expected:?}"
            ),
            TransformError::NotPerfectlyNested(v) => {
                write!(f, "loop `{v}` is not part of the perfectly nested chain")
            }
            TransformError::InvalidFactor { iterator, factor } => {
                write!(f, "invalid factor {factor} for loop `{iterator}`")
            }
            TransformError::DomainMismatch => {
                write!(f, "loops have different iteration domains")
            }
            TransformError::InvalidGroup(idx) => {
                write!(
                    f,
                    "statement group index {idx} is out of bounds or listed twice"
                )
            }
        }
    }
}

impl std::error::Error for TransformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_iterator() {
        let err = TransformError::UnknownLoop(Var::new("i"));
        assert!(err.to_string().contains('i'));
        let err = TransformError::InvalidFactor {
            iterator: Var::new("j"),
            factor: 1,
        };
        assert!(err.to_string().contains('1'));
    }

    #[test]
    fn errors_compare() {
        assert_eq!(
            TransformError::DomainMismatch,
            TransformError::DomainMismatch
        );
        assert_ne!(
            TransformError::InvalidGroup(1),
            TransformError::InvalidGroup(2)
        );
    }
}
