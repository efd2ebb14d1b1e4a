//! Errors produced by the execution substrate.

use std::fmt;

/// Convenience alias for machine results.
pub type Result<T> = std::result::Result<T, MachineError>;

/// Errors produced by the interpreter, the trace generator or the cost model.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// An array referenced by the program has no storage.
    UnknownArray(String),
    /// An array extent could not be evaluated under the program parameters,
    /// or the array's size does not fit `i64` (or memory).
    UnboundSize(String),
    /// An expression referenced a variable with no binding.
    UnboundVariable(String),
    /// An access evaluated to an index outside the array.
    OutOfBounds {
        /// The accessed array.
        array: String,
        /// The offending index value (-1 for rank mismatches).
        index: i64,
    },
    /// A subscript of the array, or the element offset it makes, has no
    /// `i64` value: its exact value leaves `i64`, or it divides by zero.
    SubscriptOverflow {
        /// The accessed array.
        array: String,
    },
    /// A loop has a non-positive step or non-evaluable bounds.
    InvalidLoop(String),
    /// A shard-ranged stream was requested for a program whose shape the
    /// requested granularity cannot cut (see `shard::ShardPlan`).
    NotShardable(String),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::UnknownArray(name) => write!(f, "no storage for array `{name}`"),
            MachineError::UnboundSize(name) => {
                write!(
                    f,
                    "size of array `{name}` cannot be evaluated or does not fit"
                )
            }
            MachineError::UnboundVariable(name) => write!(f, "unbound variable in `{name}`"),
            MachineError::OutOfBounds { array, index } => {
                write!(f, "index {index} is out of bounds for array `{array}`")
            }
            MachineError::SubscriptOverflow { array } => {
                write!(f, "a subscript of array `{array}` has no `i64` value")
            }
            MachineError::InvalidLoop(iter) => write!(f, "loop over `{iter}` cannot be executed"),
            MachineError::NotShardable(what) => {
                write!(f, "trace cannot be sharded: {what}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(MachineError::UnknownArray("A".into())
            .to_string()
            .contains('A'));
        assert!(MachineError::OutOfBounds {
            array: "B".into(),
            index: 9
        }
        .to_string()
        .contains('9'));
    }
}
