//! The typed error of the bisection stack.
//!
//! Every fallible operation in this crate reports a [`BisectError`]
//! instead of panicking: pipeline construction ([`crate::pipeline`]),
//! side-vector mismatches, and invalid recursive part counts.
//! The bench harness wraps it (together with the generators'
//! `GenError`) and propagates everything up to the `repro` CLI, which
//! renders the message and exits nonzero — no `unwrap` between an
//! invalid input and the user.

use std::error::Error;
use std::fmt;

use bisect_graph::GraphError;

use crate::partition::SideLengthError;

/// Errors from constructing or running a bisection pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BisectError {
    /// A structural graph error surfaced mid-pipeline (edge out of
    /// range, parse failure, …).
    Graph(GraphError),
    /// A pipeline configuration was rejected (message explains which
    /// constraint failed, e.g. a coarsest size below 2).
    InvalidConfig(String),
    /// A side vector did not match the graph's vertex count.
    SideLength {
        /// Length of the supplied side vector.
        len: usize,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// A recursive partition was asked for a part count that is not a
    /// positive power of two.
    InvalidPartCount {
        /// The rejected count.
        parts: usize,
    },
}

impl fmt::Display for BisectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BisectError::Graph(e) => write!(f, "graph error: {e}"),
            BisectError::InvalidConfig(message) => {
                write!(f, "invalid pipeline configuration: {message}")
            }
            BisectError::SideLength { len, num_vertices } => write!(
                f,
                "side vector of length {len} does not match graph on {num_vertices} vertices"
            ),
            BisectError::InvalidPartCount { parts } => {
                write!(f, "part count must be a positive power of two, got {parts}")
            }
        }
    }
}

impl Error for BisectError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BisectError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for BisectError {
    fn from(e: GraphError) -> BisectError {
        BisectError::Graph(e)
    }
}

impl From<SideLengthError> for BisectError {
    fn from(e: SideLengthError) -> BisectError {
        BisectError::SideLength {
            len: e.got,
            num_vertices: e.expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(
            BisectError::InvalidConfig("coarsest size must be at least 2".into())
                .to_string()
                .contains("coarsest size")
        );
        assert!(BisectError::SideLength {
            len: 3,
            num_vertices: 4
        }
        .to_string()
        .contains("length 3"));
        assert!(BisectError::InvalidPartCount { parts: 6 }
            .to_string()
            .contains("power of two"));
    }

    #[test]
    fn graph_error_chains_as_source() {
        let e = BisectError::from(GraphError::ZeroWeight);
        assert!(e.to_string().contains("graph error"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BisectError>();
    }
}
