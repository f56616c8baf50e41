//! Error type for graph construction and I/O.

use std::fmt;
use std::io;

/// Errors raised while building, loading, or querying graphs.
#[derive(Debug)]
#[allow(missing_docs)] // field names are self-describing
pub enum GraphError {
    /// An edge weight was NaN, infinite, negative, or not below 2^21.
    InvalidWeight { u: u32, v: u32, weight: f64 },
    /// `(num_nodes − 1) · max_weight` reached 2^31 real units, so a path
    /// sum could overflow the exact distance type.
    WeightSpan { num_nodes: u32, max_weight: f64 },
    /// A node id referenced by an edge or query is out of bounds.
    NodeOutOfBounds { node: u32, num_nodes: u32 },
    /// The graph would exceed the `u32` node-count limit.
    TooManyNodes(usize),
    /// A self-loop was rejected (they never affect shortest-path ranks and
    /// the builder refuses them to keep degree statistics honest).
    SelfLoop { node: u32 },
    /// A staged update would add an edge that already exists (use a
    /// reweight instead).
    EdgeExists { u: u32, v: u32 },
    /// A staged update referenced an edge the graph does not have.
    UnknownEdge { u: u32, v: u32 },
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line of an edge-list file could not be parsed.
    Parse { line: usize, message: String },
    /// A query parameter was invalid (e.g. `k == 0`).
    InvalidQuery(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidWeight { u, v, weight } => {
                write!(f, "edge ({u},{v}) has invalid weight {weight}; weights must be finite, non-negative and below 2^21")
            }
            GraphError::WeightSpan {
                num_nodes,
                max_weight,
            } => {
                write!(f, "{num_nodes} nodes with a heaviest edge of {max_weight}: (nodes - 1) x heaviest edge must stay below 2^31")
            }
            GraphError::NodeOutOfBounds { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of bounds for graph with {num_nodes} nodes"
                )
            }
            GraphError::TooManyNodes(n) => {
                write!(f, "{n} nodes exceeds the u32 node limit")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop on node {node} rejected"),
            GraphError::EdgeExists { u, v } => {
                write!(
                    f,
                    "edge ({u},{v}) already exists; use reweight to change it"
                )
            }
            GraphError::UnknownEdge { u, v } => write!(f, "no edge ({u},{v}) in the graph"),
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::InvalidWeight {
            u: 1,
            v: 2,
            weight: -0.5,
        };
        assert!(e.to_string().contains("(1,2)"));
        assert!(e.to_string().contains("-0.5"));

        let e = GraphError::NodeOutOfBounds {
            node: 9,
            num_nodes: 3,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let e: GraphError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        assert!(e.source().is_some());
    }

    #[test]
    fn non_io_errors_have_no_source() {
        use std::error::Error;
        assert!(GraphError::SelfLoop { node: 1 }.source().is_none());
    }
}
