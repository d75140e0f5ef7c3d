//! Error type of the distributed runtime.

use std::fmt;

/// Errors produced by the distributed engines.
#[derive(Debug)]
pub enum DistError {
    /// Graph, model, store and partitioning shapes do not fit together.
    Mismatch(String),
    /// An update is invalid for the current graph state: it names an
    /// unknown vertex, deletes a missing edge or rewrites features at the
    /// wrong width. The owning worker rejects it.
    InvalidUpdate(String),
    /// An underlying graph operation failed.
    Graph(ripple_graph::GraphError),
    /// An underlying model/embedding operation failed.
    Gnn(ripple_gnn::GnnError),
    /// An underlying single-machine engine operation failed.
    Engine(ripple_core::RippleError),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Mismatch(msg) => write!(f, "shape mismatch: {msg}"),
            DistError::InvalidUpdate(msg) => write!(f, "invalid update: {msg}"),
            DistError::Graph(e) => write!(f, "graph error: {e}"),
            DistError::Gnn(e) => write!(f, "gnn error: {e}"),
            DistError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Mismatch(_) | DistError::InvalidUpdate(_) => None,
            DistError::Graph(e) => Some(e),
            DistError::Gnn(e) => Some(e),
            DistError::Engine(e) => Some(e),
        }
    }
}

impl From<ripple_graph::GraphError> for DistError {
    fn from(e: ripple_graph::GraphError) -> Self {
        DistError::Graph(e)
    }
}

impl From<ripple_gnn::GnnError> for DistError {
    fn from(e: ripple_gnn::GnnError) -> Self {
        DistError::Gnn(e)
    }
}

/// Keeps the typed shape and update errors of a worker engine; everything
/// else is wrapped.
impl From<ripple_core::RippleError> for DistError {
    fn from(e: ripple_core::RippleError) -> Self {
        match e {
            ripple_core::RippleError::Mismatch(msg) => DistError::Mismatch(msg),
            ripple_core::RippleError::InvalidUpdate(msg) => DistError::InvalidUpdate(msg),
            e => DistError::Engine(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = DistError::Mismatch("store covers 3 vertices".to_string());
        assert!(e.to_string().contains("store covers 3 vertices"));
        let e = DistError::InvalidUpdate("unknown vertex".to_string());
        assert!(e.to_string().contains("unknown vertex"));
    }
}
