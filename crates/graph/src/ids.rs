//! Strongly-typed identifiers for vertices and partitions.
//!
//! Using newtypes instead of bare integers keeps vertex indices, partition
//! indices and plain counters from being mixed up across the workspace
//! (particularly in the distributed runtime, where a local index and a global
//! vertex id are different things).

use std::fmt;

/// A global vertex identifier, dense in `0..n`.
///
/// Vertex ids double as row indices into feature and embedding matrices, so
/// they are kept dense; vertex deletion is out of scope (as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The id as a `usize`, for indexing into per-vertex tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(value: u32) -> Self {
        VertexId(value)
    }
}

impl From<VertexId> for u32 {
    fn from(value: VertexId) -> Self {
        value.0
    }
}

/// Identifier of a graph partition (worker) in the distributed runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// The id as a `usize`, for indexing into per-partition tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for PartitionId {
    fn from(value: u32) -> Self {
        PartitionId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_round_trips_through_u32() {
        let v = VertexId::from(42u32);
        assert_eq!(u32::from(v), 42);
        assert_eq!(v.index(), 42);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VertexId(3).to_string(), "v3");
        assert_eq!(PartitionId(1).to_string(), "p1");
    }

    #[test]
    fn ordering_follows_numeric_order() {
        assert!(VertexId(1) < VertexId(2));
        assert!(PartitionId(0) < PartitionId(5));
    }

    #[test]
    fn ids_are_hashable() {
        use std::collections::HashSet;
        let set: HashSet<VertexId> = [VertexId(1), VertexId(1), VertexId(2)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
    }
}
