//! Streaming graph updates and update batches.
//!
//! The paper supports three update kinds (§4.1): edge additions, edge
//! deletions and vertex feature changes. Updates arrive continuously and are
//! grouped into fixed-size [`UpdateBatch`]es before being applied; the batch
//! size is the main throughput/latency knob in the evaluation.

use crate::ids::VertexId;
use std::fmt;

/// The kind of a streaming update, without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateKind {
    /// A directed edge was added.
    AddEdge,
    /// A directed edge was removed.
    DeleteEdge,
    /// A vertex's feature vector was replaced.
    UpdateFeature,
}

impl fmt::Display for UpdateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateKind::AddEdge => f.write_str("add-edge"),
            UpdateKind::DeleteEdge => f.write_str("delete-edge"),
            UpdateKind::UpdateFeature => f.write_str("update-feature"),
        }
    }
}

/// One streaming update to the graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphUpdate {
    /// Add a directed edge `src -> dst` with the given weight.
    AddEdge {
        /// Source (hop-0) vertex.
        src: VertexId,
        /// Destination (sink) vertex.
        dst: VertexId,
        /// Edge weight used by the `weighted sum` aggregator; 1.0 for
        /// unweighted graphs.
        weight: f32,
    },
    /// Remove the directed edge `src -> dst`.
    DeleteEdge {
        /// Source (hop-0) vertex.
        src: VertexId,
        /// Destination (sink) vertex.
        dst: VertexId,
    },
    /// Replace the feature vector of `vertex` with `features`.
    UpdateFeature {
        /// The vertex whose features change.
        vertex: VertexId,
        /// The new feature vector; must match the graph's feature width.
        features: Vec<f32>,
    },
}

impl GraphUpdate {
    /// Convenience constructor for an unweighted edge addition.
    pub fn add_edge(src: VertexId, dst: VertexId) -> Self {
        GraphUpdate::AddEdge {
            src,
            dst,
            weight: 1.0,
        }
    }

    /// Convenience constructor for a weighted edge addition.
    pub fn add_weighted_edge(src: VertexId, dst: VertexId, weight: f32) -> Self {
        GraphUpdate::AddEdge { src, dst, weight }
    }

    /// Convenience constructor for an edge deletion.
    pub fn delete_edge(src: VertexId, dst: VertexId) -> Self {
        GraphUpdate::DeleteEdge { src, dst }
    }

    /// Convenience constructor for a feature update.
    pub fn update_feature(vertex: VertexId, features: Vec<f32>) -> Self {
        GraphUpdate::UpdateFeature { vertex, features }
    }

    /// The kind of this update.
    pub fn kind(&self) -> UpdateKind {
        match self {
            GraphUpdate::AddEdge { .. } => UpdateKind::AddEdge,
            GraphUpdate::DeleteEdge { .. } => UpdateKind::DeleteEdge,
            GraphUpdate::UpdateFeature { .. } => UpdateKind::UpdateFeature,
        }
    }

    /// The hop-0 vertex of the update: the *source* vertex for edge updates
    /// and the updated vertex itself for feature updates. The distributed
    /// router assigns an update to the worker owning this vertex (§5.2).
    pub fn hop0_vertex(&self) -> VertexId {
        match self {
            GraphUpdate::AddEdge { src, .. } | GraphUpdate::DeleteEdge { src, .. } => *src,
            GraphUpdate::UpdateFeature { vertex, .. } => *vertex,
        }
    }

    /// The sink vertex of an edge update, or `None` for feature updates. The
    /// sink's owner receives a *no-compute* request in the distributed setup
    /// so it can mirror the topology change.
    pub fn sink_vertex(&self) -> Option<VertexId> {
        match self {
            GraphUpdate::AddEdge { dst, .. } | GraphUpdate::DeleteEdge { dst, .. } => Some(*dst),
            GraphUpdate::UpdateFeature { .. } => None,
        }
    }

    /// Approximate wire size of the update in bytes, used by the simulated
    /// network's byte accounting.
    pub fn wire_bytes(&self) -> usize {
        match self {
            GraphUpdate::AddEdge { .. } => 2 * 4 + 4,
            GraphUpdate::DeleteEdge { .. } => 2 * 4,
            GraphUpdate::UpdateFeature { features, .. } => 4 + 4 * features.len(),
        }
    }
}

impl fmt::Display for GraphUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphUpdate::AddEdge { src, dst, weight } => {
                write!(f, "add-edge {src} -> {dst} (w={weight})")
            }
            GraphUpdate::DeleteEdge { src, dst } => write!(f, "delete-edge {src} -> {dst}"),
            GraphUpdate::UpdateFeature { vertex, features } => {
                write!(f, "update-feature {vertex} ({} dims)", features.len())
            }
        }
    }
}

/// A batch of streaming updates applied and propagated together.
///
/// Batching amortises per-batch overheads and is the throughput/latency
/// trade-off studied throughout the paper's evaluation (batch sizes 1, 10,
/// 100 and 1000).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    updates: Vec<GraphUpdate>,
}

impl UpdateBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        UpdateBatch {
            updates: Vec::new(),
        }
    }

    /// Creates a batch from a vector of updates.
    pub fn from_updates(updates: Vec<GraphUpdate>) -> Self {
        UpdateBatch { updates }
    }

    /// Appends an update to the batch.
    pub fn push(&mut self, update: GraphUpdate) {
        self.updates.push(update);
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Returns `true` if the batch contains no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Iterator over the updates in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &GraphUpdate> + '_ {
        self.updates.iter()
    }

    /// Borrow of the underlying updates.
    pub fn updates(&self) -> &[GraphUpdate] {
        &self.updates
    }

    /// Consumes the batch and returns its updates.
    pub fn into_updates(self) -> Vec<GraphUpdate> {
        self.updates
    }

    /// Counts of each update kind present in the batch.
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let mut adds = 0;
        let mut dels = 0;
        let mut feats = 0;
        for u in &self.updates {
            match u.kind() {
                UpdateKind::AddEdge => adds += 1,
                UpdateKind::DeleteEdge => dels += 1,
                UpdateKind::UpdateFeature => feats += 1,
            }
        }
        (adds, dels, feats)
    }

    /// Total approximate wire size of the batch in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.updates.iter().map(GraphUpdate::wire_bytes).sum()
    }
}

impl FromIterator<GraphUpdate> for UpdateBatch {
    fn from_iter<T: IntoIterator<Item = GraphUpdate>>(iter: T) -> Self {
        UpdateBatch {
            updates: iter.into_iter().collect(),
        }
    }
}

impl Extend<GraphUpdate> for UpdateBatch {
    fn extend<T: IntoIterator<Item = GraphUpdate>>(&mut self, iter: T) {
        self.updates.extend(iter);
    }
}

impl IntoIterator for UpdateBatch {
    type Item = GraphUpdate;
    type IntoIter = std::vec::IntoIter<GraphUpdate>;

    fn into_iter(self) -> Self::IntoIter {
        self.updates.into_iter()
    }
}

impl<'a> IntoIterator for &'a UpdateBatch {
    type Item = &'a GraphUpdate;
    type IntoIter = std::slice::Iter<'a, GraphUpdate>;

    fn into_iter(self) -> Self::IntoIter {
        self.updates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_kinds() {
        let a = GraphUpdate::add_edge(VertexId(0), VertexId(1));
        assert_eq!(a.kind(), UpdateKind::AddEdge);
        let d = GraphUpdate::delete_edge(VertexId(0), VertexId(1));
        assert_eq!(d.kind(), UpdateKind::DeleteEdge);
        let f = GraphUpdate::update_feature(VertexId(3), vec![1.0, 2.0]);
        assert_eq!(f.kind(), UpdateKind::UpdateFeature);
    }

    #[test]
    fn weighted_edge_keeps_weight() {
        if let GraphUpdate::AddEdge { weight, .. } =
            GraphUpdate::add_weighted_edge(VertexId(0), VertexId(1), 0.5)
        {
            assert_eq!(weight, 0.5);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn hop0_and_sink_vertices() {
        let a = GraphUpdate::add_edge(VertexId(2), VertexId(7));
        assert_eq!(a.hop0_vertex(), VertexId(2));
        assert_eq!(a.sink_vertex(), Some(VertexId(7)));
        let f = GraphUpdate::update_feature(VertexId(5), vec![0.0]);
        assert_eq!(f.hop0_vertex(), VertexId(5));
        assert_eq!(f.sink_vertex(), None);
    }

    #[test]
    fn wire_bytes_scale_with_feature_width() {
        let small = GraphUpdate::update_feature(VertexId(0), vec![0.0; 4]);
        let large = GraphUpdate::update_feature(VertexId(0), vec![0.0; 128]);
        assert!(large.wire_bytes() > small.wire_bytes());
        assert!(GraphUpdate::add_edge(VertexId(0), VertexId(1)).wire_bytes() > 0);
        assert!(GraphUpdate::delete_edge(VertexId(0), VertexId(1)).wire_bytes() > 0);
    }

    #[test]
    fn batch_counts_kinds() {
        let batch: UpdateBatch = vec![
            GraphUpdate::add_edge(VertexId(0), VertexId(1)),
            GraphUpdate::add_edge(VertexId(1), VertexId(2)),
            GraphUpdate::delete_edge(VertexId(0), VertexId(1)),
            GraphUpdate::update_feature(VertexId(2), vec![1.0]),
        ]
        .into_iter()
        .collect();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.kind_counts(), (2, 1, 1));
        assert!(!batch.is_empty());
    }

    #[test]
    fn batch_push_and_extend() {
        let mut b = UpdateBatch::new();
        assert!(b.is_empty());
        b.push(GraphUpdate::add_edge(VertexId(0), VertexId(1)));
        b.extend(vec![GraphUpdate::delete_edge(VertexId(1), VertexId(0))]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.iter().count(), 2);
        assert_eq!(b.clone().into_updates().len(), 2);
        assert_eq!((&b).into_iter().count(), 2);
        assert_eq!(b.into_iter().count(), 2);
    }

    #[test]
    fn display_strings() {
        assert!(GraphUpdate::add_edge(VertexId(0), VertexId(1))
            .to_string()
            .contains("add-edge"));
        assert!(GraphUpdate::delete_edge(VertexId(0), VertexId(1))
            .to_string()
            .contains("delete-edge"));
        assert!(GraphUpdate::update_feature(VertexId(0), vec![1.0])
            .to_string()
            .contains("update-feature"));
        assert_eq!(UpdateKind::AddEdge.to_string(), "add-edge");
        assert_eq!(UpdateKind::DeleteEdge.to_string(), "delete-edge");
        assert_eq!(UpdateKind::UpdateFeature.to_string(), "update-feature");
    }
}
