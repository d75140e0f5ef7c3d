//! Graph partitioning for the distributed runtime.
//!
//! The paper partitions the graph with METIS so that vertex counts are
//! balanced and edge cuts (and therefore network traffic) are minimised
//! (§5.1). METIS is not available here, so this module provides three
//! partitioners with the same interface:
//!
//! * [`HashPartitioner`] — assigns `v mod k`; balanced but cut-oblivious,
//!   useful as a worst-case baseline for communication measurements.
//! * [`LdgPartitioner`] — Linear Deterministic Greedy streaming partitioner;
//!   assigns each vertex to the part holding most of its already-placed
//!   neighbours, penalised by part fullness. Good cut quality at linear cost.
//! * [`BfsPartitioner`] — region-growing: grows parts from BFS seeds until a
//!   capacity is reached, producing contiguous, low-cut parts on graphs with
//!   community structure.
//!
//! All partitioners return a [`Partitioning`], and [`halo::HaloInfo`]
//! computes the replicated boundary ("halo") vertices that the distributed
//! runtime uses as message stubs, mirroring DistDGL.

mod bfs_part;
pub mod halo;
mod hash;
mod ldg;

pub use bfs_part::BfsPartitioner;
pub use halo::HaloInfo;
pub use hash::HashPartitioner;
pub use ldg::LdgPartitioner;

use crate::dynamic::DynamicGraph;
use crate::ids::{PartitionId, VertexId};
use crate::update::GraphUpdate;
use crate::{GraphError, Result};

/// A complete assignment of every vertex to exactly one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    assignment: Vec<PartitionId>,
    num_parts: usize,
}

impl Partitioning {
    /// Creates a partitioning from an explicit per-vertex assignment.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPartitioning`] if `num_parts` is zero or
    /// any assigned partition id is out of range.
    pub fn from_assignment(assignment: Vec<PartitionId>, num_parts: usize) -> Result<Self> {
        if num_parts == 0 {
            return Err(GraphError::InvalidPartitioning(
                "zero partitions".to_string(),
            ));
        }
        if let Some(bad) = assignment.iter().find(|p| p.index() >= num_parts) {
            return Err(GraphError::InvalidPartitioning(format!(
                "vertex assigned to partition {bad} but only {num_parts} partitions exist"
            )));
        }
        Ok(Partitioning {
            assignment,
            num_parts,
        })
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of vertices covered by the assignment.
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// The partition that owns vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the assignment.
    pub fn part_of(&self, v: VertexId) -> PartitionId {
        self.assignment[v.index()]
    }

    /// The partitions `update` must reach: a feature rewrite goes to the
    /// vertex's owner; an edge change to its source's owner, then to its
    /// destination's owner when that differs. A vertex outside the
    /// assignment (an invalid update) maps to `id % num_parts`, so it still
    /// reaches one engine, which rejects it with a typed error. One part
    /// owns everything, so it answers without a lookup.
    pub fn update_owners(&self, update: &GraphUpdate) -> (PartitionId, Option<PartitionId>) {
        if self.num_parts == 1 {
            return (PartitionId(0), None);
        }
        let owner = |v: VertexId| {
            self.assignment
                .get(v.index())
                .copied()
                .unwrap_or(PartitionId((v.index() % self.num_parts) as u32))
        };
        match update {
            GraphUpdate::UpdateFeature { vertex, .. } => (owner(*vertex), None),
            GraphUpdate::AddEdge { src, dst, .. } | GraphUpdate::DeleteEdge { src, dst } => {
                let (a, b) = (owner(*src), owner(*dst));
                (a, (b != a).then_some(b))
            }
        }
    }

    /// All vertices owned by partition `p`, in id order.
    pub fn vertices_in(&self, p: PartitionId) -> Vec<VertexId> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &part)| (part == p).then_some(VertexId(i as u32)))
            .collect()
    }

    /// Sizes of every partition, indexed by partition id.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for p in &self.assignment {
            sizes[p.index()] += 1;
        }
        sizes
    }

    /// Number of directed edges whose endpoints live in different partitions.
    pub fn edge_cut(&self, graph: &DynamicGraph) -> usize {
        graph
            .iter_edges()
            .filter(|(s, d, _)| self.part_of(*s) != self.part_of(*d))
            .count()
    }

    /// Fraction of edges that are cut, in `[0, 1]`.
    pub fn edge_cut_fraction(&self, graph: &DynamicGraph) -> f64 {
        if graph.num_edges() == 0 {
            return 0.0;
        }
        self.edge_cut(graph) as f64 / graph.num_edges() as f64
    }

    /// Balance factor: `max part size / ideal part size`. 1.0 is perfectly
    /// balanced; METIS-style partitioners typically guarantee ≤ 1.05.
    pub fn balance_factor(&self) -> f64 {
        let sizes = self.part_sizes();
        let max = sizes.iter().copied().max().unwrap_or(0) as f64;
        let ideal = self.num_vertices() as f64 / self.num_parts as f64;
        if ideal == 0.0 {
            return 1.0;
        }
        max / ideal
    }

    /// Raw assignment slice (index = vertex id).
    pub fn assignment(&self) -> &[PartitionId] {
        &self.assignment
    }
}

/// A vertex partitioner.
///
/// Implementations must assign every vertex of the graph to exactly one of
/// `num_parts` partitions.
pub trait Partitioner {
    /// Partitions `graph` into `num_parts` parts.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPartitioning`] if `num_parts` is zero or
    /// exceeds the number of vertices.
    fn partition(&self, graph: &DynamicGraph, num_parts: usize) -> Result<Partitioning>;

    /// Short human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

pub(crate) fn validate_num_parts(graph: &DynamicGraph, num_parts: usize) -> Result<()> {
    if num_parts == 0 {
        return Err(GraphError::InvalidPartitioning(
            "zero partitions".to_string(),
        ));
    }
    if num_parts > graph.num_vertices().max(1) {
        return Err(GraphError::InvalidPartitioning(format!(
            "{num_parts} partitions requested for {} vertices",
            graph.num_vertices()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new(n, 1);
        for i in 0..n - 1 {
            g.add_edge(VertexId(i as u32), VertexId(i as u32 + 1), 1.0)
                .unwrap();
        }
        g
    }

    #[test]
    fn from_assignment_validates() {
        assert!(Partitioning::from_assignment(vec![PartitionId(0)], 0).is_err());
        assert!(Partitioning::from_assignment(vec![PartitionId(3)], 2).is_err());
        let p = Partitioning::from_assignment(vec![PartitionId(0), PartitionId(1)], 2).unwrap();
        assert_eq!(p.num_parts(), 2);
        assert_eq!(p.num_vertices(), 2);
    }

    #[test]
    fn part_queries() {
        let p =
            Partitioning::from_assignment(vec![PartitionId(0), PartitionId(1), PartitionId(0)], 2)
                .unwrap();
        assert_eq!(p.part_of(VertexId(2)), PartitionId(0));
        assert_eq!(
            p.vertices_in(PartitionId(0)),
            vec![VertexId(0), VertexId(2)]
        );
        assert_eq!(p.part_sizes(), vec![2, 1]);
        assert!((p.balance_factor() - (2.0 / 1.5)).abs() < 1e-9);
    }

    #[test]
    fn update_owners_follow_the_routing_rule() {
        let p =
            Partitioning::from_assignment(vec![PartitionId(0), PartitionId(1), PartitionId(0)], 2)
                .unwrap();
        let (v0, v1, v2) = (VertexId(0), VertexId(1), VertexId(2));
        let owners = |u: GraphUpdate| p.update_owners(&u);
        assert_eq!(
            owners(GraphUpdate::update_feature(v1, vec![0.0])),
            (PartitionId(1), None)
        );
        // Same-owner edges reach one partition, cut edges source owner first.
        assert_eq!(
            owners(GraphUpdate::add_edge(v0, v2)),
            (PartitionId(0), None)
        );
        assert_eq!(
            owners(GraphUpdate::add_edge(v1, v2)),
            (PartitionId(1), Some(PartitionId(0)))
        );
        assert_eq!(
            owners(GraphUpdate::delete_edge(v2, v1)),
            (PartitionId(0), Some(PartitionId(1)))
        );
        // Ids beyond the assignment fall back to `id % num_parts`.
        let (v7, v8) = (VertexId(7), VertexId(8));
        assert_eq!(
            owners(GraphUpdate::update_feature(v7, vec![0.0])),
            (PartitionId(1), None)
        );
        assert_eq!(
            owners(GraphUpdate::add_edge(v8, v1)),
            (PartitionId(0), Some(PartitionId(1)))
        );
        assert_eq!(
            owners(GraphUpdate::delete_edge(v1, v7)),
            (PartitionId(1), None)
        );
    }

    #[test]
    fn edge_cut_counts_cross_partition_edges() {
        let g = line_graph(4);
        // Split in the middle: 0,1 | 2,3 — only edge 1->2 is cut.
        let p = Partitioning::from_assignment(
            vec![
                PartitionId(0),
                PartitionId(0),
                PartitionId(1),
                PartitionId(1),
            ],
            2,
        )
        .unwrap();
        assert_eq!(p.edge_cut(&g), 1);
        assert!((p.edge_cut_fraction(&g) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn edge_cut_fraction_of_empty_graph_is_zero() {
        let g = DynamicGraph::new(2, 1);
        let p = Partitioning::from_assignment(vec![PartitionId(0), PartitionId(1)], 2).unwrap();
        assert_eq!(p.edge_cut_fraction(&g), 0.0);
    }

    #[test]
    fn validate_num_parts_bounds() {
        let g = line_graph(3);
        assert!(validate_num_parts(&g, 0).is_err());
        assert!(validate_num_parts(&g, 4).is_err());
        assert!(validate_num_parts(&g, 3).is_ok());
    }
}
