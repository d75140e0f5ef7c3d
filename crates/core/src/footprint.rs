//! Read/write footprints of coalesced update windows (paper §5's
//! conflict-tracking admission).
//!
//! A [`Footprint`] is the set of store rows a window's engine pass may touch:
//! the hop-0 vertices of the batch (feature-rewritten vertices, edge
//! endpoints) plus the k-hop affected cone computed by
//! [`ripple_gnn::recompute::affected_hops`] on the pre-apply topology. Two
//! windows whose footprints are disjoint commute — the update operator
//! mutates disjoint adjacency rows, every mailbox deposit lands in exactly
//! one window's cone, and re-evaluation reads only a vertex's own aggregate
//! row, own previous-layer embedding and own in-degree — so they can be
//! admitted into one merged engine pass and still commit bit-identically to
//! sequential execution (see [`crate::RippleEngine::process_windows`]).
//!
//! Intersection tests are two-tier, after the exemplar's footprint machinery:
//! a 64-bit occupancy mask (`bit = v mod 64`) answers most disjoint pairs in
//! one `AND`, and only mask collisions fall through to the exact merge-walk
//! over the sorted vertex sets.
//!
//! The cone is computed **before** the window applies, which is sound under
//! staged admission: a cone can only reach through an edge added by an
//! earlier still-staged window via that edge's source vertex, which sits in
//! the adding window's write set — so the pair is flagged as a conflict and
//! never merged. Deleted edges merely over-approximate the cone.

use ripple_gnn::recompute::affected_hops;
use ripple_gnn::GnnModel;
use ripple_graph::{GraphView, UpdateBatch, VertexId};

/// The rows a coalesced window may read or write, as sorted vertex sets
/// behind a 64-bit occupancy-mask prefilter.
///
/// For the Ripple engine family every consulted row is also a written row
/// (aggregates are delta-maintained, so re-evaluation never scans unchanged
/// neighbours); `reads` holds rows that are consulted but never mutated and
/// is empty for windows built by [`Footprint::for_batch`]. Both sets
/// participate in [`Footprint::intersects`], so an engine with genuine
/// read-only rows can extend the footprint without changing the admission
/// logic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Occupancy mask over both sets: bit `v mod 64` of every member vertex.
    mask: u64,
    /// Rows the window's engine pass may mutate, sorted ascending.
    writes: Vec<VertexId>,
    /// Rows consulted but never mutated, sorted ascending.
    reads: Vec<VertexId>,
}

impl Footprint {
    /// An empty footprint (a fully-cancelled window touches nothing and is
    /// disjoint with every other window).
    pub fn empty() -> Self {
        Footprint::default()
    }

    /// Builds the footprint of one coalesced window against the pre-apply
    /// topology: hop-0 touched vertices (feature targets, edge endpoints)
    /// unioned with every hop of the model's affected cone.
    pub fn for_batch<G: GraphView + ?Sized>(
        graph: &G,
        model: &GnnModel,
        batch: &UpdateBatch,
    ) -> Self {
        if batch.is_empty() {
            return Footprint::empty();
        }
        let mut writes: Vec<VertexId> = Vec::new();
        for update in batch.iter() {
            writes.push(update.hop0_vertex());
            if let Some(sink) = update.sink_vertex() {
                writes.push(sink);
            }
        }
        for hop in affected_hops(graph, model, batch) {
            writes.extend(hop);
        }
        Footprint::from_writes(writes)
    }

    /// Builds a footprint from an unsorted write set (dedup + sort + mask).
    pub fn from_writes(mut writes: Vec<VertexId>) -> Self {
        writes.sort_unstable();
        writes.dedup();
        let mask = occupancy(&writes);
        Footprint {
            mask,
            writes,
            reads: Vec::new(),
        }
    }

    /// The sorted write set.
    pub fn writes(&self) -> &[VertexId] {
        &self.writes
    }

    /// The sorted read-only set.
    pub fn reads(&self) -> &[VertexId] {
        &self.reads
    }

    /// `true` when the footprint touches no rows.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty() && self.reads.is_empty()
    }

    /// Conflict test: `true` when the two windows may touch a common row —
    /// write/write, write/read or read/write (read/read overlap is
    /// harmless). The occupancy mask answers most disjoint pairs in one
    /// `AND`; only mask collisions pay for the exact sorted merge-walk.
    pub fn intersects(&self, other: &Footprint) -> bool {
        if self.mask & other.mask == 0 {
            return false;
        }
        sorted_intersect(&self.writes, &other.writes)
            || sorted_intersect(&self.writes, &other.reads)
            || sorted_intersect(&self.reads, &other.writes)
    }

    /// `true` when the windows commute (no conflicting row).
    pub fn disjoint(&self, other: &Footprint) -> bool {
        !self.intersects(other)
    }

    /// Intersects a sorted candidate row list with the write set, appending
    /// the common rows to `out` — how a merged pass's union dirty set is
    /// partitioned back into per-window dirty sets at commit time.
    pub fn intersect_sorted_into(&self, rows: &[VertexId], out: &mut Vec<VertexId>) {
        let (mut i, mut j) = (0, 0);
        while i < rows.len() && j < self.writes.len() {
            match rows[i].cmp(&self.writes[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(rows[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// One occupancy bit per vertex: `v mod 64`.
fn occupancy(vertices: &[VertexId]) -> u64 {
    vertices
        .iter()
        .fold(0u64, |mask, v| mask | (1u64 << (v.0 & 63)))
}

/// Exact merge-walk over two sorted vertex sets.
fn sorted_intersect(a: &[VertexId], b: &[VertexId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_gnn::Workload;
    use ripple_graph::synth::DatasetSpec;
    use ripple_graph::{DynamicGraph, GraphUpdate};

    fn line_graph(n: usize) -> DynamicGraph {
        // 0 -> 1 -> 2 -> ... -> n-1: cones are intervals, easy to reason
        // about.
        let mut g = DynamicGraph::new(n, 4);
        for v in 0..n - 1 {
            g.add_edge(VertexId(v as u32), VertexId(v as u32 + 1), 1.0)
                .unwrap();
        }
        g
    }

    fn model() -> GnnModel {
        Workload::GcS.build_model(4, 8, 4, 2, 7).unwrap()
    }

    #[test]
    fn feature_update_footprint_covers_the_forward_cone() {
        let g = line_graph(10);
        let m = model();
        let batch =
            UpdateBatch::from_updates(vec![GraphUpdate::update_feature(VertexId(2), vec![0.5; 4])]);
        let fp = Footprint::for_batch(&g, &m, &batch);
        // 2 layers: the cone of vertex 2 on a line is {2, 3, 4}.
        assert!(fp.writes().contains(&VertexId(2)));
        assert!(fp.writes().contains(&VertexId(3)));
        assert!(fp.writes().contains(&VertexId(4)));
        assert!(!fp.writes().contains(&VertexId(5)));
        assert!(!fp.writes().contains(&VertexId(1)));
    }

    #[test]
    fn distant_windows_are_disjoint_and_neighbours_conflict() {
        let g = line_graph(200);
        let m = model();
        let near = |v: u32| {
            Footprint::for_batch(
                &g,
                &m,
                &UpdateBatch::from_updates(vec![GraphUpdate::update_feature(
                    VertexId(v),
                    vec![0.1; 4],
                )]),
            )
        };
        let a = near(10);
        let b = near(100);
        let c = near(11); // cone {11,12,13} overlaps a's {10,11,12}
        assert!(a.disjoint(&b));
        assert!(b.disjoint(&a));
        assert!(a.intersects(&c));
        assert!(c.intersects(&a));
    }

    #[test]
    fn mask_collision_falls_through_to_the_exact_walk() {
        // Vertices 1 and 65 share occupancy bit 1 but are distinct rows:
        // the mask collides, the exact walk must still say disjoint.
        let a = Footprint::from_writes(vec![VertexId(1)]);
        let b = Footprint::from_writes(vec![VertexId(65)]);
        assert_eq!(a.mask & b.mask, 1 << 1);
        assert!(a.disjoint(&b));
        let c = Footprint::from_writes(vec![VertexId(65), VertexId(1)]);
        assert!(a.intersects(&c));
    }

    #[test]
    fn edge_update_footprint_includes_both_endpoints() {
        let g = line_graph(10);
        let m = model();
        let batch =
            UpdateBatch::from_updates(vec![GraphUpdate::add_edge(VertexId(0), VertexId(5))]);
        let fp = Footprint::for_batch(&g, &m, &batch);
        assert!(fp.writes().contains(&VertexId(0)), "source row is mutated");
        assert!(fp.writes().contains(&VertexId(5)), "sink joins every hop");
        // The sink's own forward cone is affected at hop 2.
        assert!(fp.writes().contains(&VertexId(6)));
    }

    #[test]
    fn empty_window_is_disjoint_with_everything() {
        let g = line_graph(10);
        let m = model();
        let fp = Footprint::for_batch(&g, &m, &UpdateBatch::new());
        assert!(fp.is_empty());
        let other = Footprint::from_writes((0..10).map(VertexId).collect());
        assert!(fp.disjoint(&other));
        assert!(other.disjoint(&fp));
    }

    #[test]
    fn dirty_partitioning_recovers_the_per_window_rows() {
        let fp = Footprint::from_writes(vec![VertexId(2), VertexId(5), VertexId(9)]);
        let merged_dirty: Vec<VertexId> = [1u32, 2, 3, 5, 8].map(VertexId).to_vec();
        let mut own = Vec::new();
        fp.intersect_sorted_into(&merged_dirty, &mut own);
        assert_eq!(own, vec![VertexId(2), VertexId(5)]);
    }

    #[test]
    fn real_dataset_footprints_stay_sorted_and_deduped() {
        let g = DatasetSpec::custom(120, 4.0, 4, 4).generate(3).unwrap();
        let m = model();
        let batch = UpdateBatch::from_updates(vec![
            GraphUpdate::update_feature(VertexId(7), vec![0.2; 4]),
            GraphUpdate::add_edge(VertexId(3), VertexId(90)),
        ]);
        let fp = Footprint::for_batch(&g, &m, &batch);
        assert!(fp.writes().windows(2).all(|w| w[0] < w[1]));
        assert!(fp.intersects(&fp));
    }
}
