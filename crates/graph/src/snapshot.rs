//! Epoch-versioned CSR topology snapshot with a mutable delta overlay.
//!
//! The engines stream adjacency constantly (aggregation pulls in-neighbour
//! slices, delta fanout walks out-neighbour slices) but mutate it rarely — a
//! handful of edges per update batch. [`CsrSnapshot`] exploits that skew: it
//! keeps an immutable [`CsrGraph`] base whose index/weight arrays are two
//! flat streams, plus a small per-vertex **overlay** holding the fully
//! materialised adjacency rows of only the vertices touched since the last
//! compaction. Reads resolve in O(1) to either a contiguous base slice (the
//! common case, prefetch-friendly) or an overlay row; writes touch only the
//! two endpoint rows. A size/ratio-triggered **incremental compaction**
//! splices the overlay rows back into the base arrays, bulk-copying the
//! clean spans between dirty vertices instead of re-walking every vertex the
//! way a full `to_csr()` rebuild does.
//!
//! # Bit-parity contract
//!
//! Overlay rows start as verbatim copies of the base row and then replay
//! exactly [`DynamicGraph`]'s mutation semantics — additions push to the
//! back, deletions `swap_remove` at the matched position. A snapshot built
//! from a graph and fed the same update sequence therefore keeps every
//! vertex's neighbour/weight order **identical** to the dynamic lists at all
//! times (compaction only re-homes rows, never reorders them), which is what
//! lets the engines swap the dynamic walk for the CSR stream without
//! changing a single accumulated float.
//!
//! # Epochs
//!
//! The snapshot carries a monotonically increasing **topology epoch** that
//! owners bump once per absorbed update batch ([`CsrSnapshot::advance_epoch`]).
//! The serving layer publishes it next to the embedding epoch so readers can
//! tell how fresh the topology behind their answers is.

use crate::csr::CsrGraph;
use crate::dynamic::DynamicGraph;
use crate::error::GraphError;
use crate::ids::VertexId;
use crate::update::GraphUpdate;
use crate::view::GraphView;
use crate::Result;
use std::collections::HashMap;

/// One materialised adjacency row of the overlay (targets + parallel
/// weights), in the same order the matching [`DynamicGraph`] list would be.
#[derive(Debug, Clone, Default)]
struct AdjRow {
    targets: Vec<VertexId>,
    weights: Vec<f32>,
}

/// When the overlay folds back into the base CSR arrays.
///
/// Compaction triggers when **either** bound is crossed: the overlay holds
/// more than `max_dirty_rows` materialised rows (memory bound), or the
/// absorbed edge churn exceeds `max_churn_ratio` of the base edge count
/// (staleness bound — past that point enough rows have left the contiguous
/// stream that the snapshot loses its prefetch advantage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Overlay row cap (in-rows plus out-rows) before a compaction runs.
    pub max_dirty_rows: usize,
    /// Edge churn (additions + deletions since the last compaction) allowed
    /// as a fraction of the base edge count before a compaction runs.
    pub max_churn_ratio: f64,
    /// Absolute floor of the churn trigger, so small graphs do not compact
    /// after every single edge change.
    pub min_churn: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_dirty_rows: 1024,
            max_churn_ratio: 0.25,
            min_churn: 64,
        }
    }
}

impl CompactionPolicy {
    /// A policy that compacts after every `churn` absorbed edge changes —
    /// used by tests to force frequent compaction boundaries.
    pub fn every_churn(churn: usize) -> Self {
        CompactionPolicy {
            max_dirty_rows: usize::MAX,
            max_churn_ratio: 0.0,
            min_churn: churn.max(1),
        }
    }

    /// The churn count at which a compaction triggers for a base of
    /// `base_edges` edges.
    fn churn_bound(&self, base_edges: usize) -> usize {
        let ratio_bound = base_edges as f64 * self.max_churn_ratio;
        let ratio_bound = if ratio_bound.is_finite() {
            ratio_bound as usize
        } else {
            usize::MAX
        };
        ratio_bound.max(self.min_churn).max(1)
    }
}

/// Counters describing the snapshot's compaction behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Compactions performed over the snapshot's lifetime.
    pub compactions: u64,
    /// Dirty adjacency rows spliced back into the base arrays across all
    /// compactions (clean spans between them are bulk-copied, not rebuilt).
    pub rows_spliced: u64,
}

/// An epoch-versioned CSR topology snapshot: immutable [`CsrGraph`] base +
/// per-vertex overlay of rows touched since the last compaction.
///
/// # Example
///
/// ```
/// use ripple_graph::{CsrSnapshot, DynamicGraph, GraphView, VertexId};
///
/// let mut g = DynamicGraph::new(3, 1);
/// g.add_edge(VertexId(0), VertexId(2), 1.0).unwrap();
/// let mut snap = CsrSnapshot::from_dynamic(&g);
///
/// // Mutations keep the view in lockstep with the dynamic lists.
/// g.add_edge(VertexId(1), VertexId(2), 1.0).unwrap();
/// snap.add_edge(VertexId(1), VertexId(2), 1.0).unwrap();
/// assert_eq!(snap.in_neighbors(VertexId(2)), g.in_neighbors(VertexId(2)));
///
/// snap.compact();
/// assert_eq!(snap.in_neighbors(VertexId(2)), g.in_neighbors(VertexId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct CsrSnapshot {
    base: CsrGraph,
    /// Materialised in-rows of vertices whose in-adjacency changed.
    in_overlay: HashMap<u32, AdjRow>,
    /// Materialised out-rows of vertices whose out-adjacency changed.
    out_overlay: HashMap<u32, AdjRow>,
    /// Live edge count (base ± overlay delta).
    num_edges: usize,
    /// Edge additions + deletions absorbed since the last compaction.
    churn: usize,
    epoch: u64,
    policy: CompactionPolicy,
    stats: CompactionStats,
    /// Reusable sorted-dirty-vertex scratch for compaction.
    dirty_scratch: Vec<u32>,
}

impl CsrSnapshot {
    /// Builds a snapshot of a dynamic graph's current topology with the
    /// default [`CompactionPolicy`].
    pub fn from_dynamic(g: &DynamicGraph) -> Self {
        CsrSnapshot::with_policy(g, CompactionPolicy::default())
    }

    /// Builds a snapshot of a dynamic graph at a given topology epoch — the
    /// checkpoint-restore constructor. The freshly compacted snapshot reads
    /// bit-identically to one that *reached* `epoch` incrementally (the
    /// bit-parity contract pins reads, not internal overlay state), so
    /// recovery can rebuild the topology from a restored [`DynamicGraph`]
    /// and resume the epoch sequence where the crashed process left off.
    pub fn from_dynamic_at(g: &DynamicGraph, epoch: u64) -> Self {
        let mut snap = CsrSnapshot::from_dynamic(g);
        snap.epoch = epoch;
        snap
    }

    /// Builds a snapshot with an explicit compaction policy.
    pub fn with_policy(g: &DynamicGraph, policy: CompactionPolicy) -> Self {
        let base = CsrGraph::from_dynamic(g);
        let num_edges = base.num_edges();
        CsrSnapshot {
            base,
            in_overlay: HashMap::new(),
            out_overlay: HashMap::new(),
            num_edges,
            churn: 0,
            epoch: 0,
            policy,
            stats: CompactionStats::default(),
            dirty_scratch: Vec::new(),
        }
    }

    /// The immutable CSR base (reflects the state as of the last
    /// compaction, not overlay rows absorbed since).
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// The current topology epoch (bumped by [`CsrSnapshot::advance_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bumps and returns the topology epoch. The engines call this once per
    /// absorbed update batch.
    pub fn advance_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Number of materialised overlay rows (in-rows + out-rows).
    pub fn overlay_rows(&self) -> usize {
        self.in_overlay.len() + self.out_overlay.len()
    }

    /// Lifetime compaction counters.
    pub fn compaction_stats(&self) -> CompactionStats {
        self.stats
    }

    /// The active compaction policy.
    pub fn policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// Returns `true` if the edge `u -> v` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.contains_vertex(u) && self.out_neighbors(u).contains(&v)
    }

    /// Returns the weight of edge `u -> v`, if it exists.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<f32> {
        if !self.contains_vertex(u) {
            return None;
        }
        let targets = self.out_neighbors(u);
        targets
            .iter()
            .position(|&x| x == v)
            .map(|pos| self.out_weights(u)[pos])
    }

    fn check_vertex(&self, v: VertexId) -> Result<()> {
        if !self.contains_vertex(v) {
            return Err(GraphError::UnknownVertex {
                vertex: v,
                num_vertices: self.num_vertices(),
            });
        }
        Ok(())
    }

    /// Adds the directed edge `u -> v`, mirroring
    /// [`DynamicGraph::add_edge`]'s semantics (push to the back of both
    /// endpoint rows).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertex`] if either endpoint does not
    /// exist, or [`GraphError::DuplicateEdge`] if the edge is already
    /// present.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, weight: f32) -> Result<()> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge { src: u, dst: v });
        }
        let out_row = materialize(&mut self.out_overlay, &self.base, u, Side::Out);
        out_row.targets.push(v);
        out_row.weights.push(weight);
        let in_row = materialize(&mut self.in_overlay, &self.base, v, Side::In);
        in_row.targets.push(u);
        in_row.weights.push(weight);
        self.num_edges += 1;
        self.churn += 1;
        Ok(())
    }

    /// Removes the directed edge `u -> v`, mirroring
    /// [`DynamicGraph::remove_edge`]'s semantics (`swap_remove` at the
    /// matched position in both endpoint rows).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertex`] if either endpoint does not
    /// exist, or [`GraphError::MissingEdge`] if the edge is not present.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        // Validate against the read view *before* materialising overlay
        // rows: a failed remove must leave the overlay untouched, or
        // repeated failures would bloat it with verbatim row copies.
        if !self.has_edge(u, v) {
            return Err(GraphError::MissingEdge { src: u, dst: v });
        }
        let out_row = materialize(&mut self.out_overlay, &self.base, u, Side::Out);
        let out_pos = out_row
            .targets
            .iter()
            .position(|&x| x == v)
            .expect("edge vanished between has_edge check and removal");
        out_row.targets.swap_remove(out_pos);
        out_row.weights.swap_remove(out_pos);
        let in_row = materialize(&mut self.in_overlay, &self.base, v, Side::In);
        let in_pos = in_row
            .targets
            .iter()
            .position(|&x| x == u)
            .expect("in/out overlay rows out of sync");
        in_row.targets.swap_remove(in_pos);
        in_row.weights.swap_remove(in_pos);
        self.num_edges -= 1;
        self.churn += 1;
        Ok(())
    }

    /// Applies the topology part of a streaming update (feature updates do
    /// not touch adjacency and are ignored).
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`CsrSnapshot::add_edge`] and
    /// [`CsrSnapshot::remove_edge`].
    pub fn apply(&mut self, update: &GraphUpdate) -> Result<()> {
        match update {
            GraphUpdate::AddEdge { src, dst, weight } => self.add_edge(*src, *dst, *weight),
            GraphUpdate::DeleteEdge { src, dst } => self.remove_edge(*src, *dst),
            GraphUpdate::UpdateFeature { .. } => Ok(()),
        }
    }

    /// Compacts if the policy's size or churn bound has been crossed.
    /// Returns `true` if a compaction ran.
    pub fn maybe_compact(&mut self) -> bool {
        let over_rows = self.overlay_rows() > self.policy.max_dirty_rows;
        let over_churn =
            self.churn > 0 && self.churn >= self.policy.churn_bound(self.base.num_edges());
        if over_rows || over_churn {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Folds every overlay row back into the base CSR arrays. Clean spans
    /// between dirty vertices are bulk-copied; only the dirty rows are
    /// spliced. A no-op when the overlay is empty.
    pub fn compact(&mut self) {
        if self.in_overlay.is_empty() && self.out_overlay.is_empty() {
            return;
        }
        let spliced = (self.in_overlay.len() + self.out_overlay.len()) as u64;
        let n = self.base.num_vertices;
        compact_side(
            &mut self.base.in_offsets,
            &mut self.base.in_targets,
            &mut self.base.in_weights,
            &mut self.in_overlay,
            &mut self.dirty_scratch,
            n,
        );
        compact_side(
            &mut self.base.out_offsets,
            &mut self.base.out_targets,
            &mut self.base.out_weights,
            &mut self.out_overlay,
            &mut self.dirty_scratch,
            n,
        );
        self.base.num_edges = self.num_edges;
        self.churn = 0;
        self.stats.compactions += 1;
        self.stats.rows_spliced += spliced;
        debug_assert_eq!(self.base.in_targets.len(), self.num_edges);
        debug_assert_eq!(self.base.out_targets.len(), self.num_edges);
    }

    /// Estimated heap bytes held by the base arrays, the overlay rows and
    /// the compaction scratch.
    pub fn heap_bytes(&self) -> usize {
        let overlay: usize = self
            .in_overlay
            .values()
            .chain(self.out_overlay.values())
            .map(|row| {
                row.targets.capacity() * std::mem::size_of::<VertexId>()
                    + row.weights.capacity() * std::mem::size_of::<f32>()
            })
            .sum();
        self.base.heap_bytes()
            + overlay
            + self.dirty_scratch.capacity() * std::mem::size_of::<u32>()
    }
}

/// Which orientation a row belongs to (selects the base slices to clone on
/// first touch).
#[derive(Clone, Copy)]
enum Side {
    In,
    Out,
}

/// Returns the overlay row for `v`, materialising it from the base CSR on
/// first touch (verbatim copy — order preserved).
fn materialize<'a>(
    overlay: &'a mut HashMap<u32, AdjRow>,
    base: &CsrGraph,
    v: VertexId,
    side: Side,
) -> &'a mut AdjRow {
    overlay.entry(v.0).or_insert_with(|| {
        let (targets, weights) = match side {
            Side::In => (base.in_neighbors(v), base.in_edge_weights(v)),
            Side::Out => (base.out_neighbors(v), base.out_edge_weights(v)),
        };
        AdjRow {
            targets: targets.to_vec(),
            weights: weights.to_vec(),
        }
    })
}

/// Splices one orientation's overlay rows into its CSR arrays: walks the
/// dirty vertices in ascending order, bulk-copies every clean span between
/// them and emits the overlay rows in their place, rewriting offsets with
/// the accumulated length shift.
fn compact_side(
    offsets: &mut Vec<usize>,
    targets: &mut Vec<VertexId>,
    weights: &mut Vec<f32>,
    overlay: &mut HashMap<u32, AdjRow>,
    dirty_scratch: &mut Vec<u32>,
    num_vertices: usize,
) {
    if overlay.is_empty() {
        return;
    }
    dirty_scratch.clear();
    dirty_scratch.extend(overlay.keys().copied());
    dirty_scratch.sort_unstable();

    let delta: isize = dirty_scratch
        .iter()
        .map(|&d| {
            let di = d as usize;
            let old_len = offsets[di + 1] - offsets[di];
            overlay[&d].targets.len() as isize - old_len as isize
        })
        .sum();
    let new_len = (targets.len() as isize + delta) as usize;

    let mut new_offsets = Vec::with_capacity(num_vertices + 1);
    let mut new_targets: Vec<VertexId> = Vec::with_capacity(new_len);
    let mut new_weights: Vec<f32> = Vec::with_capacity(new_len);
    new_offsets.push(0);

    let mut shift: isize = 0;
    let mut next = 0usize; // first vertex not yet emitted
    for &d in dirty_scratch.iter() {
        let di = d as usize;
        // Clean span [next, di): one bulk copy of targets/weights, offsets
        // shifted by the running delta.
        if di > next {
            let span = offsets[next]..offsets[di];
            new_targets.extend_from_slice(&targets[span.clone()]);
            new_weights.extend_from_slice(&weights[span]);
            for v in next..di {
                new_offsets.push((offsets[v + 1] as isize + shift) as usize);
            }
        }
        // Dirty vertex: splice the overlay row.
        let row = &overlay[&d];
        new_targets.extend_from_slice(&row.targets);
        new_weights.extend_from_slice(&row.weights);
        let old_len = offsets[di + 1] - offsets[di];
        shift += row.targets.len() as isize - old_len as isize;
        new_offsets.push((offsets[di + 1] as isize + shift) as usize);
        next = di + 1;
    }
    // Tail span after the last dirty vertex.
    if next < num_vertices {
        let span = offsets[next]..offsets[num_vertices];
        new_targets.extend_from_slice(&targets[span.clone()]);
        new_weights.extend_from_slice(&weights[span]);
        for v in next..num_vertices {
            new_offsets.push((offsets[v + 1] as isize + shift) as usize);
        }
    }
    debug_assert_eq!(new_targets.len(), new_len);
    debug_assert_eq!(new_offsets.len(), num_vertices + 1);

    *offsets = new_offsets;
    *targets = new_targets;
    *weights = new_weights;
    overlay.clear();
}

impl GraphView for CsrSnapshot {
    fn num_vertices(&self) -> usize {
        self.base.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.in_overlay.get(&v.0) {
            Some(row) => &row.targets,
            None => self.base.in_neighbors(v),
        }
    }

    fn in_weights(&self, v: VertexId) -> &[f32] {
        match self.in_overlay.get(&v.0) {
            Some(row) => &row.weights,
            None => self.base.in_edge_weights(v),
        }
    }

    fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        match self.out_overlay.get(&u.0) {
            Some(row) => &row.targets,
            None => self.base.out_neighbors(u),
        }
    }

    fn out_weights(&self, u: VertexId) -> &[f32] {
        match self.out_overlay.get(&u.0) {
            Some(row) => &row.weights,
            None => self.base.out_edge_weights(u),
        }
    }

    fn in_adjacency(&self, v: VertexId) -> (&[VertexId], &[f32]) {
        // One overlay probe covers both slices.
        match self.in_overlay.get(&v.0) {
            Some(row) => (&row.targets, &row.weights),
            None => self.base.in_adjacency(v),
        }
    }

    fn out_adjacency(&self, u: VertexId) -> (&[VertexId], &[f32]) {
        match self.out_overlay.get(&u.0) {
            Some(row) => (&row.targets, &row.weights),
            None => self.base.out_adjacency(u),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DynamicGraph {
        let mut g = DynamicGraph::new(5, 1);
        g.add_edge(VertexId(0), VertexId(1), 1.0).unwrap();
        g.add_edge(VertexId(0), VertexId(2), 2.0).unwrap();
        g.add_edge(VertexId(3), VertexId(2), 3.0).unwrap();
        g.add_edge(VertexId(2), VertexId(1), 4.0).unwrap();
        g
    }

    fn assert_matches(snap: &CsrSnapshot, g: &DynamicGraph) {
        assert_eq!(snap.num_vertices(), g.num_vertices());
        assert_eq!(GraphView::num_edges(snap), g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            let vid = VertexId(v);
            assert_eq!(snap.in_neighbors(vid), g.in_neighbors(vid), "in of {vid}");
            assert_eq!(snap.in_weights(vid), g.in_weights(vid), "in-w of {vid}");
            assert_eq!(
                snap.out_neighbors(vid),
                g.out_neighbors(vid),
                "out of {vid}"
            );
            assert_eq!(snap.out_weights(vid), g.out_weights(vid), "out-w of {vid}");
        }
    }

    #[test]
    fn fresh_snapshot_mirrors_the_graph() {
        let g = sample();
        let snap = CsrSnapshot::from_dynamic(&g);
        assert_matches(&snap, &g);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.overlay_rows(), 0);
    }

    #[test]
    fn overlay_tracks_adds_and_removes_in_dynamic_order() {
        let mut g = sample();
        let mut snap = CsrSnapshot::from_dynamic(&g);

        g.add_edge(VertexId(4), VertexId(2), 5.0).unwrap();
        snap.add_edge(VertexId(4), VertexId(2), 5.0).unwrap();
        assert_matches(&snap, &g);

        // swap_remove reorders — both sides must reorder identically.
        g.remove_edge(VertexId(0), VertexId(2)).unwrap();
        snap.remove_edge(VertexId(0), VertexId(2)).unwrap();
        assert_matches(&snap, &g);
        assert!(snap.overlay_rows() > 0);
        assert_eq!(snap.churn, 2);

        snap.compact();
        assert_matches(&snap, &g);
        assert_eq!(snap.overlay_rows(), 0);
        assert_eq!(snap.churn, 0);
        assert_eq!(snap.compaction_stats().compactions, 1);
        assert!(snap.compaction_stats().rows_spliced >= 2);

        // Mutations keep working after a compaction.
        g.add_edge(VertexId(1), VertexId(0), 6.0).unwrap();
        snap.add_edge(VertexId(1), VertexId(0), 6.0).unwrap();
        assert_matches(&snap, &g);
    }

    #[test]
    fn errors_mirror_dynamic_graph_semantics() {
        let mut snap = CsrSnapshot::from_dynamic(&sample());
        assert!(matches!(
            snap.add_edge(VertexId(0), VertexId(1), 1.0),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            snap.remove_edge(VertexId(1), VertexId(0)),
            Err(GraphError::MissingEdge { .. })
        ));
        assert!(matches!(
            snap.add_edge(VertexId(0), VertexId(9), 1.0),
            Err(GraphError::UnknownVertex { .. })
        ));
        // Failed mutations leave nothing behind — no churn and, just as
        // important, no materialised overlay rows.
        assert_eq!(snap.churn, 0);
        assert_eq!(snap.overlay_rows(), 0);
    }

    #[test]
    fn apply_routes_updates_and_ignores_features() {
        let mut g = sample();
        let mut snap = CsrSnapshot::from_dynamic(&g);
        let updates = vec![
            GraphUpdate::add_weighted_edge(VertexId(4), VertexId(0), 0.5),
            GraphUpdate::update_feature(VertexId(1), vec![9.0]),
            GraphUpdate::delete_edge(VertexId(2), VertexId(1)),
        ];
        for u in &updates {
            g.apply(u).unwrap();
            snap.apply(u).unwrap();
        }
        assert_matches(&snap, &g);
    }

    #[test]
    fn churn_policy_triggers_compaction() {
        let g = sample();
        let mut snap = CsrSnapshot::with_policy(&g, CompactionPolicy::every_churn(2));
        assert!(!snap.maybe_compact(), "no pending churn");
        snap.add_edge(VertexId(4), VertexId(0), 1.0).unwrap();
        assert!(!snap.maybe_compact(), "one change under the bound");
        snap.add_edge(VertexId(4), VertexId(1), 1.0).unwrap();
        assert!(snap.maybe_compact(), "bound crossed");
        assert_eq!(snap.overlay_rows(), 0);
        assert_eq!(snap.compaction_stats().compactions, 1);
    }

    #[test]
    fn row_cap_policy_triggers_compaction() {
        let g = DynamicGraph::new(10, 1);
        let mut snap = CsrSnapshot::with_policy(
            &g,
            CompactionPolicy {
                max_dirty_rows: 3,
                max_churn_ratio: f64::INFINITY,
                min_churn: usize::MAX,
            },
        );
        snap.add_edge(VertexId(0), VertexId(1), 1.0).unwrap();
        assert!(!snap.maybe_compact(), "2 overlay rows under the cap");
        snap.add_edge(VertexId(2), VertexId(3), 1.0).unwrap();
        assert!(snap.maybe_compact(), "4 overlay rows over the cap");
    }

    #[test]
    fn epoch_advances_monotonically() {
        let mut snap = CsrSnapshot::from_dynamic(&sample());
        assert_eq!(snap.advance_epoch(), 1);
        assert_eq!(snap.advance_epoch(), 2);
        assert_eq!(snap.epoch(), 2);
    }

    #[test]
    fn edge_queries_cover_base_and_overlay() {
        let mut snap = CsrSnapshot::from_dynamic(&sample());
        assert!(snap.has_edge(VertexId(0), VertexId(1)));
        assert_eq!(snap.edge_weight(VertexId(3), VertexId(2)), Some(3.0));
        snap.add_edge(VertexId(4), VertexId(3), 7.5).unwrap();
        assert_eq!(snap.edge_weight(VertexId(4), VertexId(3)), Some(7.5));
        assert_eq!(snap.edge_weight(VertexId(3), VertexId(4)), None);
        assert_eq!(snap.edge_weight(VertexId(9), VertexId(0)), None);
    }

    #[test]
    fn heap_bytes_accounts_for_overlay() {
        let mut snap = CsrSnapshot::from_dynamic(&sample());
        let before = snap.heap_bytes();
        snap.add_edge(VertexId(4), VertexId(0), 1.0).unwrap();
        assert!(snap.heap_bytes() > before);
    }

    #[test]
    fn long_random_churn_stays_in_lockstep_across_compactions() {
        // Deterministic pseudo-random add/delete churn with compactions at
        // fixed boundaries; the view must match the dynamic lists bit for
        // bit at every step.
        let mut g = DynamicGraph::new(12, 1);
        let mut snap = CsrSnapshot::from_dynamic(&g);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..400 {
            let u = VertexId((next() % 12) as u32);
            let v = VertexId((next() % 12) as u32);
            if u == v {
                continue;
            }
            if g.has_edge(u, v) {
                g.remove_edge(u, v).unwrap();
                snap.remove_edge(u, v).unwrap();
            } else {
                let w = (next() % 7) as f32 + 0.5;
                g.add_edge(u, v, w).unwrap();
                snap.add_edge(u, v, w).unwrap();
            }
            if step % 37 == 0 {
                snap.compact();
            }
            assert_matches(&snap, &g);
        }
        assert!(snap.compaction_stats().compactions >= 10);
    }
}
