//! The Ripple incremental engine: one update operator and one hop loop.
//!
//! See the crate-level documentation for the algorithm outline. The
//! correctness-critical details, all exercised by the tests below and by the
//! cross-crate property tests, are:
//!
//! * **hop-1 deltas are built sequentially** over the batch, so that
//!   interleaved feature updates and edge additions/deletions touching the
//!   same vertices never double-count a contribution;
//! * **edge updates re-affect their sink at every hop**: a new (deleted) edge
//!   contributes (removes) the source's embedding at each layer, and those
//!   contributions use the source's *pre-batch* embeddings — the in-batch
//!   change, if any, arrives separately via the source's own delta message —
//!   so the two always sum to exactly the new value;
//! * **mean aggregation stores unnormalised sums**: the stored aggregate is
//!   only divided by the in-degree when the layer is evaluated, so degree
//!   changes caused by edge updates re-normalise for free.
//!
//! The hop loop (inject → sort → apply → evaluate → commit) is written once,
//! generic over a `Route` that decides where each mailbox deposit goes:
//! every deposit stays local in a [`RippleEngine`], while a
//! [`crate::ShardEngine`] sends deposits for foreign sinks to its outbox.
//! The loop's phases (begin, then inject and compute per hop, then finish)
//! are run in three ways: [`RippleEngine::process_batch`] runs them back to
//! back, [`crate::ShardEngine::process_window`] does the same for one shard,
//! and [`crate::ShardEngine::process_lockstep`] runs every shard of a
//! partitioning through each hop together, exchanging outboxes between the
//! inject and compute phases (the distributed BSP engine).
//!
//! Within a hop, every affected vertex re-evaluates against state that no
//! other vertex of the same hop touches. [`RippleEngine::with_threads`]
//! therefore splits each hop's sorted frontier into one contiguous range per
//! [`WorkerPool`] worker, each evaluated into that worker's scratch arena.
//! The owner thread then commits the blocks in range order, so embedding
//! writes and next-hop deposits replay in exactly the 1-thread order and the
//! results are **bit-identical for any thread count**.

use crate::mailbox::MailboxSet;
use crate::message::DeltaMessage;
use crate::{Result, RippleError};
use ripple_gnn::layer_wise::reevaluate_slice_into;
use ripple_gnn::recompute::BatchStats;
use ripple_gnn::{EmbeddingStore, GnnModel};
use ripple_graph::{CsrSnapshot, DynamicGraph, GraphUpdate, GraphView, UpdateBatch, VertexId};
use ripple_tensor::{Scratch, WorkerPool};
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Configuration of the incremental engine, built with
/// [`RippleConfig::default`]. It has no settings: the engine always
/// propagates to every affected vertex, as the paper's engine does, so the
/// set of touched vertices is a function of the batch alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RippleConfig;

/// Where the update operator and the hop loop send each mailbox deposit.
/// The hop loop is monomorphised over it, so routing costs no indirect call.
pub(crate) trait Route {
    /// Whether this engine owns `v`, and therefore emits the value deltas of
    /// the edge updates whose source is `v`.
    fn owns(&self, v: VertexId) -> bool;

    /// Deposits `coeff * delta` for the hop-`hop` mailbox of `target`.
    fn deposit(
        &mut self,
        mailboxes: &mut MailboxSet,
        hop: usize,
        target: VertexId,
        coeff: f32,
        delta: &[f32],
    );
}

/// The single-engine route: the engine owns every vertex and keeps every
/// deposit in its own mailboxes.
pub(crate) struct Local;

impl Route for Local {
    fn owns(&self, _: VertexId) -> bool {
        true
    }

    fn deposit(
        &mut self,
        mailboxes: &mut MailboxSet,
        hop: usize,
        target: VertexId,
        coeff: f32,
        delta: &[f32],
    ) {
        mailboxes.deposit(hop, target, coeff, delta);
    }
}

/// One topology change of the current batch whose source this engine owns,
/// recorded so its per-hop aggregate contributions can be injected during
/// propagation.
#[derive(Debug, Clone)]
struct EdgeChange {
    source: VertexId,
    sink: VertexId,
    /// +1 for addition, -1 for deletion.
    sign: f32,
    /// Aggregator edge coefficient (1 for sum/mean, the edge weight for
    /// weighted sum).
    coeff: f32,
}

/// Output of the hop-0 `update` operator (besides the hop-1 deltas it left
/// in the engine's mailboxes): the state propagation starts from.
struct UpdatePhase {
    /// Pre-batch embeddings (layers 1..L-1) of every edge-update source.
    source_snapshots: HashMap<VertexId, Vec<Vec<f32>>>,
    /// Topology changes of the batch, for per-hop contribution injection.
    edge_changes: Vec<EdgeChange>,
    /// Vertices whose hop-0 embedding (feature vector) changed, ascending.
    changed_prev: Vec<VertexId>,
}

/// A batch between the phases of [`RippleEngine::run_batch`]: the state
/// the update operator left for propagation plus the statistics so far.
pub(crate) struct BatchRun {
    phase: UpdatePhase,
    stats: BatchStats,
    /// When the batch started.
    start: Instant,
}

/// Validates that a graph, model and bootstrap store fit together.
fn validate_parts(graph: &DynamicGraph, model: &GnnModel, store: &EmbeddingStore) -> Result<()> {
    if store.num_vertices() != graph.num_vertices() {
        return Err(RippleError::Mismatch(format!(
            "store covers {} vertices, graph has {}",
            store.num_vertices(),
            graph.num_vertices()
        )));
    }
    if store.num_layers() != model.num_layers() {
        return Err(RippleError::Mismatch(format!(
            "store has {} layers, model has {}",
            store.num_layers(),
            model.num_layers()
        )));
    }
    if graph.feature_dim() != model.input_dim() {
        return Err(RippleError::Mismatch(format!(
            "graph features are {}-wide, model expects {}",
            graph.feature_dim(),
            model.input_dim()
        )));
    }
    Ok(())
}

/// Captures the pre-batch embeddings (layers 1..L-1) of an edge-update
/// source vertex, once per batch.
fn snapshot_source(
    store: &EmbeddingStore,
    model: &GnnModel,
    snapshots: &mut HashMap<VertexId, Vec<Vec<f32>>>,
    source: VertexId,
) {
    if snapshots.contains_key(&source) {
        return;
    }
    let upto = model.num_layers().saturating_sub(1);
    let mut layers = Vec::with_capacity(upto);
    for l in 1..=upto {
        layers.push(store.embedding(l, source).to_vec());
    }
    snapshots.insert(source, layers);
}

/// The hop-`hop` affected frontier in ascending vertex order: every vertex
/// with pending mail, plus — when the layer reads its own previous-layer
/// embedding — every vertex that changed at the previous hop. Both inputs
/// are ascending and duplicate-free, so this is one linear merge.
///
/// The ascending order pins the per-hop processing (and therefore float
/// accumulation) order, which makes runs reproducible across processes and
/// gives the worker pool a canonical order to split and commit against.
fn sorted_affected(
    mail_ids: &[VertexId],
    changed_prev: &[VertexId],
    depends_on_self: bool,
) -> Vec<VertexId> {
    if !depends_on_self {
        return mail_ids.to_vec();
    }
    let mut affected = Vec::with_capacity(mail_ids.len() + changed_prev.len());
    let (mut a, mut b) = (mail_ids.iter().peekable(), changed_prev.iter().peekable());
    while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
        affected.push(x.min(y));
        if x <= y {
            a.next();
        }
        if y <= x {
            b.next();
        }
    }
    affected.extend(a.chain(b));
    affected
}

/// Frontiers smaller than this are evaluated inline: the per-hop spawn cost
/// of scoped workers would dominate the handful of layer evaluations.
const MIN_PARALLEL_FRONTIER: usize = 64;

/// Evaluates a hop frontier against an immutable store (all pending deltas
/// already folded in by the owner thread) into per-worker scratch arenas:
/// the frontier is split into one contiguous range per arena (small
/// frontiers, or a 1-thread pool, collapse onto `scratches[0]` inline) and
/// each worker leaves its block's embeddings in its own `scratch.out`.
/// Returns the ranges, index-aligned with `scratches`, so the caller can
/// commit block after block in frontier order. Per-vertex evaluation cost is
/// uniform at a given hop, so static ranges stay load-balanced.
///
/// Once every arena has reached steady-state capacity, the per-worker
/// evaluation kernels perform **zero heap allocations**. Its one caller is
/// [`RippleEngine::compute_hop`], which every engine mode runs: the local
/// engine, each [`crate::ShardEngine`] of the serving tier and each worker
/// of the distributed (BSP) engine.
///
/// # Errors
///
/// Propagates layer lookup and tensor shape errors from any range.
///
/// # Panics
///
/// Panics if `scratches` is empty.
pub(crate) fn evaluate_frontier_into<G: GraphView + Sync + ?Sized>(
    pool: &WorkerPool,
    graph: &G,
    model: &GnnModel,
    store: &EmbeddingStore,
    hop: usize,
    vertices: &[VertexId],
    scratches: &mut [Scratch],
) -> ripple_gnn::Result<Vec<Range<usize>>> {
    assert!(!scratches.is_empty(), "need at least one scratch arena");
    let arenas = if pool.threads() == 1 || vertices.len() < MIN_PARALLEL_FRONTIER {
        1
    } else {
        scratches.len().min(pool.threads())
    };
    let mut ranges = Vec::with_capacity(arenas);
    let results = pool.map_ranges(
        &mut scratches[..arenas],
        vertices.len(),
        |scratch, range| {
            let result =
                reevaluate_slice_into(graph, model, store, hop, &vertices[range.clone()], scratch);
            (range, result)
        },
    );
    for (range, result) in results {
        result?;
        ranges.push(range);
    }
    Ok(ranges)
}

/// The incremental inference engine. It runs on one thread unless built
/// with [`RippleEngine::with_threads`]; the thread count never changes a
/// result.
#[derive(Debug, Clone)]
pub struct RippleEngine {
    graph: DynamicGraph,
    model: GnnModel,
    store: EmbeddingStore,
    /// Persistent epoch-versioned CSR snapshot of the topology: the hot
    /// propagation paths (aggregation degrees, message fanout) stream its
    /// contiguous rows; the update operator keeps it in lockstep with
    /// `graph` through the delta overlay, and a policy-triggered incremental
    /// compaction folds the overlay back after enough churn.
    topo: CsrSnapshot,
    /// The workers each hop's frontier is split across.
    pool: WorkerPool,
    /// One persistent scratch arena per pool worker: once each arena reaches
    /// its steady-state size, the compute phase of every hop runs without
    /// heap allocation.
    scratches: Vec<Scratch>,
    /// The per-hop mailboxes, kept for the engine's life and cleared at the
    /// start of every batch: steady-state deposits neither hash nor allocate.
    mailboxes: MailboxSet,
    /// Reusable buffer for the per-vertex delta of a feature update or a
    /// commit.
    delta: Vec<f32>,
    /// Vertices whose store rows (any layer: features, aggregates or
    /// embeddings) changed during the last processed batch, sorted and
    /// deduplicated. The serving layer threads this into dirty-row epoch
    /// publication.
    dirty: Vec<VertexId>,
}

impl RippleEngine {
    /// Creates a 1-thread engine from a bootstrapped graph, model and
    /// embedding store (normally produced by
    /// [`ripple_gnn::layer_wise::full_inference`]).
    ///
    /// # Errors
    ///
    /// Returns [`RippleError::Mismatch`] if the store does not cover the
    /// graph's vertices or the model's layers, or if the graph's feature
    /// width differs from the model input width.
    pub fn new(
        graph: DynamicGraph,
        model: GnnModel,
        store: EmbeddingStore,
        _config: RippleConfig,
    ) -> Result<Self> {
        validate_parts(&graph, &model, &store)?;
        let topo = CsrSnapshot::from_dynamic(&graph);
        let mailboxes = MailboxSet::new(model.num_layers());
        Ok(RippleEngine {
            graph,
            model,
            store,
            topo,
            pool: WorkerPool::default(),
            scratches: vec![Scratch::new()],
            mailboxes,
            delta: Vec::new(),
            dirty: Vec::new(),
        })
    }

    /// Splits each hop's frontier across `threads` pool workers (clamped to
    /// at least 1). Results are bit-identical for any thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = WorkerPool::new(threads);
        self.scratches = vec![Scratch::new(); self.pool.threads()];
        self
    }

    /// Number of worker threads used per hop.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Replaces the engine's graph and store with restored checkpoint state
    /// and resumes the topology epoch at `topology_epoch`. The rebuilt CSR
    /// snapshot reads bit-identically to one that reached the same graph
    /// incrementally, and the scratch/mailbox/dirty state is per-batch, so
    /// an engine restored here continues exactly as the checkpointed one
    /// would have.
    ///
    /// # Errors
    ///
    /// Returns [`RippleError::Mismatch`] if the restored parts do not fit
    /// the engine's model.
    pub fn restore_state(
        &mut self,
        graph: DynamicGraph,
        store: EmbeddingStore,
        topology_epoch: u64,
    ) -> Result<()> {
        validate_parts(&graph, &self.model, &store)?;
        self.topo = CsrSnapshot::from_dynamic_at(&graph, topology_epoch);
        self.graph = graph;
        self.store = store;
        self.dirty.clear();
        Ok(())
    }

    /// The current graph (reflecting every processed batch).
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The engine's persistent topology snapshot (in lockstep with
    /// [`RippleEngine::graph`]).
    pub fn topology(&self) -> &CsrSnapshot {
        &self.topo
    }

    /// The topology epoch: how many update batches the snapshot has
    /// absorbed.
    pub fn topology_epoch(&self) -> u64 {
        self.topo.epoch()
    }

    /// The sorted, deduplicated set of vertices whose store rows changed in
    /// the last processed batch (empty before the first batch).
    pub fn dirty_rows(&self) -> &[VertexId] {
        &self.dirty
    }

    /// The current embedding store.
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// The model used for inference.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// Predicted label of a vertex from the current final-layer embeddings —
    /// the lookup a trigger-based application reads after each batch.
    pub fn predicted_label(&self, v: VertexId) -> usize {
        self.store.predicted_label(v)
    }

    /// Consumes the engine, returning the graph and store.
    pub fn into_parts(self) -> (DynamicGraph, EmbeddingStore) {
        (self.graph, self.store)
    }

    /// Memory overhead of the additional state Ripple keeps relative to the
    /// recompute baseline (the aggregate tables, the scratch arenas, the
    /// mailboxes and the CSR topology snapshot), in bytes.
    pub fn incremental_state_bytes(&self) -> usize {
        self.store.aggregate_memory_bytes()
            + self.mailboxes.memory_bytes()
            + self.topo.heap_bytes()
            + self
                .scratches
                .iter()
                .map(Scratch::memory_bytes)
                .sum::<usize>()
    }

    /// Applies a batch of updates and incrementally refreshes every affected
    /// embedding.
    ///
    /// # Errors
    ///
    /// Propagates graph errors (e.g. deleting a non-existent edge) and tensor
    /// errors. The engine should be considered poisoned after an error.
    pub fn process_batch(&mut self, batch: &UpdateBatch) -> Result<BatchStats> {
        self.run_batch(batch, &[], &mut Local)
    }

    /// Applies a group of **pairwise footprint-disjoint** windows (see
    /// [`crate::Footprint`]) as one merged pass over the concatenated batch,
    /// returning the union of the dirtied rows. Bit-identical to processing
    /// the windows sequentially: disjointness means the update operator
    /// mutates disjoint adjacency rows, every mailbox target receives
    /// deposits from exactly one window in its original relative order, and
    /// re-evaluation reads only rows of the owning window's cone. The
    /// topology epoch still advances once per non-empty window, so the
    /// serving layer's per-window counters match a serial replay exactly.
    ///
    /// # Errors
    ///
    /// Propagates graph and tensor errors like
    /// [`RippleEngine::process_batch`]; the engine should be considered
    /// poisoned after an error.
    pub fn process_windows(&mut self, windows: &[UpdateBatch]) -> Result<Vec<VertexId>> {
        let non_empty = windows.iter().filter(|b| !b.is_empty()).count();
        match non_empty {
            0 => return Ok(Vec::new()),
            1 => {
                let batch = windows.iter().find(|b| !b.is_empty()).expect("counted");
                self.process_batch(batch)?;
                return Ok(self.dirty.clone());
            }
            _ => {}
        }
        let mut merged = UpdateBatch::new();
        for batch in windows.iter().filter(|b| !b.is_empty()) {
            for update in batch.iter() {
                merged.push(update.clone());
            }
        }
        self.process_batch(&merged)?;
        // The merged pass advanced the epoch once; a serial replay advances
        // it once per non-empty window. Compaction timing (inside
        // `process_batch`) only affects internal CSR layout, never reads.
        for _ in 1..non_empty {
            self.topo.advance_epoch();
        }
        Ok(self.dirty.clone())
    }

    /// Runs one batch end to end: [`RippleEngine::begin_batch`], then
    /// [`RippleEngine::inject_hop`] and [`RippleEngine::compute_hop`] for
    /// every hop, then [`RippleEngine::finish_batch`], with every deposit
    /// sent where `route` says.
    ///
    /// Each hop's mailbox receives its deposits in a fixed order — update
    /// operator, halos, the previous hop's commit, this hop's edge-change
    /// injection — which pins float accumulation order. The phases are
    /// separate so that [`crate::ShardEngine::process_lockstep`] can run
    /// several engines through each hop together.
    pub(crate) fn run_batch<R: Route>(
        &mut self,
        batch: &UpdateBatch,
        halos: &[DeltaMessage],
        route: &mut R,
    ) -> Result<BatchStats> {
        let mut run = self.begin_batch(batch, halos, route)?;
        for hop in 1..=self.model.num_layers() {
            self.inject_hop(&mut run, hop, route);
            self.compute_hop(&mut run, hop, route)?;
        }
        Ok(self.finish_batch(run))
    }

    /// Starts a batch: clears the mailboxes and the dirty set, runs the
    /// `update` operator, then deposits the halo deltas received from peer
    /// shards. The mailboxes are cleared first, so mail left by a batch
    /// that failed midway never leaks into this one.
    pub(crate) fn begin_batch<R: Route>(
        &mut self,
        batch: &UpdateBatch,
        halos: &[DeltaMessage],
        route: &mut R,
    ) -> Result<BatchRun> {
        let mut stats = BatchStats {
            batch_size: batch.len(),
            ..BatchStats::default()
        };
        let start = Instant::now();
        self.dirty.clear();
        self.mailboxes.clear();
        let phase = self.run_update_operator(batch, route, &mut stats)?;
        let mut run = BatchRun {
            phase,
            stats,
            start,
        };
        for message in halos {
            self.deposit_halo(&mut run, message);
        }
        run.stats.update_time = start.elapsed();
        // Feature-updated vertices rewrote their layer-0 rows.
        self.dirty.extend_from_slice(&run.phase.changed_prev);
        Ok(run)
    }

    /// Deposits one halo delta received from a peer shard.
    pub(crate) fn deposit_halo(&mut self, run: &mut BatchRun, message: &DeltaMessage) {
        self.mailboxes.deposit_message(message);
        run.stats.aggregate_ops += 1;
    }

    /// Injects the hop's contribution of every topology change (hop 1 was
    /// deposited by the update operator). A new (deleted) edge adds
    /// (removes) the source's *pre-batch* embedding; the source's in-batch
    /// change arrives separately via its own delta.
    pub(crate) fn inject_hop<R: Route>(&mut self, run: &mut BatchRun, hop: usize, route: &mut R) {
        if hop < 2 {
            return;
        }
        for change in &run.phase.edge_changes {
            let pre_batch = &run.phase.source_snapshots[&change.source][hop - 2];
            let coeff = change.sign * change.coeff;
            route.deposit(&mut self.mailboxes, hop, change.sink, coeff, pre_batch);
            run.stats.aggregate_ops += 1;
        }
    }

    /// Propagates one hop: sorts the hop's mail, applies it, re-evaluates
    /// the affected frontier and commits the new embeddings, forwarding each
    /// vertex's delta to the next hop.
    pub(crate) fn compute_hop<R: Route>(
        &mut self,
        run: &mut BatchRun,
        hop: usize,
        route: &mut R,
    ) -> Result<()> {
        let RippleEngine {
            model,
            store,
            topo,
            pool,
            scratches,
            mailboxes,
            delta,
            dirty,
            ..
        } = self;
        let BatchRun { phase, stats, .. } = run;
        let num_layers = model.num_layers();
        let aggregator = model.aggregator();
        let layer = model.layer(hop)?;
        let mail = mailboxes.sorted_hop(hop);
        let affected =
            sorted_affected(mail.targets(), &phase.changed_prev, layer.depends_on_self());
        stats.affected_per_hop.push(affected.len());
        stats.propagation_tree_size += affected.len();
        if hop == num_layers {
            stats.affected_final = affected.len();
        }
        dirty.extend_from_slice(&affected);

        // Apply: fold each target's accumulated row straight into its
        // stored raw aggregate, in ascending target order.
        for (v, delta) in mail.iter() {
            ripple_tensor::add_assign(store.aggregate_mut(hop, v), delta);
            stats.aggregate_ops += 1;
        }

        // Evaluate: workers re-evaluate contiguous ranges of the frontier
        // into their own scratch arenas, streaming the snapshot's rows.
        let ranges = evaluate_frontier_into(pool, topo, model, store, hop, &affected, scratches)?;

        // Commit block after block in frontier order: write the new
        // embeddings back and forward each vertex's delta to the next
        // hop, exactly as one thread would.
        // The commit walks the frontier in ascending order, so the
        // changed set comes out sorted.
        let mut changed_now = Vec::with_capacity(affected.len());
        let evaluated = scratches
            .iter()
            .zip(ranges)
            .flat_map(|(scratch, range)| affected[range].iter().zip(scratch.out.iter_rows()));
        for (&v, new_embedding) in evaluated {
            let old = store.embedding(hop, v);
            delta.clear();
            delta.extend(new_embedding.iter().zip(old).map(|(n, o)| n - o));
            store.set_embedding(hop, v, new_embedding)?;
            changed_now.push(v);

            if hop < num_layers {
                let (sinks, weights) = GraphView::out_adjacency(topo, v);
                for (&w, &weight) in sinks.iter().zip(weights) {
                    let coeff = aggregator.edge_coefficient(weight);
                    route.deposit(mailboxes, hop + 1, w, coeff, delta);
                    stats.aggregate_ops += 1;
                }
            }
        }
        phase.changed_prev = changed_now;
        Ok(())
    }

    /// Ends a batch: sorts and deduplicates the dirty set, bumps the
    /// topology epoch and lets the snapshot fold its overlay back once
    /// enough churn has accumulated.
    pub(crate) fn finish_batch(&mut self, run: BatchRun) -> BatchStats {
        let mut stats = run.stats;
        self.dirty.sort_unstable();
        self.dirty.dedup();
        stats.propagate_time = run.start.elapsed().saturating_sub(stats.update_time);
        self.topo.advance_epoch();
        self.topo.maybe_compact();
        stats
    }

    /// The `update` operator (hop 0), **sequential** over the batch so that
    /// interleaved feature and edge updates touching the same vertices never
    /// double-count a contribution.
    ///
    /// Topology mutations are applied to the dynamic graph **and** the CSR
    /// snapshot in lockstep (the snapshot replays the exact same
    /// push/`swap_remove` semantics, so the two stay bit-identical per
    /// vertex); fanout reads stream the snapshot's contiguous rows. Only the
    /// owner of an edge's source emits its value deltas.
    fn run_update_operator<R: Route>(
        &mut self,
        batch: &UpdateBatch,
        route: &mut R,
        stats: &mut BatchStats,
    ) -> Result<UpdatePhase> {
        let RippleEngine {
            graph,
            model,
            store,
            topo,
            mailboxes,
            delta,
            ..
        } = self;
        let aggregator = model.aggregator();
        let mut phase = UpdatePhase {
            source_snapshots: HashMap::new(),
            edge_changes: Vec::new(),
            changed_prev: Vec::new(),
        };

        for update in batch {
            let (src, dst, weight, sign) = match update {
                GraphUpdate::UpdateFeature { vertex, features } => {
                    if !graph.contains_vertex(*vertex) {
                        return Err(RippleError::InvalidUpdate(format!(
                            "feature update for unknown vertex {vertex}"
                        )));
                    }
                    if features.len() != graph.feature_dim() {
                        return Err(RippleError::InvalidUpdate(format!(
                            "feature update for {vertex} is {}-wide, features are {}-wide",
                            features.len(),
                            graph.feature_dim()
                        )));
                    }
                    delta.clear();
                    delta.extend(
                        features
                            .iter()
                            .zip(store.embedding(0, *vertex))
                            .map(|(n, o)| n - o),
                    );
                    // Deltas flow to the *current* out-neighbourhood, which
                    // reflects every earlier update in this batch.
                    let (sinks, weights) = GraphView::out_adjacency(topo, *vertex);
                    for (&w, &weight) in sinks.iter().zip(weights) {
                        let coeff = aggregator.edge_coefficient(weight);
                        route.deposit(mailboxes, 1, w, coeff, delta);
                        stats.aggregate_ops += 1;
                    }
                    graph.set_feature(*vertex, features)?;
                    store.set_embedding(0, *vertex, features)?;
                    phase.changed_prev.push(*vertex);
                    continue;
                }
                GraphUpdate::AddEdge { src, dst, weight } => {
                    graph.add_edge(*src, *dst, *weight)?;
                    topo.add_edge(*src, *dst, *weight)
                        .expect("topology snapshot out of sync with graph");
                    (*src, *dst, *weight, 1.0)
                }
                GraphUpdate::DeleteEdge { src, dst } => {
                    let weight = graph.edge_weight(*src, *dst).ok_or_else(|| {
                        RippleError::InvalidUpdate(format!("deleting missing edge {src} -> {dst}"))
                    })?;
                    graph.remove_edge(*src, *dst)?;
                    topo.remove_edge(*src, *dst)
                        .expect("topology snapshot out of sync with graph");
                    (*src, *dst, weight, -1.0)
                }
            };
            if route.owns(src) {
                snapshot_source(store, model, &mut phase.source_snapshots, src);
                let coeff = aggregator.edge_coefficient(weight);
                route.deposit(mailboxes, 1, dst, sign * coeff, store.embedding(0, src));
                stats.aggregate_ops += 1;
                phase.edge_changes.push(EdgeChange {
                    source: src,
                    sink: dst,
                    sign,
                    coeff,
                });
            }
        }
        phase.changed_prev.sort_unstable();
        phase.changed_prev.dedup();
        Ok(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_gnn::layer_wise::full_inference;
    use ripple_gnn::Workload;
    use ripple_graph::stream::{build_stream, StreamConfig};
    use ripple_graph::synth::DatasetSpec;

    fn bootstrap(
        workload: Workload,
        layers: usize,
        seed: u64,
    ) -> (RippleEngine, DynamicGraph, GnnModel, Vec<UpdateBatch>) {
        let spec = DatasetSpec::custom(150, 5.0, 6, 4);
        let full = spec
            .generate_weighted(seed, workload.needs_edge_weights())
            .unwrap();
        let plan = build_stream(
            &full,
            &StreamConfig {
                total_updates: 90,
                seed: seed ^ 1,
                ..Default::default()
            },
        )
        .unwrap();
        let model = workload.build_model(6, 8, 4, layers, seed ^ 2).unwrap();
        let store = full_inference(&plan.snapshot, &model).unwrap();
        let engine = RippleEngine::new(
            plan.snapshot.clone(),
            model.clone(),
            store,
            RippleConfig::default(),
        )
        .unwrap();
        let batches = plan.batches(15);
        (engine, plan.snapshot, model, batches)
    }

    /// The headline exactness claim: after streaming every batch, the
    /// incrementally maintained embeddings equal full re-inference on the
    /// final graph, for every workload.
    #[test]
    fn incremental_matches_full_inference_all_workloads() {
        for workload in Workload::all() {
            let (mut engine, snapshot, model, batches) = bootstrap(workload, 2, 3);
            let mut reference_graph = snapshot;
            for batch in &batches {
                engine.process_batch(batch).unwrap();
                reference_graph.apply_batch(batch).unwrap();
            }
            let reference = full_inference(&reference_graph, &model).unwrap();
            let diff = engine.store().max_diff_all_layers(&reference).unwrap();
            assert!(diff < 2e-3, "workload {workload}: diff {diff}");
        }
    }

    #[test]
    fn incremental_matches_full_inference_three_layers() {
        for workload in [Workload::GcS, Workload::GsS, Workload::GcM] {
            let (mut engine, snapshot, model, batches) = bootstrap(workload, 3, 5);
            let mut reference_graph = snapshot;
            for batch in &batches {
                engine.process_batch(batch).unwrap();
                reference_graph.apply_batch(batch).unwrap();
            }
            let reference = full_inference(&reference_graph, &model).unwrap();
            let diff = engine.store().max_diff_all_layers(&reference).unwrap();
            assert!(diff < 2e-3, "workload {workload}: diff {diff}");
        }
    }

    #[test]
    fn single_edge_addition_matches_manual_expectation() {
        // Fig 3-style check: adding an edge only changes the forward
        // neighbourhood of the source.
        let (mut engine, snapshot, model, _) = bootstrap(Workload::GcS, 2, 11);
        let before = engine.store().clone();
        // Pick a fresh edge not in the snapshot.
        let mut chosen = None;
        'outer: for s in 0..snapshot.num_vertices() as u32 {
            for d in 0..snapshot.num_vertices() as u32 {
                if s != d && !snapshot.has_edge(VertexId(s), VertexId(d)) {
                    chosen = Some((VertexId(s), VertexId(d)));
                    break 'outer;
                }
            }
        }
        let (src, dst) = chosen.unwrap();
        let batch = UpdateBatch::from_updates(vec![GraphUpdate::add_edge(src, dst)]);
        let stats = engine.process_batch(&batch).unwrap();
        assert!(stats.affected_per_hop[0] >= 1);

        // Exactness against full inference.
        let mut after_graph = snapshot.clone();
        after_graph.apply_batch(&batch).unwrap();
        let reference = full_inference(&after_graph, &model).unwrap();
        assert!(engine.store().max_diff_all_layers(&reference).unwrap() < 1e-3);

        // Untouched vertices keep their embeddings bit-for-bit.
        let affected = ripple_graph::bfs::affected_set(&after_graph, &[src], 2);
        for v in 0..snapshot.num_vertices() as u32 {
            let vid = VertexId(v);
            if !affected.contains(&vid) && vid != dst {
                assert_eq!(
                    engine.store().embedding(2, vid),
                    before.embedding(2, vid),
                    "vertex {vid} outside the propagation tree must not change"
                );
            }
        }
    }

    #[test]
    fn edge_addition_then_deletion_round_trips() {
        let (mut engine, snapshot, _model, _) = bootstrap(Workload::GcS, 2, 13);
        let before = engine.store().clone();
        let (src, dst) = (VertexId(0), VertexId(75));
        assert!(!snapshot.has_edge(src, dst));
        let add = UpdateBatch::from_updates(vec![GraphUpdate::add_edge(src, dst)]);
        let del = UpdateBatch::from_updates(vec![GraphUpdate::delete_edge(src, dst)]);
        engine.process_batch(&add).unwrap();
        engine.process_batch(&del).unwrap();
        let diff = engine.store().max_diff_all_layers(&before).unwrap();
        assert!(
            diff < 1e-3,
            "add followed by delete should restore embeddings, diff {diff}"
        );
        assert_eq!(engine.graph().num_edges(), snapshot.num_edges());
    }

    #[test]
    fn add_and_delete_same_edge_in_one_batch_is_a_noop() {
        let (mut engine, _snapshot, _model, _) = bootstrap(Workload::GcM, 2, 17);
        let before = engine.store().clone();
        let (src, dst) = (VertexId(1), VertexId(90));
        let batch = UpdateBatch::from_updates(vec![
            GraphUpdate::add_edge(src, dst),
            GraphUpdate::delete_edge(src, dst),
        ]);
        engine.process_batch(&batch).unwrap();
        assert!(engine.store().max_diff_all_layers(&before).unwrap() < 1e-3);
    }

    #[test]
    fn feature_update_and_edge_update_interleaved_in_one_batch() {
        // The double-counting trap: update u's features and add an edge from
        // u in the same batch; the sink must end up with exactly the new
        // contribution.
        for workload in Workload::all() {
            let (mut engine, snapshot, model, _) = bootstrap(workload, 2, 19);
            let u = VertexId(2);
            let dst = VertexId(110);
            assert!(!snapshot.has_edge(u, dst));
            let new_features = vec![0.25; 6];
            let batch = UpdateBatch::from_updates(vec![
                GraphUpdate::update_feature(u, new_features.clone()),
                GraphUpdate::add_weighted_edge(u, dst, 0.7),
                GraphUpdate::update_feature(u, new_features.iter().map(|x| x * 2.0).collect()),
            ]);
            engine.process_batch(&batch).unwrap();

            let mut reference_graph = snapshot.clone();
            reference_graph.apply_batch(&batch).unwrap();
            let reference = full_inference(&reference_graph, &model).unwrap();
            let diff = engine.store().max_diff_all_layers(&reference).unwrap();
            assert!(diff < 1e-3, "workload {workload}: diff {diff}");
        }
    }

    #[test]
    fn labels_update_after_processing() {
        let (mut engine, _snapshot, _model, batches) = bootstrap(Workload::GcS, 2, 23);
        let before: Vec<usize> = (0..engine.graph().num_vertices() as u32)
            .map(|v| engine.predicted_label(VertexId(v)))
            .collect();
        for batch in &batches {
            engine.process_batch(batch).unwrap();
        }
        let after: Vec<usize> = (0..engine.graph().num_vertices() as u32)
            .map(|v| engine.predicted_label(VertexId(v)))
            .collect();
        assert_ne!(
            before, after,
            "streaming 90 updates should change at least one label"
        );
    }

    #[test]
    fn stats_track_affected_sets_and_ops() {
        let (mut engine, _snapshot, _model, batches) = bootstrap(Workload::GcS, 2, 29);
        let stats = engine.process_batch(&batches[0]).unwrap();
        assert_eq!(stats.batch_size, 15);
        assert_eq!(stats.affected_per_hop.len(), 2);
        assert!(stats.propagation_tree_size > 0);
        assert!(stats.aggregate_ops > 0);
        assert!(stats.affected_final <= engine.graph().num_vertices());
    }

    #[test]
    fn invalid_updates_are_reported() {
        for threads in [1, 4] {
            let (engine, snapshot, _model, _) = bootstrap(Workload::GcS, 2, 37);
            let mut engine = engine.with_threads(threads);
            let n = snapshot.num_vertices() as u32;
            let unknown_vertex = UpdateBatch::from_updates(vec![GraphUpdate::update_feature(
                VertexId(n + 5),
                vec![0.0; 6],
            )]);
            assert!(engine.process_batch(&unknown_vertex).is_err());

            let (src, dst) = (0..n)
                .flat_map(|s| (0..n).map(move |d| (VertexId(s), VertexId(d))))
                .find(|&(s, d)| s != d && !snapshot.has_edge(s, d))
                .unwrap();
            let missing_edge = UpdateBatch::from_updates(vec![GraphUpdate::delete_edge(src, dst)]);
            assert!(
                matches!(
                    engine.process_batch(&missing_edge),
                    Err(RippleError::InvalidUpdate(_))
                ),
                "{threads} threads: deleting absent edge {src} -> {dst} must fail"
            );

            // A valid rewrite leaves 6-wide hop-1 mail; a 3-wide one after
            // it must be rejected before it reaches a mailbox.
            let u = (0..n)
                .map(VertexId)
                .find(|&v| snapshot.out_degree(v) > 0)
                .unwrap();
            let narrow = UpdateBatch::from_updates(vec![
                GraphUpdate::update_feature(u, vec![0.5; 6]),
                GraphUpdate::update_feature(u, vec![0.5; 3]),
            ]);
            assert!(
                matches!(
                    engine.process_batch(&narrow),
                    Err(RippleError::InvalidUpdate(_))
                ),
                "{threads} threads: a 3-wide feature update must fail"
            );
        }
    }

    /// A batch that fails after depositing mail leaves that mail in the
    /// engine's mailboxes; the next batch must not apply it. The engine
    /// after the failure must continue exactly like a fresh engine built
    /// from the same graph and store.
    #[test]
    fn failed_batch_leaks_no_mail_into_the_next() {
        let (mut engine, snapshot, model, batches) = bootstrap(Workload::GcS, 2, 53);
        let n = snapshot.num_vertices() as u32;
        let u = (0..n)
            .map(VertexId)
            .find(|&v| snapshot.out_degree(v) > 0)
            .unwrap();
        let (src, dst) = (0..n)
            .flat_map(|s| (0..n).map(move |d| (VertexId(s), VertexId(d))))
            .find(|&(s, d)| s != d && !snapshot.has_edge(s, d))
            .unwrap();
        let failing = UpdateBatch::from_updates(vec![
            GraphUpdate::update_feature(u, vec![0.5; 6]),
            GraphUpdate::delete_edge(src, dst),
        ]);
        assert!(engine.process_batch(&failing).is_err());

        let mut fresh = RippleEngine::new(
            engine.graph().clone(),
            model,
            engine.store().clone(),
            RippleConfig::default(),
        )
        .unwrap();
        engine.process_batch(&batches[0]).unwrap();
        fresh.process_batch(&batches[0]).unwrap();
        assert!(
            engine.store() == fresh.store(),
            "stale mail from the failed batch changed the next one"
        );
    }

    #[test]
    fn constructor_validates_shapes() {
        let spec = DatasetSpec::custom(50, 3.0, 6, 4);
        let graph = spec.generate(1).unwrap();
        let model = Workload::GcS.build_model(6, 8, 4, 2, 0).unwrap();
        let other_model = Workload::GcS.build_model(6, 8, 4, 3, 0).unwrap();
        let store = full_inference(&graph, &model).unwrap();
        assert!(RippleEngine::new(
            graph.clone(),
            other_model,
            store.clone(),
            RippleConfig::default()
        )
        .is_err());
        let wrong_width_model = Workload::GcS.build_model(9, 8, 4, 2, 0).unwrap();
        let wrong_store = EmbeddingStore::zeroed(&wrong_width_model, 50);
        assert!(RippleEngine::new(
            graph.clone(),
            wrong_width_model,
            wrong_store,
            RippleConfig::default()
        )
        .is_err());
        let small_store = EmbeddingStore::zeroed(&model, 10);
        assert!(RippleEngine::new(graph, model, small_store, RippleConfig::default()).is_err());
    }

    #[test]
    fn topology_snapshot_stays_in_lockstep_with_the_graph() {
        let (mut engine, _snapshot, _model, batches) = bootstrap(Workload::GcS, 2, 43);
        for batch in &batches {
            engine.process_batch(batch).unwrap();
        }
        assert_eq!(engine.topology_epoch(), batches.len() as u64);
        let graph = engine.graph();
        let topo = engine.topology();
        assert_eq!(GraphView::num_edges(topo), graph.num_edges());
        for v in 0..graph.num_vertices() as u32 {
            let vid = VertexId(v);
            assert_eq!(topo.in_neighbors(vid), graph.in_neighbors(vid));
            assert_eq!(topo.in_weights(vid), graph.in_weights(vid));
            assert_eq!(topo.out_neighbors(vid), graph.out_neighbors(vid));
            assert_eq!(topo.out_weights(vid), graph.out_weights(vid));
        }
    }

    #[test]
    fn dirty_rows_cover_every_changed_store_row() {
        let (mut engine, _snapshot, _model, batches) = bootstrap(Workload::GcS, 2, 47);
        let before = engine.store().clone();
        assert!(engine.dirty_rows().is_empty(), "clean before any batch");
        engine.process_batch(&batches[0]).unwrap();
        let dirty = engine.dirty_rows().to_vec();
        assert!(!dirty.is_empty());
        assert!(dirty.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
        // Completeness: any vertex with a changed row at any layer must be
        // in the dirty set.
        let after = engine.store();
        for v in 0..after.num_vertices() as u32 {
            let vid = VertexId(v);
            let changed = (0..=after.num_layers())
                .any(|l| after.embedding(l, vid) != before.embedding(l, vid))
                || (1..=after.num_layers())
                    .any(|l| after.aggregate(l, vid) != before.aggregate(l, vid));
            if changed {
                assert!(
                    dirty.binary_search(&vid).is_ok(),
                    "changed vertex {vid} missing from dirty rows"
                );
            }
        }
        // The set resets per batch.
        engine
            .process_batch(&UpdateBatch::from_updates(vec![
                GraphUpdate::update_feature(VertexId(0), vec![0.5; 6]),
            ]))
            .unwrap();
        assert!(engine.dirty_rows().binary_search(&VertexId(0)).is_ok());
    }

    use ripple_gnn::EmbeddingStore;
    use ripple_graph::GraphView;

    #[test]
    fn incremental_state_overhead_is_reported() {
        let (engine, _, _, _) = bootstrap(Workload::GcS, 2, 41);
        assert!(engine.incremental_state_bytes() > 0);
    }
}
