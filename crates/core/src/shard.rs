//! The per-shard incremental engine of the sharded serving tier and of the
//! distributed BSP engine.
//!
//! A [`ShardEngine`] is a [`crate::RippleEngine`] that owns one partition of
//! the vertex space: it runs the same update operator and hop loop, and adds
//! only routing. Its graph keeps the **full vertex-id space** but only the
//! edges incident to at least one owned vertex (the halo-restricted
//! topology): owned vertices therefore see their complete in-adjacency (so
//! mean-aggregator in-degrees are exact) and complete out-adjacency (so
//! fanout reaches every sink), while edges entirely between foreign vertices
//! are absent — their propagation happens on the shards that own them.
//!
//! Cross-shard effects travel as [`DeltaMessage`]s:
//!
//! * a deposit whose sink is foreign accumulates in a [`HaloStubs`] outbox
//!   slot instead of a local mailbox, and [`ShardEngine::process_window`]
//!   returns the drained outbox so the caller can ship it;
//! * incoming messages from peer shards are handed to the next
//!   `process_window` call and deposited into the local mailboxes right
//!   after the update operator;
//! * both endpoint owners apply an edge update's topology change, but only
//!   the source's owner emits its value deltas.
//!
//! [`ShardEngine::process_lockstep`] is the synchronous alternative to that
//! window schedule: it runs every shard through each hop of one batch
//! together and exchanges the outboxes at every hop boundary, which is how
//! the distributed BSP engine (`ripple-dist`) runs its workers.
//!
//! A single engine is thus one shard with no halos: [`ShardEngine::whole`]
//! wraps one as the shard of a one-part partitioning, whose windows take
//! the single-engine route. Linearity of the aggregators makes sharding
//! exact at quiescence: deltas sum in any window order, and a forwarded
//! delta is the `new − old` of an actual re-evaluation, so once every
//! in-flight message has been applied the union of the shards' owned rows
//! equals the single-engine state (up to float accumulation order) — pinned
//! by the parity tests below, `tests/engine_golden.rs` and
//! `tests/serve_consistency.rs`.

use crate::engine::{Local, RippleConfig, RippleEngine, Route};
use crate::mailbox::MailboxSet;
use crate::message::{DeltaMessage, HaloStubs};
use crate::{Result, RippleError};
use ripple_gnn::recompute::BatchStats;
use ripple_gnn::{EmbeddingStore, GnnModel};
use ripple_graph::partition::Partitioning;
use ripple_graph::{DynamicGraph, GraphUpdate, PartitionId, UpdateBatch, VertexId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shard route: deposits for owned sinks go into the shard's own
/// mailboxes, deposits for foreign sinks into the outbox slot of their
/// owner.
struct ToOwner<'a> {
    partitioning: &'a Partitioning,
    part: PartitionId,
    outbox: &'a mut HaloStubs,
}

impl Route for ToOwner<'_> {
    fn owns(&self, v: VertexId) -> bool {
        self.partitioning.part_of(v) == self.part
    }

    fn deposit(
        &mut self,
        mailboxes: &mut MailboxSet,
        hop: usize,
        target: VertexId,
        coeff: f32,
        delta: &[f32],
    ) {
        let owner = self.partitioning.part_of(target);
        if owner == self.part {
            mailboxes.deposit(hop, target, coeff, delta);
        } else {
            self.outbox.deposit(owner, hop, target, coeff, delta);
        }
    }
}

/// The incremental engine of one shard: owns the halo-restricted topology
/// and is authoritative for the store rows of the vertices its partition
/// owns. Foreign rows exist (same dense id space) but are never read or
/// re-evaluated — they stay at their bootstrap values.
#[derive(Debug, Clone)]
pub struct ShardEngine {
    part: PartitionId,
    partitioning: Arc<Partitioning>,
    /// The incremental engine over the halo-restricted topology, whose CSR
    /// snapshot compacts independently of every other shard's.
    engine: RippleEngine,
    /// Pending outgoing cross-shard deltas, drained at each window boundary.
    outbox: HaloStubs,
    /// The shard's owned vertices, ascending.
    owned: Vec<VertexId>,
}

impl ShardEngine {
    /// Builds the shard engine for partition `part` of `partitioning` from
    /// the full bootstrapped state: the shard graph keeps every vertex (and
    /// its features) but only the edges incident to at least one owned
    /// endpoint; the store starts as a full copy, of which only the owned
    /// rows will be maintained.
    ///
    /// # Errors
    ///
    /// Returns [`RippleError::Mismatch`] if the partitioning does not cover
    /// the graph's vertices, `part` is out of range, or graph/model/store
    /// shapes do not fit together.
    pub fn new(
        full_graph: &DynamicGraph,
        model: GnnModel,
        store: EmbeddingStore,
        config: RippleConfig,
        partitioning: Arc<Partitioning>,
        part: PartitionId,
    ) -> Result<Self> {
        if partitioning.num_vertices() != full_graph.num_vertices() {
            return Err(RippleError::Mismatch(format!(
                "partitioning covers {} vertices, graph has {}",
                partitioning.num_vertices(),
                full_graph.num_vertices()
            )));
        }
        if part.index() >= partitioning.num_parts() {
            return Err(RippleError::Mismatch(format!(
                "shard {part} out of range for {} partitions",
                partitioning.num_parts()
            )));
        }
        let mut graph = DynamicGraph::new(full_graph.num_vertices(), full_graph.feature_dim());
        graph.set_features(full_graph.features().clone())?;
        for (src, dst, weight) in full_graph.iter_edges() {
            if partitioning.part_of(src) == part || partitioning.part_of(dst) == part {
                graph.add_edge(src, dst, weight)?;
            }
        }
        Ok(ShardEngine {
            part,
            engine: RippleEngine::new(graph, model, store, config)?,
            outbox: HaloStubs::new(partitioning.num_parts()),
            owned: partitioning.vertices_in(part),
            partitioning,
        })
    }

    /// Wraps a whole-graph engine as the one shard of a one-part
    /// partitioning. The engine is kept as it is: its graph is not rebuilt,
    /// so its adjacency order, and every replay against it, stay the
    /// engine's own. [`ShardEngine::into_engine`] unwraps it again.
    ///
    /// # Errors
    ///
    /// Propagates a failure to build the one-part partitioning.
    pub fn whole(engine: RippleEngine) -> Result<Self> {
        let n = engine.graph().num_vertices();
        let partitioning = Arc::new(Partitioning::from_assignment(vec![PartitionId(0); n], 1)?);
        Ok(ShardEngine {
            part: PartitionId(0),
            engine,
            outbox: HaloStubs::new(1),
            owned: partitioning.vertices_in(PartitionId(0)),
            partitioning,
        })
    }

    /// The wrapped engine, with everything this shard has applied.
    pub fn into_engine(self) -> RippleEngine {
        self.engine
    }

    /// Splits each hop's frontier across `threads` pool workers (clamped to
    /// at least 1). Results are bit-identical for any thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.engine = self.engine.with_threads(threads);
        self
    }

    /// Number of worker threads used per hop.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Replaces the shard's halo-restricted graph and store with restored
    /// checkpoint state and resumes the topology epoch at `topology_epoch`.
    /// The graph must already be the *shard-local* one (full vertex space,
    /// incident edges only) — checkpoints store it verbatim because edge
    /// replay cannot reproduce `swap_remove` adjacency order. Pending
    /// outgoing halos are discarded: each window's outbox is drained at the
    /// window boundary, and recovery replays whole windows only.
    ///
    /// # Errors
    ///
    /// Returns [`RippleError::Mismatch`] if the restored parts do not fit
    /// the shard's model.
    pub fn restore_state(
        &mut self,
        graph: DynamicGraph,
        store: EmbeddingStore,
        topology_epoch: u64,
    ) -> Result<()> {
        self.engine.restore_state(graph, store, topology_epoch)?;
        self.outbox = HaloStubs::new(self.partitioning.num_parts());
        Ok(())
    }

    /// The partition this shard owns.
    pub fn part(&self) -> PartitionId {
        self.part
    }

    /// The partitioning shared by every shard of the tier.
    pub fn partitioning(&self) -> &Arc<Partitioning> {
        &self.partitioning
    }

    /// The halo-restricted graph (full vertex space, incident edges only).
    pub fn graph(&self) -> &DynamicGraph {
        self.engine.graph()
    }

    /// The model used for inference.
    pub fn model(&self) -> &GnnModel {
        self.engine.model()
    }

    /// The shard store. Only the owned rows are maintained; foreign rows
    /// keep their bootstrap values.
    pub fn store(&self) -> &EmbeddingStore {
        self.engine.store()
    }

    /// The shard topology epoch: how many windows this shard has absorbed.
    pub fn topology_epoch(&self) -> u64 {
        self.engine.topology_epoch()
    }

    /// The owned vertices whose store rows changed in the last processed
    /// window (sorted, deduplicated; empty before the first window).
    pub fn dirty_rows(&self) -> &[VertexId] {
        self.engine.dirty_rows()
    }

    /// Copies this shard's owned rows (all layers and aggregates) into
    /// `target`; `false` on shape mismatch. Gathering every shard into one
    /// store assembles the authoritative global state.
    pub fn gather_into(&self, target: &mut EmbeddingStore) -> bool {
        target.copy_rows_from(self.engine.store(), &self.owned)
    }

    /// Applies one flush window — a coalesced batch of updates routed to
    /// this shard plus the halo deltas received from peers since the last
    /// window — and returns the batch statistics together with the outgoing
    /// cross-shard messages this window produced (in deterministic
    /// partition-major, (hop, target) order).
    ///
    /// Routing contract, checked for the whole window before anything is
    /// mutated (violations are [`RippleError::InvalidUpdate`]): feature
    /// updates target owned vertices only; edge updates have at least one
    /// owned endpoint; halo messages target owned vertices at hops `1..=L`.
    ///
    /// # Errors
    ///
    /// Returns routing violations with the shard untouched; propagates
    /// graph and tensor errors, after which the shard should be considered
    /// poisoned.
    pub fn process_window(
        &mut self,
        batch: &UpdateBatch,
        halos: &[DeltaMessage],
    ) -> Result<(BatchStats, Vec<(PartitionId, DeltaMessage)>)> {
        self.check_routing(batch, halos)?;
        // One part owns every vertex: it takes the single-engine route,
        // which deposits without an owner lookup.
        let stats = if self.partitioning.num_parts() == 1 {
            self.engine.run_batch(batch, halos, &mut Local)?
        } else {
            let (engine, mut route) = self.split();
            engine.run_batch(batch, halos, &mut route)?
        };
        Ok((stats, self.outbox.drain()))
    }

    /// Applies a group of **pairwise footprint-disjoint** windows as one
    /// merged pass of the wrapped engine (see
    /// [`RippleEngine::process_windows`]) and returns the union of the rows
    /// they dirtied. Only a one-part shard merges: it owns every vertex, so
    /// no halo arrives and none leaves.
    ///
    /// # Errors
    ///
    /// Returns [`RippleError::Mismatch`] on a shard of a multi-part
    /// partitioning, with the shard untouched; otherwise as
    /// [`RippleEngine::process_windows`].
    pub fn process_windows(&mut self, windows: &[UpdateBatch]) -> Result<Vec<VertexId>> {
        if self.partitioning.num_parts() != 1 {
            return Err(RippleError::Mismatch(format!(
                "only a one-part shard merges windows, shard {} has {} peers",
                self.part,
                self.partitioning.num_parts() - 1
            )));
        }
        self.engine.process_windows(windows)
    }

    /// Runs one BSP batch across every shard of a partitioning: shard `i`
    /// (which must own partition `i`) applies `windows[i]`, and all shards
    /// go through each hop together. Within a hop every shard first
    /// injects its edge-change contributions; then, sender by sender in
    /// ascending order, each outbox is drained into the receivers'
    /// mailboxes, passing every message to `on_halo(hop, &message)`; then
    /// every shard applies, evaluates and commits. A mailbox thus receives
    /// its owner's own deposits first and one pre-accumulated message per
    /// sender after them, in sender order, so results do not depend on
    /// how the shards are scheduled.
    ///
    /// Returns each shard's statistics and the batch's critical-path
    /// compute time: the slowest shard's update phase plus, for every hop,
    /// the slowest shard's inject and compute time.
    ///
    /// # Errors
    ///
    /// Returns [`RippleError::Mismatch`] if the shards and windows do not
    /// line up with the partitions, and routing violations (see
    /// [`ShardEngine::process_window`]) of any window, with every shard
    /// untouched; propagates graph and tensor errors, after which the shards
    /// should be considered poisoned.
    pub fn process_lockstep(
        shards: &mut [ShardEngine],
        windows: &[UpdateBatch],
        mut on_halo: impl FnMut(usize, &DeltaMessage),
    ) -> Result<(Vec<BatchStats>, Duration)> {
        let aligned = windows.len() == shards.len()
            && shards.iter().enumerate().all(|(i, shard)| {
                shard.part.index() == i
                    && shard.partitioning == shards[0].partitioning
                    && shard.partitioning.num_parts() == shards.len()
            });
        if !aligned {
            return Err(RippleError::Mismatch(format!(
                "lockstep needs one shard per partition in partition order and one window \
                 per shard, got {} shards and {} windows",
                shards.len(),
                windows.len()
            )));
        }
        for (shard, window) in shards.iter().zip(windows) {
            shard.check_routing(window, &[])?;
        }

        let mut runs = Vec::with_capacity(shards.len());
        let mut elapsed = vec![Duration::ZERO; shards.len()];
        for ((shard, window), time) in shards.iter_mut().zip(windows).zip(&mut elapsed) {
            let start = Instant::now();
            let (engine, mut route) = shard.split();
            runs.push(engine.begin_batch(window, &[], &mut route)?);
            *time = start.elapsed();
        }
        let mut critical_path = elapsed.iter().copied().max().unwrap_or_default();

        let num_layers = shards.first().map_or(0, |s| s.model().num_layers());
        for hop in 1..=num_layers {
            for ((shard, run), time) in shards.iter_mut().zip(&mut runs).zip(&mut elapsed) {
                let start = Instant::now();
                let (engine, mut route) = shard.split();
                engine.inject_hop(run, hop, &mut route);
                *time = start.elapsed();
            }
            for sender in 0..shards.len() {
                for (receiver, message) in shards[sender].outbox.drain() {
                    debug_assert_eq!(message.hop, hop, "an outbox only spans one hop");
                    on_halo(hop, &message);
                    let r = receiver.index();
                    shards[r].engine.deposit_halo(&mut runs[r], &message);
                }
            }
            for ((shard, run), time) in shards.iter_mut().zip(&mut runs).zip(&mut elapsed) {
                let start = Instant::now();
                let (engine, mut route) = shard.split();
                engine.compute_hop(run, hop, &mut route)?;
                *time += start.elapsed();
            }
            critical_path += elapsed.iter().copied().max().unwrap_or_default();
        }

        let stats = shards
            .iter_mut()
            .zip(runs)
            .map(|(shard, run)| shard.engine.finish_batch(run))
            .collect();
        Ok((stats, critical_path))
    }

    /// Splits the shard into its engine and the route its deposits take.
    fn split(&mut self) -> (&mut RippleEngine, ToOwner<'_>) {
        let ShardEngine {
            part,
            partitioning,
            engine,
            outbox,
            ..
        } = self;
        let route = ToOwner {
            partitioning,
            part: *part,
            outbox,
        };
        (engine, route)
    }

    /// Checks a window and its halos against the routing contract of
    /// [`ShardEngine::process_window`].
    fn check_routing(&self, batch: &UpdateBatch, halos: &[DeltaMessage]) -> Result<()> {
        let part = self.part;
        let graph = self.engine.graph();
        let owned = |v: VertexId| graph.contains_vertex(v) && self.partitioning.part_of(v) == part;
        for update in batch {
            match update {
                GraphUpdate::UpdateFeature { vertex, .. } => {
                    if !owned(*vertex) {
                        return Err(RippleError::InvalidUpdate(format!(
                            "feature update for {vertex} routed to non-owning shard {part}"
                        )));
                    }
                }
                GraphUpdate::AddEdge { src, dst, .. } | GraphUpdate::DeleteEdge { src, dst } => {
                    if !graph.contains_vertex(*src) || !graph.contains_vertex(*dst) {
                        return Err(RippleError::InvalidUpdate(format!(
                            "edge update {src} -> {dst} with unknown endpoint"
                        )));
                    }
                    if !owned(*src) && !owned(*dst) {
                        return Err(RippleError::InvalidUpdate(format!(
                            "edge {src} -> {dst} routed to shard {part} owning neither endpoint"
                        )));
                    }
                }
            }
        }
        let num_layers = self.engine.model().num_layers();
        for message in halos {
            if message.hop == 0 || message.hop > num_layers {
                return Err(RippleError::InvalidUpdate(format!(
                    "halo delta for {} at hop {} outside 1..={num_layers}",
                    message.target, message.hop
                )));
            }
            if !owned(message.target) {
                return Err(RippleError::InvalidUpdate(format!(
                    "halo delta for foreign vertex {} delivered to shard {part}",
                    message.target
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RippleEngine;
    use ripple_gnn::layer_wise::full_inference;
    use ripple_gnn::Workload;
    use ripple_graph::partition::{HashPartitioner, Partitioner};
    use ripple_graph::stream::{build_stream, StreamConfig};
    use ripple_graph::synth::DatasetSpec;

    fn bootstrap(
        seed: u64,
        layers: usize,
    ) -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<UpdateBatch>) {
        let full = DatasetSpec::custom(150, 5.0, 6, 4).generate(seed).unwrap();
        let plan = build_stream(
            &full,
            &StreamConfig {
                total_updates: 90,
                seed: seed ^ 1,
                ..Default::default()
            },
        )
        .unwrap();
        let model = Workload::GcS
            .build_model(6, 8, 4, layers, seed ^ 2)
            .unwrap();
        let store = full_inference(&plan.snapshot, &model).unwrap();
        let batches = plan.batches(15);
        (plan.snapshot, model, store, batches)
    }

    fn make_shards(
        graph: &DynamicGraph,
        model: &GnnModel,
        store: &EmbeddingStore,
        num_parts: usize,
    ) -> Vec<ShardEngine> {
        let partitioning = Arc::new(HashPartitioner.partition(graph, num_parts).unwrap());
        (0..num_parts)
            .map(|p| {
                ShardEngine::new(
                    graph,
                    model.clone(),
                    store.clone(),
                    RippleConfig::default(),
                    Arc::clone(&partitioning),
                    PartitionId(p as u32),
                )
                .unwrap()
            })
            .collect()
    }

    /// Splits a batch into per-shard sub-batches following the router's
    /// rule, [`Partitioning::update_owners`].
    fn split_batch(batch: &UpdateBatch, partitioning: &Partitioning) -> Vec<Vec<GraphUpdate>> {
        let mut per_shard = vec![Vec::new(); partitioning.num_parts()];
        for update in batch {
            let (first, second) = partitioning.update_owners(update);
            for part in std::iter::once(first).chain(second) {
                per_shard[part.index()].push(update.clone());
            }
        }
        per_shard
    }

    /// Processes one batch across every shard, then pumps halo messages
    /// until the mesh quiesces.
    fn process_and_quiesce(shards: &mut [ShardEngine], batch: &UpdateBatch) {
        let partitioning = Arc::clone(shards[0].partitioning());
        let per_shard = split_batch(batch, &partitioning);
        let mut pending: Vec<Vec<DeltaMessage>> = vec![Vec::new(); shards.len()];
        for (shard, updates) in shards.iter_mut().zip(per_shard) {
            let (_, out) = shard
                .process_window(&UpdateBatch::from_updates(updates), &[])
                .unwrap();
            for (p, m) in out {
                pending[p.index()].push(m);
            }
        }
        // Messages only ever move to strictly higher hops, so this drains
        // within num_layers rounds.
        while pending.iter().any(|p| !p.is_empty()) {
            let mut next: Vec<Vec<DeltaMessage>> = vec![Vec::new(); shards.len()];
            for (i, shard) in shards.iter_mut().enumerate() {
                let halos = std::mem::take(&mut pending[i]);
                if halos.is_empty() {
                    continue;
                }
                let (_, out) = shard
                    .process_window(&UpdateBatch::from_updates(Vec::new()), &halos)
                    .unwrap();
                for (p, m) in out {
                    next[p.index()].push(m);
                }
            }
            pending = next;
        }
    }

    fn gather(shards: &[ShardEngine]) -> EmbeddingStore {
        let mut global = shards[0].store().clone();
        for shard in &shards[1..] {
            assert!(shard.gather_into(&mut global), "shard store shapes agree");
        }
        global
    }

    fn sharded_matches_serial(num_parts: usize, layers: usize, seed: u64) {
        let (graph, model, store, batches) = bootstrap(seed, layers);
        let mut serial = RippleEngine::new(
            graph.clone(),
            model.clone(),
            store.clone(),
            RippleConfig::default(),
        )
        .unwrap();
        let mut shards = make_shards(&graph, &model, &store, num_parts);
        for batch in &batches {
            serial.process_batch(batch).unwrap();
            process_and_quiesce(&mut shards, batch);
        }
        let gathered = gather(&shards);
        let diff = gathered.max_diff_all_layers(serial.store()).unwrap();
        assert!(
            diff < 2e-3,
            "{num_parts}-shard gathered state drifted from serial engine: {diff}"
        );
        // Edge counts add up: every edge lives on 1 or 2 shards, cut edges
        // on exactly 2.
        let partitioning = Arc::clone(shards[0].partitioning());
        let cut = partitioning.edge_cut(serial.graph());
        let shard_edges: usize = shards.iter().map(|s| s.graph().num_edges()).sum();
        assert_eq!(shard_edges, serial.graph().num_edges() + cut);
    }

    #[test]
    fn two_shards_match_serial_engine_at_quiescence() {
        sharded_matches_serial(2, 2, 3);
    }

    #[test]
    fn four_shards_match_serial_engine_at_quiescence() {
        sharded_matches_serial(4, 2, 5);
    }

    #[test]
    fn three_layer_model_quiesces_and_matches() {
        sharded_matches_serial(2, 3, 7);
    }

    #[test]
    fn misrouted_updates_are_rejected() {
        let (graph, model, store, _) = bootstrap(11, 2);
        let mut shards = make_shards(&graph, &model, &store, 2);
        let partitioning = Arc::clone(shards[0].partitioning());
        // A vertex owned by shard 1, submitted to shard 0.
        let foreign = (0..graph.num_vertices() as u32)
            .map(VertexId)
            .find(|v| partitioning.part_of(*v) == PartitionId(1))
            .unwrap();
        let batch =
            UpdateBatch::from_updates(vec![GraphUpdate::update_feature(foreign, vec![0.0; 6])]);
        assert!(shards[0].process_window(&batch, &[]).is_err());
        // A halo for a foreign vertex is rejected too.
        let halo = DeltaMessage::new(foreign, 1, vec![0.0; 6]);
        assert!(shards[0]
            .process_window(&UpdateBatch::from_updates(Vec::new()), &[halo])
            .is_err());
        // As is a halo at an out-of-range hop.
        let owned = shards[1].owned[0];
        let bad_hop = DeltaMessage::new(owned, 9, vec![0.0; 6]);
        assert!(shards[1]
            .process_window(&UpdateBatch::from_updates(Vec::new()), &[bad_hop])
            .is_err());
    }

    #[test]
    fn misrouted_window_is_rejected_before_anything_changes() {
        let (graph, model, store, _) = bootstrap(19, 2);
        let mut shards = make_shards(&graph, &model, &store, 2);
        let partitioning = Arc::clone(shards[0].partitioning());
        let owned_by = |p: u32| {
            (0..graph.num_vertices() as u32)
                .map(VertexId)
                .find(|v| partitioning.part_of(*v) == PartitionId(p))
                .unwrap()
        };
        // A valid first update, then one for a vertex shard 0 does not own.
        let window = UpdateBatch::from_updates(vec![
            GraphUpdate::update_feature(owned_by(0), vec![0.5; 6]),
            GraphUpdate::update_feature(owned_by(1), vec![0.5; 6]),
        ]);
        let shard = &mut shards[0];
        let store_before = shard.store().clone();
        let graph_before = shard.graph().clone();
        let epoch_before = shard.topology_epoch();
        assert!(matches!(
            shard.process_window(&window, &[]),
            Err(RippleError::InvalidUpdate(_))
        ));
        assert!(shard.store() == &store_before, "store mutated");
        assert!(shard.graph() == &graph_before, "graph mutated");
        assert_eq!(shard.topology_epoch(), epoch_before);
    }

    #[test]
    fn lockstep_rejects_misaligned_or_misrouted_input_before_anything_changes() {
        let (graph, model, store, batches) = bootstrap(23, 2);
        let mut shards = make_shards(&graph, &model, &store, 2);
        let partitioning = Arc::clone(shards[0].partitioning());
        let windows: Vec<UpdateBatch> = split_batch(&batches[0], &partitioning)
            .into_iter()
            .map(UpdateBatch::from_updates)
            .collect();
        let before: Vec<EmbeddingStore> = shards.iter().map(|s| s.store().clone()).collect();
        let lockstep = |shards: &mut [ShardEngine], windows: &[UpdateBatch]| {
            ShardEngine::process_lockstep(shards, windows, |_, _| {}).map(|_| ())
        };
        assert!(matches!(
            lockstep(&mut shards, &windows[..1]),
            Err(RippleError::Mismatch(_))
        ));
        shards.swap(0, 1);
        assert!(matches!(
            lockstep(&mut shards, &windows),
            Err(RippleError::Mismatch(_))
        ));
        shards.swap(0, 1);
        // Shard 0's window holds updates shard 1 owns no endpoint of.
        let misrouted = [windows[0].clone(), windows[0].clone()];
        assert!(matches!(
            lockstep(&mut shards, &misrouted),
            Err(RippleError::InvalidUpdate(_))
        ));
        assert!(
            shards
                .iter()
                .zip(&before)
                .all(|(s, b)| s.store() == b && s.topology_epoch() == 0),
            "a rejected batch mutated a shard"
        );

        let mut halos = 0;
        let (stats, _) =
            ShardEngine::process_lockstep(&mut shards, &windows, |_, _| halos += 1).unwrap();
        assert_eq!(stats.len(), 2);
        assert!(halos > 0, "a hash-split batch crosses shards");
        assert!(shards.iter().all(|s| s.topology_epoch() == 1));
    }

    #[test]
    fn constructor_validates_partitioning_shape() {
        let (graph, model, store, _) = bootstrap(13, 2);
        let small = DatasetSpec::custom(50, 3.0, 6, 4).generate(1).unwrap();
        let wrong = Arc::new(HashPartitioner.partition(&small, 2).unwrap());
        assert!(ShardEngine::new(
            &graph,
            model.clone(),
            store.clone(),
            RippleConfig::default(),
            wrong,
            PartitionId(0),
        )
        .is_err());
        let partitioning = Arc::new(HashPartitioner.partition(&graph, 2).unwrap());
        assert!(ShardEngine::new(
            &graph,
            model,
            store,
            RippleConfig::default(),
            partitioning,
            PartitionId(7),
        )
        .is_err());
    }

    #[test]
    fn a_whole_engine_is_one_shard_with_no_halos() {
        let (graph, model, store, batches) = bootstrap(29, 2);
        let engine = || {
            RippleEngine::new(
                graph.clone(),
                model.clone(),
                store.clone(),
                RippleConfig::default(),
            )
            .unwrap()
        };
        let mut serial = engine();
        let mut whole = ShardEngine::whole(engine()).unwrap();
        assert_eq!(whole.partitioning().num_parts(), 1);
        for batch in &batches {
            serial.process_batch(batch).unwrap();
            let (_, outgoing) = whole.process_window(batch, &[]).unwrap();
            assert!(outgoing.is_empty(), "one part ships no halo");
            assert_eq!(whole.dirty_rows(), serial.dirty_rows());
        }
        let whole = whole.into_engine();
        assert!(
            whole.store() == serial.store(),
            "stores must be bit-identical"
        );
        assert!(whole.graph() == serial.graph());
        assert_eq!(whole.topology_epoch(), serial.topology_epoch());

        // Only a one-part shard merges windows.
        let mut shards = make_shards(&graph, &model, &store, 2);
        assert!(matches!(
            shards[0].process_windows(&batches[..1]),
            Err(RippleError::Mismatch(_))
        ));
        assert_eq!(shards[0].topology_epoch(), 0);
    }

    #[test]
    fn dirty_rows_are_owned_sorted_and_reset_per_window() {
        let (graph, model, store, batches) = bootstrap(17, 2);
        let mut shards = make_shards(&graph, &model, &store, 2);
        process_and_quiesce(&mut shards, &batches[0]);
        for shard in &shards {
            let dirty = shard.dirty_rows();
            assert!(dirty.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
        }
    }
}
