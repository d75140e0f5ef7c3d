//! The distributed (BSP) incremental engine.
//!
//! One superstep per GNN hop. During a compute phase each worker processes
//! the affected vertices *it owns*: it applies its mailboxes, re-evaluates
//! the layer, and produces delta messages for the out-neighbours of every
//! changed vertex. Messages to locally owned sinks go straight into the next
//! hop's mailbox; messages to remote sinks are pre-accumulated in per-target
//! **halo stubs** (the outgoing-halo machinery of
//! [`ripple_graph::partition::halo`]) and shipped at the next superstep
//! boundary as one [`ripple_core::DeltaMessage`] per (worker, target) pair. Linearity of
//! the aggregators makes stub pre-accumulation lossless, which is why the
//! distributed result matches the single-machine engine.

use crate::network::{CommStats, NetworkModel};
use crate::stats::DistBatchStats;
use crate::worker::{gather_store, group_by_part, validate_shapes};
use crate::{DistError, Result};
use ripple_core::{evaluate_frontier_into, HaloStubs, MailboxSet, Scratch, WorkerPool};
use ripple_gnn::{EmbeddingStore, GnnModel};
use ripple_graph::partition::Partitioning;
use ripple_graph::{
    CsrSnapshot, DynamicGraph, GraphUpdate, GraphView, PartitionId, UpdateBatch, VertexId,
};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// One topology change of the current batch, recorded so its per-hop
/// aggregate contributions can be injected during propagation (see the
/// single-machine engine for the exactness argument).
#[derive(Debug, Clone)]
struct EdgeChange {
    source: VertexId,
    sink: VertexId,
    /// +1 for addition, -1 for deletion.
    sign: f32,
    /// Aggregator edge coefficient of the changed edge.
    coeff: f32,
}

/// Routes delta messages between workers during one batch.
///
/// Owns the per-hop mailboxes plus the outgoing halo stubs of every worker:
/// a deposit whose target lives on the sending worker goes straight into the
/// mailbox, anything else is pre-accumulated in the sender's per-target stub
/// until the next superstep boundary ships it as one [`ripple_core::DeltaMessage`] per
/// (worker, target) pair. Stubs are kept ordered and workers process their
/// vertices in sorted order, so float accumulation — and therefore a whole
/// run — is reproducible.
struct MessageRouter<'a> {
    partitioning: &'a Partitioning,
    /// The engine's per-hop mailboxes, cleared for this batch.
    mailboxes: &'a mut MailboxSet,
    /// Outgoing halo stubs, one slot per **sending** worker (the shared
    /// [`HaloStubs`] pool also backs the threaded serving tier, where slots
    /// index the receiver instead).
    stubs: HaloStubs,
}

impl<'a> MessageRouter<'a> {
    fn new(partitioning: &'a Partitioning, mailboxes: &'a mut MailboxSet) -> Self {
        mailboxes.clear();
        MessageRouter {
            partitioning,
            mailboxes,
            stubs: HaloStubs::new(partitioning.num_parts()),
        }
    }

    /// Deposits `coeff * delta` for `target`'s hop-`hop` mailbox on behalf of
    /// worker `source_part`.
    fn deposit(
        &mut self,
        hop: usize,
        source_part: usize,
        target: VertexId,
        coeff: f32,
        delta: &[f32],
    ) {
        if self.partitioning.part_of(target).index() == source_part {
            self.mailboxes.deposit(hop, target, coeff, delta);
        } else {
            self.stubs
                .deposit(PartitionId(source_part as u32), hop, target, coeff, delta);
        }
    }

    /// Superstep boundary: ships every pending halo stub as a
    /// [`ripple_core::DeltaMessage`] for `hop`, depositing it into the receiving workers'
    /// mailboxes and charging the ledger. Returns the bytes put on the wire.
    fn flush(&mut self, hop: usize, comm: &mut CommStats) -> usize {
        let mut superstep_bytes = 0usize;
        for part in 0..self.stubs.num_parts() {
            for message in self.stubs.drain_part(PartitionId(part as u32)) {
                debug_assert_eq!(message.hop, hop, "stubs only span one superstep");
                let wire = message.wire_bytes();
                comm.record_halo_message(wire);
                superstep_bytes += wire;
                self.mailboxes.deposit_message(&message);
            }
        }
        superstep_bytes
    }
}

/// The distributed incremental (Ripple) engine.
///
/// Workers execute in one process against per-worker embedding stores; the
/// topology is replicated (DistDGL-style halo replication makes every
/// worker's local topology complete, so one shared copy simulates all
/// replicas) and everything crossing a partition boundary is charged to the
/// [`NetworkModel`].
#[derive(Debug, Clone)]
pub struct DistRippleEngine {
    graph: DynamicGraph,
    model: GnnModel,
    partitioning: Partitioning,
    network: NetworkModel,
    stores: Vec<EmbeddingStore>,
    pool: WorkerPool,
    /// Persistent epoch-versioned CSR snapshot of the replicated topology
    /// (DistDGL-style halo replication makes every worker's local topology
    /// complete, so one snapshot simulates all replicas). The update
    /// operator keeps it in lockstep with `graph`; every worker's compute
    /// phase and message fanout stream its contiguous rows.
    topo: CsrSnapshot,
    /// One persistent scratch arena per pool worker, shared across the
    /// simulated workers' compute phases (they run one after another in this
    /// simulation); steady-state frontier evaluation is allocation-free.
    scratches: Vec<Scratch>,
    /// The per-hop mailboxes of every worker (a target's mail only ever
    /// lands in its owner's), kept for the engine's life and cleared at the
    /// start of every batch.
    mailboxes: MailboxSet,
    /// Reusable buffer for the per-vertex output delta of the commit phase.
    commit_delta: Vec<f32>,
}

impl DistRippleEngine {
    /// Creates a distributed engine from bootstrapped single-machine state.
    ///
    /// Every worker starts from a copy of the bootstrap store but is
    /// authoritative only for the rows of the vertices it owns.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Mismatch`] if graph, model, store and
    /// partitioning shapes do not fit together.
    pub fn new(
        graph: &DynamicGraph,
        model: GnnModel,
        store: &EmbeddingStore,
        partitioning: Partitioning,
        network: NetworkModel,
    ) -> Result<Self> {
        validate_shapes(graph, &model, store, &partitioning)?;
        let stores = vec![store.clone(); partitioning.num_parts()];
        Ok(DistRippleEngine {
            graph: graph.clone(),
            partitioning,
            network,
            stores,
            pool: WorkerPool::default(),
            topo: CsrSnapshot::from_dynamic(graph),
            scratches: vec![Scratch::new()],
            mailboxes: MailboxSet::new(model.num_layers()),
            commit_delta: Vec::new(),
            model,
        })
    }

    /// Enables intra-worker parallelism: each simulated worker shards its
    /// per-superstep frontier across `threads` pool workers (clamped to at
    /// least 1). Results are bit-identical for any thread count — the
    /// per-part commit replays in the same sorted vertex order either way.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = WorkerPool::new(threads);
        self.scratches = vec![Scratch::new(); self.pool.threads()];
        self
    }

    /// Number of pool threads each simulated worker uses during a superstep.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Number of workers.
    pub fn num_parts(&self) -> usize {
        self.partitioning.num_parts()
    }

    /// The replicated topology (reflecting every processed batch).
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The engine's persistent topology snapshot (in lockstep with
    /// [`DistRippleEngine::graph`]).
    pub fn topology(&self) -> &CsrSnapshot {
        &self.topo
    }

    /// The topology epoch: how many update batches the snapshot has
    /// absorbed.
    pub fn topology_epoch(&self) -> u64 {
        self.topo.epoch()
    }

    /// The model used for inference.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// The vertex-to-worker assignment.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The interconnect cost model.
    pub fn network(&self) -> NetworkModel {
        self.network
    }

    /// Assembles the authoritative rows of every worker into one store.
    pub fn gather_store(&self) -> EmbeddingStore {
        gather_store(&self.stores, &self.partitioning)
    }

    /// Applies a batch of updates across all workers and incrementally
    /// refreshes every affected embedding, one BSP superstep per hop.
    ///
    /// # Errors
    ///
    /// Propagates graph and tensor errors; the engine should be considered
    /// poisoned after an error.
    pub fn process_batch(&mut self, batch: &UpdateBatch) -> Result<DistBatchStats> {
        let DistRippleEngine {
            graph,
            model,
            partitioning,
            network,
            stores,
            pool,
            topo,
            scratches,
            mailboxes,
            commit_delta,
        } = self;
        let num_layers = model.num_layers();
        let num_parts = partitioning.num_parts();
        let aggregator = model.aggregator();

        let mut router = MessageRouter::new(partitioning, mailboxes);
        let mut stats = DistBatchStats {
            batch_size: batch.len(),
            ..DistBatchStats::default()
        };

        // --------------------------------------------------------------
        // Superstep 0 — broadcast the batch to every topology replica and
        // run the `update` operator (sequential over the batch, exactly as
        // on a single machine, so interleaved updates never double-count).
        // --------------------------------------------------------------
        stats
            .comm
            .record_update_broadcast(num_parts - 1, batch.wire_bytes());
        stats.comm_time += network.transfer_time(stats.comm.update_bytes);

        let update_start = Instant::now();
        let mut source_snapshots: HashMap<VertexId, Vec<Vec<f32>>> = HashMap::new();
        let mut edge_changes: Vec<EdgeChange> = Vec::new();
        let mut changed_prev: HashSet<VertexId> = HashSet::new();

        for update in batch {
            match update {
                GraphUpdate::UpdateFeature { vertex, features } => {
                    if !graph.contains_vertex(*vertex) {
                        return Err(DistError::InvalidUpdate(format!(
                            "feature update for unknown vertex {vertex}"
                        )));
                    }
                    let owner = partitioning.part_of(*vertex).index();
                    let delta: Vec<f32> = features
                        .iter()
                        .zip(stores[owner].embedding(0, *vertex).iter())
                        .map(|(n, o)| n - o)
                        .collect();
                    let (sinks, weights) = GraphView::out_adjacency(topo, *vertex);
                    for (&w, &weight) in sinks.iter().zip(weights.iter()) {
                        router.deposit(1, owner, w, aggregator.edge_coefficient(weight), &delta);
                    }
                    graph.set_feature(*vertex, features)?;
                    stores[owner].set_embedding(0, *vertex, features)?;
                    changed_prev.insert(*vertex);
                }
                GraphUpdate::AddEdge { src, dst, weight } => {
                    snapshot_source(stores, partitioning, model, &mut source_snapshots, *src);
                    graph.add_edge(*src, *dst, *weight)?;
                    topo.add_edge(*src, *dst, *weight)
                        .expect("topology snapshot out of sync with graph");
                    let owner = partitioning.part_of(*src).index();
                    let coeff = aggregator.edge_coefficient(*weight);
                    router.deposit(1, owner, *dst, coeff, stores[owner].embedding(0, *src));
                    edge_changes.push(EdgeChange {
                        source: *src,
                        sink: *dst,
                        sign: 1.0,
                        coeff,
                    });
                }
                GraphUpdate::DeleteEdge { src, dst } => {
                    let weight = graph.edge_weight(*src, *dst).ok_or_else(|| {
                        DistError::InvalidUpdate(format!("deleting missing edge {src} -> {dst}"))
                    })?;
                    snapshot_source(stores, partitioning, model, &mut source_snapshots, *src);
                    graph.remove_edge(*src, *dst)?;
                    topo.remove_edge(*src, *dst)
                        .expect("topology snapshot out of sync with graph");
                    let owner = partitioning.part_of(*src).index();
                    let coeff = aggregator.edge_coefficient(weight);
                    router.deposit(1, owner, *dst, -coeff, stores[owner].embedding(0, *src));
                    edge_changes.push(EdgeChange {
                        source: *src,
                        sink: *dst,
                        sign: -1.0,
                        coeff,
                    });
                }
            }
        }
        stats.compute_time += update_start.elapsed();

        // --------------------------------------------------------------
        // Supersteps 1..=L — the `propagate` operator, hop by hop.
        // --------------------------------------------------------------
        for hop in 1..=num_layers {
            stats.supersteps += 1;

            // Inject the per-hop contribution of topology changes (hop 1 was
            // handled sequentially above). The delta is built from the
            // source's pre-batch embedding held by the source's owner, and
            // routed to the sink's owner like any other message.
            if hop >= 2 {
                for change in &edge_changes {
                    let owner = partitioning.part_of(change.source).index();
                    let pre_batch = &source_snapshots[&change.source][hop - 2];
                    router.deposit(
                        hop,
                        owner,
                        change.sink,
                        change.sign * change.coeff,
                        pre_batch,
                    );
                }
            }

            // Communication phase: ship all pending halo stubs for this hop.
            let superstep_bytes = router.flush(hop, &mut stats.comm);
            stats.comm_time += network.transfer_time(superstep_bytes);

            // Compute phase: each worker applies mailboxes and re-evaluates
            // the layer for the affected vertices it owns. Workers run
            // concurrently in a real deployment, so the phase costs as much
            // as its slowest worker.
            let layer = model.layer(hop)?;
            let mail = router.mailboxes.hop(hop);
            let mut affected: HashSet<VertexId> = mail.targets().iter().copied().collect();
            if layer.depends_on_self() {
                affected.extend(changed_prev.iter().copied());
            }
            if hop == num_layers {
                stats.affected_final = affected.len();
            }
            let by_part = group_by_part(affected, partitioning);

            // Apply phase: every worker folds the deltas addressed to its
            // vertices into its store in place. All parts apply before any
            // commits: each target row gets exactly one add either way, and
            // the commits below deposit into the next hop only.
            let mut apply_time = vec![Duration::ZERO; num_parts];
            for ((part, vertices), time) in by_part.iter().enumerate().zip(&mut apply_time) {
                let apply_start = Instant::now();
                for &v in vertices {
                    if let Some(delta) = mail.get(v) {
                        ripple_tensor::add_assign(stores[part].aggregate_mut(hop, v), delta);
                    }
                }
                *time = apply_start.elapsed();
            }

            let mut changed_now: HashSet<VertexId> = HashSet::new();
            let mut slowest_worker = Duration::ZERO;
            for (part, vertices) in by_part.iter().enumerate() {
                if vertices.is_empty() {
                    continue;
                }
                let worker_start = Instant::now();

                // The compute phase runs intra-worker parallel: pool workers
                // re-evaluate disjoint contiguous shards of the frontier into
                // their own scratch arenas (allocation-free once warm)
                // without writing the store.
                let ranges = evaluate_frontier_into(
                    pool,
                    &*topo,
                    model,
                    &stores[part],
                    hop,
                    vertices,
                    scratches,
                )?;

                // Commit block after block in sorted vertex order (identical
                // to the inline order), writing back and routing next-hop
                // messages.
                for (scratch, range) in scratches.iter().zip(ranges) {
                    for (&v, new_embedding) in vertices[range].iter().zip(scratch.out.iter_rows()) {
                        commit_delta.clear();
                        commit_delta.extend(
                            new_embedding
                                .iter()
                                .zip(stores[part].embedding(hop, v).iter())
                                .map(|(n, o)| n - o),
                        );
                        stores[part].set_embedding(hop, v, new_embedding)?;
                        changed_now.insert(v);

                        // Forward messages to the next hop's mailboxes,
                        // streaming the snapshot's contiguous out-rows.
                        if hop < num_layers {
                            let (sinks, weights) = GraphView::out_adjacency(&*topo, v);
                            for (&w, &weight) in sinks.iter().zip(weights.iter()) {
                                router.deposit(
                                    hop + 1,
                                    part,
                                    w,
                                    aggregator.edge_coefficient(weight),
                                    commit_delta,
                                );
                            }
                        }
                    }
                }
                slowest_worker = slowest_worker.max(apply_time[part] + worker_start.elapsed());
            }
            stats.compute_time += slowest_worker;
            changed_prev = changed_now;
        }

        // Batch absorbed: bump the topology epoch and compact if due.
        topo.advance_epoch();
        topo.maybe_compact();
        Ok(stats)
    }
}

/// Captures the pre-batch embeddings (layers 1..L-1) of an edge-update source
/// vertex from its owner's store, once per batch.
fn snapshot_source(
    stores: &[EmbeddingStore],
    partitioning: &Partitioning,
    model: &GnnModel,
    snapshots: &mut HashMap<VertexId, Vec<Vec<f32>>>,
    source: VertexId,
) {
    if snapshots.contains_key(&source) {
        return;
    }
    let owner = partitioning.part_of(source).index();
    let upto = model.num_layers().saturating_sub(1);
    let mut layers = Vec::with_capacity(upto);
    for l in 1..=upto {
        layers.push(stores[owner].embedding(l, source).to_vec());
    }
    snapshots.insert(source, layers);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_core::{RippleConfig, RippleEngine};
    use ripple_gnn::layer_wise::full_inference;
    use ripple_gnn::Workload;
    use ripple_graph::partition::halo::HaloInfo;
    use ripple_graph::partition::{LdgPartitioner, Partitioner};
    use ripple_graph::stream::{build_stream, StreamConfig};
    use ripple_graph::synth::DatasetSpec;

    fn bootstrap(
        workload: Workload,
        layers: usize,
        seed: u64,
    ) -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<UpdateBatch>) {
        let full = DatasetSpec::custom(160, 5.0, 6, 4)
            .generate_weighted(seed, workload.needs_edge_weights())
            .unwrap();
        let plan = build_stream(
            &full,
            &StreamConfig {
                total_updates: 60,
                seed: seed ^ 1,
                ..Default::default()
            },
        )
        .unwrap();
        let model = workload.build_model(6, 8, 4, layers, seed ^ 2).unwrap();
        let store = full_inference(&plan.snapshot, &model).unwrap();
        let batches = plan.batches(12);
        (plan.snapshot, model, store, batches)
    }

    #[test]
    fn distributed_matches_single_machine_for_sum_and_mean() {
        for (workload, layers) in [(Workload::GcS, 2), (Workload::GcM, 3), (Workload::GsS, 2)] {
            let (snapshot, model, store, batches) = bootstrap(workload, layers, 7);
            let partitioning = LdgPartitioner::new().partition(&snapshot, 4).unwrap();
            let mut dist = DistRippleEngine::new(
                &snapshot,
                model.clone(),
                &store,
                partitioning,
                NetworkModel::ten_gbe(),
            )
            .unwrap();
            let mut single =
                RippleEngine::new(snapshot, model, store, RippleConfig::default()).unwrap();
            for batch in &batches {
                dist.process_batch(batch).unwrap();
                single.process_batch(batch).unwrap();
            }
            let diff = dist
                .gather_store()
                .max_diff_all_layers(single.store())
                .unwrap();
            assert!(diff < 2e-3, "{workload}: diff {diff}");
        }
    }

    #[test]
    fn intra_worker_threads_are_bit_identical_and_charge_same_bytes() {
        let (snapshot, model, store, batches) = bootstrap(Workload::GcS, 2, 23);
        let partitioning = LdgPartitioner::new().partition(&snapshot, 3).unwrap();
        let mut serial = DistRippleEngine::new(
            &snapshot,
            model.clone(),
            &store,
            partitioning.clone(),
            NetworkModel::ten_gbe(),
        )
        .unwrap();
        assert_eq!(serial.threads(), 1);
        let mut threaded = DistRippleEngine::new(
            &snapshot,
            model,
            &store,
            partitioning,
            NetworkModel::ten_gbe(),
        )
        .unwrap()
        .with_threads(4);
        assert_eq!(threaded.threads(), 4);
        for batch in &batches {
            let a = serial.process_batch(batch).unwrap();
            let b = threaded.process_batch(batch).unwrap();
            assert_eq!(a.comm.bytes, b.comm.bytes);
            assert_eq!(a.comm.messages, b.comm.messages);
            assert_eq!(a.affected_final, b.affected_final);
        }
        assert!(serial.gather_store() == threaded.gather_store());
    }

    #[test]
    fn empty_batch_moves_zero_bytes() {
        let (snapshot, model, store, _) = bootstrap(Workload::GcS, 2, 11);
        let partitioning = LdgPartitioner::new().partition(&snapshot, 4).unwrap();
        let mut engine = DistRippleEngine::new(
            &snapshot,
            model,
            &store,
            partitioning,
            NetworkModel::ten_gbe(),
        )
        .unwrap();
        let stats = engine.process_batch(&UpdateBatch::new()).unwrap();
        assert_eq!(stats.comm.bytes, 0);
        assert_eq!(stats.comm.messages, 0);
        assert_eq!(stats.comm_time, Duration::ZERO);
        assert_eq!(stats.affected_final, 0);
        assert_eq!(stats.batch_size, 0);
    }

    #[test]
    fn single_partition_never_communicates() {
        let (snapshot, model, store, batches) = bootstrap(Workload::GcS, 2, 13);
        let partitioning = LdgPartitioner::new().partition(&snapshot, 1).unwrap();
        let mut engine = DistRippleEngine::new(
            &snapshot,
            model,
            &store,
            partitioning,
            NetworkModel::ten_gbe(),
        )
        .unwrap();
        for batch in &batches {
            let stats = engine.process_batch(batch).unwrap();
            assert_eq!(stats.comm.bytes, 0, "one worker has nobody to talk to");
        }
    }

    #[test]
    fn halo_bytes_scale_with_halo_size() {
        // A directed path 0 -> 1 -> ... -> 7. Splitting it in the middle cuts
        // one edge; interleaving even/odd vertices cuts every edge.
        let mut graph = DynamicGraph::new(8, 2);
        for v in 0..7u32 {
            graph.add_edge(VertexId(v), VertexId(v + 1), 1.0).unwrap();
        }
        let model = Workload::GcS.build_model(2, 4, 2, 2, 3).unwrap();
        let store = full_inference(&graph, &model).unwrap();
        let contiguous = Partitioning::from_assignment(
            (0..8).map(|v| PartitionId(u32::from(v >= 4))).collect(),
            2,
        )
        .unwrap();
        let interleaved =
            Partitioning::from_assignment((0..8u32).map(|v| PartitionId(v % 2)).collect(), 2)
                .unwrap();
        assert!(
            HaloInfo::compute(&graph, &interleaved).total_halo_replicas()
                > HaloInfo::compute(&graph, &contiguous).total_halo_replicas()
        );

        let batch = UpdateBatch::from_updates(vec![GraphUpdate::update_feature(
            VertexId(0),
            vec![1.0, -1.0],
        )]);
        let mut bytes = Vec::new();
        for partitioning in [contiguous, interleaved] {
            let mut engine = DistRippleEngine::new(
                &graph,
                model.clone(),
                &store,
                partitioning,
                NetworkModel::ten_gbe(),
            )
            .unwrap();
            bytes.push(engine.process_batch(&batch).unwrap().comm.halo_bytes);
        }
        assert!(
            bytes[1] > bytes[0],
            "larger halo must move more bytes: contiguous {} vs interleaved {}",
            bytes[0],
            bytes[1]
        );
    }

    #[test]
    fn topology_snapshot_tracks_the_replicated_graph() {
        let (snapshot, model, store, batches) = bootstrap(Workload::GcS, 2, 29);
        let partitioning = LdgPartitioner::new().partition(&snapshot, 3).unwrap();
        let mut engine = DistRippleEngine::new(
            &snapshot,
            model,
            &store,
            partitioning,
            NetworkModel::ten_gbe(),
        )
        .unwrap();
        assert_eq!(engine.topology_epoch(), 0);
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
            assert_eq!(topo.out_neighbors(vid), graph.out_neighbors(vid));
        }
    }

    #[test]
    fn constructor_validates_shapes() {
        let (snapshot, model, store, _) = bootstrap(Workload::GcS, 2, 17);
        let partitioning = LdgPartitioner::new().partition(&snapshot, 4).unwrap();
        let wrong_model = Workload::GcS.build_model(6, 8, 4, 3, 0).unwrap();
        assert!(DistRippleEngine::new(
            &snapshot,
            wrong_model,
            &store,
            partitioning.clone(),
            NetworkModel::ten_gbe(),
        )
        .is_err());
        let small = EmbeddingStore::zeroed(&model, 10);
        assert!(DistRippleEngine::new(
            &snapshot,
            model,
            &small,
            partitioning,
            NetworkModel::ten_gbe(),
        )
        .is_err());
    }

    #[test]
    fn invalid_updates_are_reported() {
        let (snapshot, model, store, _) = bootstrap(Workload::GcS, 2, 19);
        let n = snapshot.num_vertices() as u32;
        let partitioning = LdgPartitioner::new().partition(&snapshot, 2).unwrap();
        let mut engine = DistRippleEngine::new(
            &snapshot,
            model,
            &store,
            partitioning,
            NetworkModel::ten_gbe(),
        )
        .unwrap();
        let bad = UpdateBatch::from_updates(vec![GraphUpdate::update_feature(
            VertexId(n + 3),
            vec![0.0; 6],
        )]);
        assert!(engine.process_batch(&bad).is_err());
    }
}
