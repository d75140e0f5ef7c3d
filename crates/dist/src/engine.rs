//! The distributed (BSP) incremental engine.
//!
//! Each worker is a [`ShardEngine`]: it owns one partition, keeps the
//! halo-restricted topology (every edge with at least one owned endpoint)
//! and runs the single-machine engine's update operator and hop loop. One
//! BSP superstep per GNN hop runs all workers in lockstep through
//! [`ShardEngine::process_lockstep`]: every worker injects and commits into
//! its own mailboxes for locally owned sinks and pre-accumulates deltas for
//! remote sinks in per-target **halo stubs** (its [`ripple_core::HaloStubs`]
//! outbox), which the superstep boundary ships as one
//! [`ripple_core::DeltaMessage`] per (worker, target) pair. Linearity of
//! the aggregators makes stub pre-accumulation lossless, which is why the
//! distributed result matches the single-machine engine. This module only
//! splits batches by owner, charges the wire and gathers the workers'
//! stores.

use crate::network::NetworkModel;
use crate::stats::DistBatchStats;
use crate::worker::validate_shapes;
use crate::Result;
use ripple_core::{RippleConfig, ShardEngine};
use ripple_gnn::{EmbeddingStore, GnnModel};
use ripple_graph::partition::Partitioning;
use ripple_graph::{DynamicGraph, PartitionId, UpdateBatch};
use std::sync::Arc;

/// The distributed incremental (Ripple) engine.
///
/// Workers execute in one process, each a [`ShardEngine`] with its own
/// halo-restricted graph, CSR snapshot and embedding store (authoritative
/// only for the rows of the vertices it owns); everything crossing a
/// partition boundary is charged to the [`NetworkModel`].
#[derive(Debug, Clone)]
pub struct DistRippleEngine {
    workers: Vec<ShardEngine>,
    partitioning: Arc<Partitioning>,
    network: NetworkModel,
}

impl DistRippleEngine {
    /// Creates a distributed engine from bootstrapped single-machine state.
    ///
    /// Every worker starts from a copy of the bootstrap store but is
    /// authoritative only for the rows of the vertices it owns.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DistError::Mismatch`] if graph, model, store and
    /// partitioning shapes do not fit together.
    pub fn new(
        graph: &DynamicGraph,
        model: GnnModel,
        store: &EmbeddingStore,
        partitioning: Partitioning,
        network: NetworkModel,
    ) -> Result<Self> {
        validate_shapes(graph, &model, store, &partitioning)?;
        let partitioning = Arc::new(partitioning);
        let workers = (0..partitioning.num_parts())
            .map(|p| {
                ShardEngine::new(
                    graph,
                    model.clone(),
                    store.clone(),
                    RippleConfig::default(),
                    Arc::clone(&partitioning),
                    PartitionId(p as u32),
                )
            })
            .collect::<ripple_core::Result<_>>()?;
        Ok(DistRippleEngine {
            workers,
            partitioning,
            network,
        })
    }

    /// Enables intra-worker parallelism: each simulated worker shards its
    /// per-superstep frontier across `threads` pool workers (clamped to at
    /// least 1). Results are bit-identical for any thread count — each
    /// worker's commit replays in the same sorted vertex order either way.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.workers = self
            .workers
            .into_iter()
            .map(|w| w.with_threads(threads))
            .collect();
        self
    }

    /// Number of pool threads each simulated worker uses during a superstep.
    pub fn threads(&self) -> usize {
        self.workers[0].threads()
    }

    /// Number of workers.
    pub fn num_parts(&self) -> usize {
        self.partitioning.num_parts()
    }

    /// The topology epoch: how many update batches every worker's snapshot
    /// has absorbed.
    pub fn topology_epoch(&self) -> u64 {
        self.workers[0].topology_epoch()
    }

    /// The model used for inference.
    pub fn model(&self) -> &GnnModel {
        self.workers[0].model()
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
        let mut gathered = self.workers[0].store().clone();
        for worker in &self.workers[1..] {
            assert!(worker.gather_into(&mut gathered), "workers share one shape");
        }
        gathered
    }

    /// Applies a batch of updates across all workers and incrementally
    /// refreshes every affected embedding, one BSP superstep per hop.
    ///
    /// The batch is broadcast to every worker (charged once per remote
    /// worker); each worker then applies the updates it owns an endpoint
    /// of, in batch order.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DistError::InvalidUpdate`] for an update naming an
    /// unknown vertex, deleting a missing edge or rewriting features at the
    /// wrong width; propagates graph and tensor errors. The engine should be
    /// considered poisoned after an error.
    pub fn process_batch(&mut self, batch: &UpdateBatch) -> Result<DistBatchStats> {
        let num_layers = self.model().num_layers();
        let mut stats = DistBatchStats {
            batch_size: batch.len(),
            supersteps: num_layers,
            ..DistBatchStats::default()
        };
        stats
            .comm
            .record_update_broadcast(self.num_parts() - 1, batch.wire_bytes());
        stats.comm_time += self.network.transfer_time(stats.comm.update_bytes);

        let mut windows = vec![UpdateBatch::new(); self.num_parts()];
        for update in batch {
            let (first, second) = self.partitioning.update_owners(update);
            for part in std::iter::once(first).chain(second) {
                windows[part.index()].push(update.clone());
            }
        }
        let mut superstep_bytes = vec![0usize; num_layers];
        let comm = &mut stats.comm;
        let (worker_stats, compute_time) =
            ShardEngine::process_lockstep(&mut self.workers, &windows, |hop, message| {
                let wire = message.wire_bytes();
                comm.record_halo_message(wire);
                superstep_bytes[hop - 1] += wire;
            })?;
        for &bytes in &superstep_bytes {
            stats.comm_time += self.network.transfer_time(bytes);
        }
        stats.compute_time = compute_time;
        stats.affected_final = worker_stats.iter().map(|s| s.affected_final).sum();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistError;
    use ripple_core::RippleEngine;
    use ripple_gnn::layer_wise::full_inference;
    use ripple_gnn::Workload;
    use ripple_graph::partition::halo::HaloInfo;
    use ripple_graph::partition::{LdgPartitioner, Partitioner};
    use ripple_graph::stream::{build_stream, StreamConfig};
    use ripple_graph::synth::DatasetSpec;
    use ripple_graph::{GraphUpdate, VertexId};
    use std::time::Duration;

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
    fn every_worker_advances_the_topology_epoch_once_per_batch() {
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
        let epochs: Vec<u64> = engine.workers.iter().map(|w| w.topology_epoch()).collect();
        assert_eq!(epochs, vec![batches.len() as u64; 3]);
        assert_eq!(engine.topology_epoch(), batches.len() as u64);
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
        let (unknown, known) = (VertexId(n + 3), VertexId(1));
        for update in [
            GraphUpdate::update_feature(unknown, vec![0.0; 6]),
            GraphUpdate::add_edge(unknown, known),
            GraphUpdate::add_edge(known, unknown),
            GraphUpdate::delete_edge(unknown, known),
        ] {
            let bad = UpdateBatch::from_updates(vec![update.clone()]);
            assert!(
                matches!(engine.process_batch(&bad), Err(DistError::InvalidUpdate(_))),
                "{update:?} must be rejected"
            );
        }
    }
}
