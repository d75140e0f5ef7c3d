//! Serving sessions: one [`ShardEngine`] per part, each behind its own
//! pipeline thread and snapshot publisher.
//!
//! There is one session type, [`ServeHandle`], and one constructor behind
//! both entry points:
//!
//! * [`spawn`] serves one [`RippleEngine`] as a one-part session: the engine
//!   is wrapped as it is ([`ShardEngine::whole`]), so it is one shard with no
//!   halos, and [`ServeHandle::shutdown`] unwraps it again;
//! * [`spawn_sharded`] partitions the bootstrap graph with the workspace's
//!   [`HashPartitioner`] and builds one halo-restricted [`ShardEngine`] per
//!   part.
//!
//! Every part runs on a dedicated worker thread (`ripple-serve-shard-{p}`)
//! through the crate's one commit pipeline (`pipeline.rs`), plus a halo
//! mailbox of delta messages received from peer parts. A flush closes the
//! window, applies the coalesced batch *and* the pending halos through the
//! shard engine, publishes the part's next epoch, and ships the outgoing
//! cross-shard deltas the window produced to their owners' mailboxes.
//!
//! Epochs therefore form a per-part **vector clock**, surfaced to readers
//! through [`crate::QueryService`] stamps. At quiescence
//! ([`ServeHandle::quiesce`]) the gathered shard stores match the unsharded
//! engine within float tolerance — the same linearity argument that makes
//! the BSP distributed engine exact, run asynchronously.
//!
//! What a client sees is decided by the part count alone: a one-part
//! session's read stamps carry no shard and no epoch vector, its failures
//! come back unwrapped rather than as [`ServeError::ShardFailed`], and its
//! index covers every row. A [`spawn`]ed session keeps its WAL and
//! checkpoints directly under [`crate::DurabilityConfig::dir`]; a
//! [`spawn_sharded`] one keeps part `p`'s under
//! [`crate::DurabilityConfig::shard_dir`] at any part count.
//!
//! Part workers drain **unbounded** channels so halo sends between peers can
//! never deadlock; producer backpressure is enforced at the
//! [`UpdateClient`] against per-part depth counters instead.

use crate::durability::{DurabilityConfig, RecoveryReport};
use crate::index::{IndexStats, VersionedIndex};
use crate::metrics::ServeMetrics;
use crate::pipeline::{Msg, Peers, Pipeline, Running};
use crate::query::Owners;
use crate::router::UpdateClient;
use crate::scheduler::{FlushLog, ServeConfig, ServeError};
use ripple_core::{RippleConfig, RippleEngine, ShardEngine};
use ripple_gnn::{EmbeddingStore, GnnModel};
use ripple_graph::partition::{HashPartitioner, Partitioner, Partitioning};
use ripple_graph::{DynamicGraph, PartitionId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;

/// The per-shard engines recovered by [`ServeHandle::shutdown`].
#[derive(Debug)]
pub struct ShardedEngines {
    engines: Vec<ShardEngine>,
    partitioning: Arc<Partitioning>,
}

impl ShardedEngines {
    /// The shard engines, indexed by [`PartitionId`].
    pub fn engines(&self) -> &[ShardEngine] {
        &self.engines
    }

    /// Consumes the handle, yielding the shard engines.
    pub fn into_engines(self) -> Vec<ShardEngine> {
        self.engines
    }

    /// The partitioning the tier served under.
    pub fn partitioning(&self) -> &Arc<Partitioning> {
        &self.partitioning
    }

    /// Assembles the authoritative global store by gathering every shard's
    /// owned rows.
    pub fn gather_store(&self) -> EmbeddingStore {
        let mut out = self.engines[0].store().clone();
        for engine in &self.engines {
            engine.gather_into(&mut out);
        }
        out
    }
}

/// The one part of a [`spawn`]ed session, unwrapped.
fn whole_engine(engines: ShardedEngines) -> RippleEngine {
    // `spawn` builds exactly one part.
    let mut engines = engines.into_engines();
    engines.swap_remove(0).into_engine()
}

/// Handle onto a running serving session (see the [module docs](self)).
///
/// `E` only sets what [`ServeHandle::shutdown`] returns: the
/// [`RippleEngine`] a [`spawn`]ed session was given, or the
/// [`ShardedEngines`] of a [`spawn_sharded`] one. Dropping the handle stops
/// and joins every part's thread.
#[derive(Debug)]
pub struct ServeHandle<E> {
    txs: Vec<Sender<Msg>>,
    depths: Vec<Arc<AtomicUsize>>,
    alive: Vec<Arc<AtomicBool>>,
    submitted: Vec<Arc<AtomicU64>>,
    /// Per-part secondary (duplicate-delivery) submission counters, paired
    /// with `submitted` for deduplicated staleness stamps.
    secondary_submitted: Vec<Arc<AtomicU64>>,
    total_submitted: Arc<AtomicU64>,
    halo_in_flight: Arc<AtomicU64>,
    metrics: Arc<ServeMetrics>,
    partitioning: Arc<Partitioning>,
    /// Who owns which row, built once; `None` at one part.
    owners: Option<Arc<Owners>>,
    config: ServeConfig,
    /// The part threads and what they publish, indexed by [`PartitionId`].
    pub(crate) shards: Vec<Running>,
    /// Turns the stopped parts into what `shutdown` returns.
    finish: fn(ShardedEngines) -> E,
}

impl<E> ServeHandle<E> {
    /// A new producer handle (cheap; every writer thread should own one).
    pub fn client(&self) -> UpdateClient {
        UpdateClient::new(
            self.txs.clone(),
            self.depths.clone(),
            self.alive.clone(),
            self.submitted.clone(),
            self.secondary_submitted.clone(),
            Arc::clone(&self.total_submitted),
            Arc::clone(&self.partitioning),
            Arc::clone(&self.metrics),
            self.config.policy,
            self.config.queue_capacity,
        )
    }

    /// A new query handle reading every part's epoch sequence (each reader
    /// thread should own one).
    pub fn query_service(&self) -> crate::QueryService {
        crate::QueryService::new(
            self.shards.iter().map(|s| s.snapshots.reader()).collect(),
            self.shards
                .iter()
                .map(|s| s.index.as_ref().map(VersionedIndex::reader))
                .collect(),
            self.submitted.clone(),
            self.secondary_submitted.clone(),
            self.owners.clone(),
            Arc::clone(&self.metrics),
        )
    }

    /// The shared serving metrics, aggregated across parts: an edge update
    /// owned by two parts counts twice in both `enqueued` and `applied`,
    /// keeping the two in balance.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Index maintenance counters summed across parts, or `None` when the
    /// session was spawned with [`crate::ServeConfigBuilder::no_index`].
    pub fn index_stats(&self) -> Option<IndexStats> {
        let stats = self.shards.iter().map(|s| s.index_stats.as_ref());
        let stats: Option<Vec<_>> = stats.collect();
        Some(
            stats?
                .iter()
                .map(|s| s.snapshot())
                .fold(IndexStats::default(), IndexStats::merged),
        )
    }

    /// Number of parts behind this session (1 for a [`spawn`]ed one).
    pub fn num_shards(&self) -> usize {
        self.txs.len()
    }

    /// The partitioning updates are routed by.
    pub fn partitioning(&self) -> &Arc<Partitioning> {
        &self.partitioning
    }

    /// One flush round: forces every part's window closed and waits for
    /// the resulting epochs (the current ones if nothing was pending), then
    /// returns their minimum. Returns `None` once any part has stopped.
    /// Cross-shard deltas produced by these flushes may still be in flight
    /// afterwards — use [`ServeHandle::quiesce`] to drain them.
    pub fn flush(&self) -> Option<u64> {
        let mut acks = Vec::with_capacity(self.txs.len());
        for tx in &self.txs {
            let (ack_tx, ack_rx) = mpsc::channel();
            tx.send(Msg::Flush(ack_tx)).ok()?;
            acks.push(ack_rx);
        }
        let mut min_epoch = u64::MAX;
        for ack in acks {
            min_epoch = min_epoch.min(ack.recv().ok()?);
        }
        Some(min_epoch)
    }

    /// Flushes repeatedly until no cross-shard delta is in flight and every
    /// part's queue is empty, then returns the minimum per-part epoch.
    /// Converges in at most `num_layers` rounds once producers stop
    /// (messages only move to strictly higher hops); at one part, one
    /// round.
    ///
    /// # Errors
    ///
    /// The session's typed terminal failure (see [`ServeHandle::failure`])
    /// once a part has stopped abnormally.
    pub fn quiesce(&self) -> crate::Result<u64> {
        loop {
            let Some(epoch) = self.flush() else {
                return Err(self.failure().unwrap_or(ServeError::SchedulerPanicked));
            };
            if self.halo_in_flight.load(Ordering::Acquire) == 0
                && self.depths.iter().all(|d| d.load(Ordering::Acquire) == 0)
            {
                return Ok(epoch);
            }
        }
    }

    /// Per-part recovery reports, indexed by [`PartitionId`] (one per part
    /// iff the session was spawned with [`ServeConfig::durability`]).
    pub fn recovery_reports(&self) -> Vec<RecoveryReport> {
        let reports = self.shards.iter().filter_map(|s| s.recovery.clone());
        reports.collect()
    }

    /// The per-part flush logs, indexed by [`PartitionId`] (empty unless
    /// [`ServeConfig::record_batches`] is set); cloned so they stay
    /// readable after [`ServeHandle::shutdown`].
    pub fn flush_logs(&self) -> Vec<FlushLog> {
        self.shards
            .iter()
            .filter_map(|s| s.flush_log.clone())
            .collect()
    }

    /// The terminal error of the first part that stopped abnormally, if
    /// any: an engine failure ([`ServeError::Engine`]), a durability
    /// failure ([`ServeError::Wal`]) or a caught panic
    /// ([`ServeError::SchedulerPanicked`]). With more than one part it
    /// comes as [`ServeError::ShardFailed`] naming the part.
    pub fn failure(&self) -> Option<ServeError> {
        let mut failures = self.shards.iter().map(Running::failure).enumerate();
        failures.find_map(|(p, failure)| Some(self.part_failure(p, failure?)))
    }

    /// Part `p`'s failure as the session reports it.
    fn part_failure(&self, p: usize, error: ServeError) -> ServeError {
        match self.owners {
            Some(_) => ServeError::ShardFailed {
                shard: p as u32,
                error: Box::new(error),
            },
            None => error,
        }
    }

    /// Quiesces the session, stops every part and returns its engine(s),
    /// with every accepted update and cross-shard delta applied.
    ///
    /// # Errors
    ///
    /// The typed failure (see [`ServeHandle::failure`]) of the first part
    /// that stopped abnormally.
    pub fn shutdown(mut self) -> Result<E, ServeError> {
        // Drain in-flight halos first so the recovered engines are at
        // quiescence; a dead part aborts the drain and surfaces its error
        // from the join below.
        let _ = self.quiesce();
        self.stop_all();
        // Join every part before reporting the first failure.
        let stopped: Vec<_> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(Running::stop)
            .collect();
        let mut engines = Vec::with_capacity(stopped.len());
        for (p, result) in stopped.into_iter().enumerate() {
            engines.push(result.map_err(|e| self.part_failure(p, e))?);
        }
        Ok((self.finish)(ShardedEngines {
            engines,
            partitioning: Arc::clone(&self.partitioning),
        }))
    }

    /// Sends every part its stop message. Each part's peers hold a sender
    /// to every queue, its own included, so no queue ever disconnects on
    /// its own: a part exits only when told to (or on a failure).
    fn stop_all(&self) {
        for tx in &self.txs {
            let _ = tx.send(Msg::Stop);
        }
    }
}

impl ServeHandle<RippleEngine> {
    /// The flush log (present iff [`ServeConfig::record_batches`]); cloned
    /// so it stays readable after [`ServeHandle::shutdown`].
    pub fn flush_log(&self) -> Option<FlushLog> {
        self.flush_logs().pop()
    }

    /// What recovery did at session start (present iff the session was
    /// spawned with [`ServeConfig::durability`]).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery_reports().pop()
    }
}

impl<E> Drop for ServeHandle<E> {
    /// Stops and joins every part thread still running, so a handle
    /// dropped without [`ServeHandle::shutdown`] leaves none behind.
    fn drop(&mut self) {
        self.stop_all();
        for running in self.shards.drain(..) {
            let _ = running.stop();
        }
    }
}

/// Spawns a one-part serving session over `engine` and returns its handle.
/// The engine's current store is published as epoch 0 — or, with
/// [`ServeConfig::durability`] set, recovery runs first: the latest valid
/// checkpoint under the durability directory is restored into the engine,
/// the WAL tail beyond it is replayed window by window (bit-identical to a
/// session that never crashed, because the engine is deterministic given
/// the same windows), and the recovered store is published at the
/// recovered epoch — so queries work immediately.
///
/// # Errors
///
/// [`ServeError::Wal`] if the durability directory cannot be scanned or
/// reopened; [`ServeError::Engine`] if checkpoint restore or WAL replay
/// fails in the engine. A session without durability cannot fail to spawn.
pub fn spawn(
    engine: RippleEngine,
    config: ServeConfig,
) -> crate::Result<ServeHandle<RippleEngine>> {
    let engine = ShardEngine::whole(engine)?;
    let partitioning = Arc::clone(engine.partitioning());
    let durability = config.durability.clone();
    start(
        vec![(engine, durability)],
        partitioning,
        config,
        whole_engine,
    )
}

/// Spawns a sharded serving session: hash-partitions `graph` into `shards`
/// parts, builds one halo-restricted [`ShardEngine`] per part from the
/// bootstrapped `store`, and runs each behind its own scheduler thread and
/// snapshot publisher. Every shard's bootstrap store is published as its
/// epoch 0 (or, with [`ServeConfig::durability`] set, each shard first
/// recovers its own subdirectory like [`spawn`] does), so queries work
/// immediately.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] if `shards` is zero or exceeds the
/// vertex count, [`ServeError::Engine`] if graph/model/store shapes do not
/// fit together, and recovery's errors as [`spawn`] does.
pub fn spawn_sharded(
    graph: &DynamicGraph,
    model: &GnnModel,
    store: &EmbeddingStore,
    engine_config: RippleConfig,
    config: ServeConfig,
    shards: usize,
) -> crate::Result<ServeHandle<ShardedEngines>> {
    if shards == 0 {
        return Err(ServeError::InvalidConfig(
            "a sharded session needs at least one shard".to_string(),
        ));
    }
    let partitioning = Arc::new(
        HashPartitioner::new()
            .partition(graph, shards)
            .map_err(|e| ServeError::InvalidConfig(format!("partitioning failed: {e}")))?,
    );
    let mut parts = Vec::with_capacity(shards);
    for p in 0..shards {
        let engine = ShardEngine::new(
            graph,
            model.clone(),
            store.clone(),
            engine_config,
            Arc::clone(&partitioning),
            PartitionId(p as u32),
        )?;
        // Each shard logs and checkpoints its own window sequence under
        // `dir/shard-{p}/`.
        let durability = config.durability.as_ref().map(|d| d.for_shard(p));
        parts.push((engine, durability));
    }
    start(parts, partitioning, config, std::convert::identity)
}

/// The one session constructor behind [`spawn`] and [`spawn_sharded`]:
/// `parts[p]` is part `p`'s engine and durability configuration.
fn start<E>(
    parts: Vec<(ShardEngine, Option<DurabilityConfig>)>,
    partitioning: Arc<Partitioning>,
    config: ServeConfig,
    finish: fn(ShardedEngines) -> E,
) -> crate::Result<ServeHandle<E>> {
    let shards = parts.len();
    let owners = Owners::of(&partitioning);
    let metrics = Arc::new(ServeMetrics::new());
    let total_submitted = Arc::new(AtomicU64::new(0));
    let halo_in_flight = Arc::new(AtomicU64::new(0));
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards).map(|_| mpsc::channel()).unzip();

    // Build (and recover) every part's pipeline before any thread starts:
    // a part that fails to build leaves nothing running, and recovery's
    // re-shipped halos wait in queues that already exist.
    let mut depths = Vec::with_capacity(shards);
    let mut pipelines = Vec::with_capacity(shards);
    for (p, (engine, durability)) in parts.into_iter().enumerate() {
        let part = PartitionId(p as u32);
        let depth = Arc::new(AtomicUsize::new(0));
        let peers = Peers::new(
            part,
            txs.clone(),
            Arc::clone(&halo_in_flight),
            Arc::clone(&depth),
        );
        // With more than one part, each indexes only the rows it owns: the
        // merged approximate read scores every candidate from its owner's
        // snapshot, exactly like the merged exact scan.
        let owned = owners.as_ref().filter(|_| config.index.is_some()).map(|_| {
            let assignment = partitioning.assignment().iter();
            assignment.map(|owner| *owner == part).collect()
        });
        // Recovery replays each frame's batch *and* logged received halos
        // and re-ships the replayed windows' outgoing deltas.
        let metrics = Arc::clone(&metrics);
        let (pipeline, _reader) =
            Pipeline::new(engine, &config, durability, owned, metrics, peers)?;
        depths.push(depth);
        pipelines.push(pipeline);
    }

    let mut alive = Vec::with_capacity(shards);
    let mut running = Vec::with_capacity(shards);
    for (p, (pipeline, rx)) in pipelines.into_iter().zip(rxs).enumerate() {
        let alive_flag = Arc::new(AtomicBool::new(true));
        alive.push(Arc::clone(&alive_flag));
        let name = format!("ripple-serve-shard-{p}");
        running.push(pipeline.spawn(name, rx, alive_flag));
    }
    let counters = || (0..shards).map(|_| Arc::new(AtomicU64::new(0))).collect();

    Ok(ServeHandle {
        txs,
        depths,
        alive,
        submitted: counters(),
        secondary_submitted: counters(),
        total_submitted,
        halo_in_flight,
        metrics,
        partitioning,
        owners,
        config,
        shards: running,
        finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::QueuedUpdate;
    use crate::Submission;
    use ripple_gnn::layer_wise::full_inference;
    use ripple_gnn::Workload;
    use ripple_graph::stream::{build_stream, StreamConfig};
    use ripple_graph::synth::DatasetSpec;
    use ripple_graph::{GraphUpdate, UpdateBatch, VertexId};
    use std::time::Instant;

    fn bootstrap(seed: u64) -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<GraphUpdate>) {
        let full = DatasetSpec::custom(150, 5.0, 6, 4).generate(seed).unwrap();
        let plan = build_stream(
            &full,
            &StreamConfig {
                total_updates: 60,
                seed: seed ^ 1,
                ..Default::default()
            },
        )
        .unwrap();
        let model = Workload::GcS.build_model(6, 8, 4, 2, seed ^ 2).unwrap();
        let store = full_inference(&plan.snapshot, &model).unwrap();
        let updates = plan
            .batches(1)
            .into_iter()
            .flat_map(UpdateBatch::into_updates)
            .collect();
        (plan.snapshot, model, store, updates)
    }

    #[test]
    fn sharded_session_matches_the_serial_engine_at_quiescence() {
        let (graph, model, store, updates) = bootstrap(21);
        let config = ServeConfig::builder().max_batch(8).build().unwrap();
        let handle =
            spawn_sharded(&graph, &model, &store, RippleConfig::default(), config, 2).unwrap();
        assert_eq!(handle.num_shards(), 2);
        let client = handle.client();
        let (accepted, last) = client.submit_all(updates.clone());
        assert_eq!(accepted, updates.len());
        assert!(matches!(last, Submission::Enqueued { .. }));
        let epoch = handle.quiesce().expect("tier alive");
        assert!(epoch >= 1);
        let metrics = handle.metrics();
        assert_eq!(
            metrics.applied(),
            metrics.enqueued(),
            "quiesce drains every routed update"
        );
        let engines = handle.shutdown().unwrap();
        let gathered = engines.gather_store();

        let mut serial = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
        for update in updates {
            serial
                .process_batch(&UpdateBatch::from_updates(vec![update]))
                .unwrap();
        }
        let diff = gathered.max_diff_all_layers(serial.store()).unwrap();
        assert!(
            diff < 2e-3,
            "sharded tier drifted from serial replay: {diff}"
        );
    }

    #[test]
    fn sharded_queries_carry_shard_and_epoch_vector_stamps() {
        let (graph, model, store, updates) = bootstrap(23);
        let config = ServeConfig::builder()
            .max_batch(4)
            .record_batches(true)
            .build()
            .unwrap();
        let handle =
            spawn_sharded(&graph, &model, &store, RippleConfig::default(), config, 4).unwrap();
        assert_eq!(handle.flush_logs().len(), 4, "one flush log per shard");
        let client = handle.client();
        let (accepted, _) = client.submit_all(updates.into_iter().take(20));
        assert_eq!(accepted, 20);
        handle.quiesce().unwrap();

        let mut queries = handle.query_service();
        let owner = handle.partitioning().part_of(VertexId(0));
        let e = queries.read_embedding(VertexId(0)).unwrap();
        assert_eq!(e.shard, Some(owner), "point reads name the owning shard");
        assert!(e.epochs.is_none());
        assert_eq!(queries.epoch_vector().len(), 4);
        let top = queries
            .top_k(&crate::TopKRequest::new(vec![1.0, 0.0, 0.0, 0.0], 3))
            .unwrap();
        assert_eq!(top.shard, None);
        assert_eq!(top.epochs.as_ref().map(Vec::len), Some(4));
        assert_eq!(
            top.epoch,
            top.epochs.as_ref().unwrap().iter().copied().min().unwrap()
        );

        let logs = handle.flush_logs();
        let applied = handle.metrics().applied();
        let engines = handle.shutdown().unwrap();
        assert_eq!(engines.engines().len(), 4);
        let recorded: u64 = logs
            .iter()
            .flat_map(|log| log.snapshot())
            .map(|record| record.raw)
            .sum();
        assert_eq!(recorded, applied, "flush logs cover every routed update");
    }

    #[test]
    fn sharded_full_probe_approx_matches_the_exact_scan() {
        let (graph, model, store, updates) = bootstrap(29);
        let config = ServeConfig::builder().max_batch(8).build().unwrap();
        let handle =
            spawn_sharded(&graph, &model, &store, RippleConfig::default(), config, 3).unwrap();
        let client = handle.client();
        client.submit_all(updates.into_iter().take(30));
        handle.quiesce().unwrap();

        let mut queries = handle.query_service();
        let query = vec![0.7, -0.4, 0.2, 0.9];
        let exact = queries
            .top_k(&crate::TopKRequest::new(query.clone(), 5))
            .unwrap();
        // Probing every cluster of every shard visits every owned row, so
        // the merged approximate read must equal the merged exact scan.
        let approx = queries
            .top_k(&crate::TopKRequest::new(query, 5).approx(usize::MAX))
            .unwrap();
        assert_eq!(exact.value, approx.value);
        let stats = handle.index_stats().expect("indexing defaults on");
        assert_eq!(stats.builds, 3, "one bootstrap build per shard");
        assert_eq!(stats.rebuilds, 0, "dirty repair never rebuilds");
        assert!(stats.repairs > 0, "every flush repairs each shard index");
    }

    #[test]
    fn zero_shards_is_rejected() {
        let (graph, model, store, _) = bootstrap(25);
        let result = spawn_sharded(
            &graph,
            &model,
            &store,
            RippleConfig::default(),
            ServeConfig::default(),
            0,
        );
        assert!(
            matches!(result, Err(ServeError::InvalidConfig(_))),
            "zero shards must be rejected"
        );
    }

    #[test]
    fn spawn_and_spawn_sharded_return_one_handle_type() {
        fn drive<E>(handle: &ServeHandle<E>) -> (u64, usize) {
            let client = handle.client();
            client.submit(GraphUpdate::add_edge(VertexId(1), VertexId(2)));
            let epoch = handle.quiesce().unwrap();
            (epoch, handle.num_shards())
        }
        let (graph, model, store, _) = bootstrap(27);
        let single = crate::spawn(
            RippleEngine::new(
                graph.clone(),
                model.clone(),
                store.clone(),
                RippleConfig::default(),
            )
            .unwrap(),
            ServeConfig::default(),
        )
        .unwrap();
        let (epoch, shards) = drive(&single);
        assert!(epoch >= 1);
        assert_eq!(shards, 1);
        single.shutdown().unwrap();

        let sharded = spawn_sharded(
            &graph,
            &model,
            &store,
            RippleConfig::default(),
            ServeConfig::default(),
            2,
        )
        .unwrap();
        let (epoch, shards) = drive(&sharded);
        assert!(epoch >= 1);
        assert_eq!(shards, 2);
        sharded.shutdown().unwrap();
    }

    #[test]
    fn sharded_handle_does_not_pin_a_shard_bootstrap_epoch() {
        let (graph, model, store, _) = bootstrap(23);
        let config = ServeConfig::builder().max_batch(8).build().unwrap();
        let handle =
            spawn_sharded(&graph, &model, &store, RippleConfig::default(), config, 2).unwrap();
        let (snapshot, index) = {
            let mut snapshots = handle.shards[0].snapshots.reader();
            let mut index = handle.shards[0].index.as_ref().unwrap().reader();
            assert_eq!(snapshots.epoch(), 0);
            (
                Arc::downgrade(snapshots.snapshot()),
                Arc::downgrade(index.index()),
            )
        };
        // Two windows for shard 0 with the handle alive and no query
        // service held.
        let owned = handle
            .partitioning()
            .assignment()
            .iter()
            .position(|owner| *owner == PartitionId(0))
            .unwrap();
        let client = handle.client();
        for value in [1.0, 2.0] {
            client.submit(GraphUpdate::update_feature(
                VertexId(owned as u32),
                vec![value; 6],
            ));
            handle.flush().unwrap();
        }
        assert!(handle.query_service().epoch_vector()[0] >= 2);
        assert!(
            snapshot.upgrade().is_none(),
            "epoch-0 snapshot still pinned"
        );
        assert!(index.upgrade().is_none(), "epoch-0 index still pinned");
        handle.shutdown().unwrap();
    }

    /// Per-window stamps `(window_seq, raw, epoch, applied_seq,
    /// topology_epoch)` of one shard's flush log.
    type Stamps = Vec<(u64, u64, u64, u64, u64)>;

    /// Runs `updates` through two shard workers wired to each other's
    /// channels and driven on the test thread, so which halos join which
    /// window is fixed by the script rather than by thread timing: route
    /// every update, flush both shards, then deliver halos in rounds (each
    /// shard drains its mailbox and flushes) until none is in flight.
    fn run_two_shards_in_lockstep(
        graph: &DynamicGraph,
        model: &GnnModel,
        store: &EmbeddingStore,
        updates: &[GraphUpdate],
        depth: usize,
    ) -> (Vec<Stamps>, EmbeddingStore, crate::MetricsReport) {
        let config = ServeConfig::builder()
            .max_batch(4)
            .max_delay(ServeConfig::MAX_DELAY)
            .record_batches(true)
            .no_index()
            .concurrent_admission(depth)
            .build()
            .unwrap();
        let partitioning = Arc::new(HashPartitioner::new().partition(graph, 2).unwrap());
        let metrics = Arc::new(ServeMetrics::new());
        let halo_in_flight = Arc::new(AtomicU64::new(0));
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| mpsc::channel()).unzip();
        let mut workers: Vec<Pipeline> = (0..2)
            .map(|p| {
                let part = PartitionId(p as u32);
                let engine = ShardEngine::new(
                    graph,
                    model.clone(),
                    store.clone(),
                    RippleConfig::default(),
                    Arc::clone(&partitioning),
                    part,
                )
                .unwrap();
                let peers = Peers::new(
                    part,
                    txs.clone(),
                    Arc::clone(&halo_in_flight),
                    Arc::new(AtomicUsize::new(0)),
                );
                Pipeline::new(engine, &config, None, None, Arc::clone(&metrics), peers)
                    .unwrap()
                    .0
            })
            .collect();
        let now = Instant::now();
        for update in updates {
            let (first, second) = partitioning.update_owners(update);
            for (copy, part) in [Some(first), second].into_iter().flatten().enumerate() {
                workers[part.index()]
                    .absorb(QueuedUpdate {
                        update: update.clone(),
                        enqueued: now,
                        secondary: copy == 1,
                    })
                    .unwrap();
            }
        }
        for worker in &mut workers {
            worker.flush().unwrap();
        }
        while halo_in_flight.load(Ordering::Acquire) > 0 {
            for (worker, rx) in workers.iter_mut().zip(&rxs) {
                while let Ok(msg) = rx.try_recv() {
                    let Msg::Halos {
                        from,
                        window_seq,
                        messages,
                    } = msg
                    else {
                        panic!("only halos travel between shard workers");
                    };
                    worker.accept_halos(from, window_seq, messages).unwrap();
                }
                worker.flush().unwrap();
            }
        }
        let stamps = workers
            .iter()
            .map(|worker| {
                let log = worker.flush_log.as_ref().unwrap().snapshot();
                log.iter()
                    .map(|r| {
                        (
                            r.window_seq,
                            r.raw,
                            r.epoch,
                            r.applied_seq,
                            r.topology_epoch,
                        )
                    })
                    .collect()
            })
            .collect();
        let mut gathered = workers[0].engine.store().clone();
        for worker in &workers {
            worker.engine.gather_into(&mut gathered);
        }
        (stamps, gathered, metrics.report())
    }

    #[test]
    fn shard_group_commit_matches_depth_one_on_a_hub_stream() {
        let (graph, model, store, _) = bootstrap(31);
        let partitioning = HashPartitioner::new().partition(&graph, 2).unwrap();
        let hub = VertexId(0);
        let far: Vec<VertexId> = partitioning
            .vertices_in(PartitionId(1 - partitioning.part_of(hub).0))
            .into_iter()
            .filter(|&v| !graph.has_edge(hub, v))
            .take(24)
            .collect();
        // Every window on the hub's shard rewrites the hub, and every
        // window on the other shard adds a hub edge: under footprints,
        // every hub window would conflict with the one staged before it.
        let updates: Vec<GraphUpdate> = far
            .iter()
            .enumerate()
            .flat_map(|(i, &v)| {
                [
                    GraphUpdate::update_feature(hub, vec![i as f32 * 0.125; 6]),
                    GraphUpdate::add_edge(hub, v),
                ]
            })
            .collect();
        let (serial_stamps, serial_store, serial) =
            run_two_shards_in_lockstep(&graph, &model, &store, &updates, 1);
        let (group_stamps, group_store, grouped) =
            run_two_shards_in_lockstep(&graph, &model, &store, &updates, 4);
        assert!(serial_stamps.iter().all(|log| log.len() >= 6));
        assert_eq!(group_stamps, serial_stamps, "per-shard flush-log stamps");
        assert!(
            group_store == serial_store,
            "gathered stores must be bit-identical"
        );
        assert_eq!(serial.admitted_concurrent, 0);
        assert_eq!(grouped.conflicts, 0, "shard windows carry no footprint");
        assert_eq!(grouped.serialized, 0);
        assert!(grouped.admitted_concurrent > 0, "depth 4 commits groups");
    }
}
