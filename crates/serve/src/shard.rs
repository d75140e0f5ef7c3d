//! The sharded serving tier: hash-partitioned [`ShardEngine`]s, each behind
//! its own scheduler thread and snapshot publisher.
//!
//! [`spawn_sharded`] partitions the bootstrap graph with the workspace's
//! [`HashPartitioner`], builds one halo-restricted [`ShardEngine`] per
//! partition, and runs each on a dedicated worker thread
//! (`ripple-serve-shard-{p}`). Every worker owns the full single-engine
//! serving pipeline for its shard: an update-coalescing window, an
//! epoch-versioned [`SnapshotPublisher`], and — new to this tier — a halo
//! mailbox of delta messages received from peer shards. A flush closes the
//! window, applies the coalesced batch *and* the pending halos through the
//! shard engine, publishes the shard's next epoch, and ships the outgoing
//! cross-shard deltas the window produced to their owners' mailboxes.
//!
//! Each worker commits through the admission pipeline of
//! [`crate::admission`] used as plain **group commit**: a closed window is
//! WAL-appended unsynced and staged, and once [`ServeConfig::max_inflight`]
//! windows are staged (or on a flush or time window) the group fsyncs once
//! and each window executes and publishes in `window_seq` order. A shard
//! group already runs the engine once per window, so windows stage without
//! a footprint and never conflict; depth 1 is the serial pipeline.
//!
//! Epochs therefore form a per-shard **vector clock**, surfaced to readers
//! through [`crate::QueryService`] stamps. At quiescence
//! ([`ShardedServeHandle::quiesce`]) the gathered shard stores match the
//! unsharded engine within float tolerance — the same linearity argument
//! that makes the BSP distributed engine exact, run asynchronously.
//!
//! Shard workers drain **unbounded** channels so halo sends between peers
//! can never deadlock; producer backpressure is enforced at the
//! [`crate::ShardRouter`] against per-shard depth counters instead.

use crate::admission::{AdmissionController, StagedWindow};
use crate::durability::{
    recover, write_checkpoint_ref, CheckpointRef, DurabilityConfig, HaloSource, RecoveryReport,
    WalFrame, WalWriter, FP_AFTER_PUBLISH,
};
use crate::index::{IndexMaintainer, IndexStats, SharedIndexStats, VersionedIndex};
use crate::metrics::ServeMetrics;
use crate::router::ShardRouter;
use crate::scheduler::{Coalescer, FlushLog, FlushRecord, ServeConfig, ServeError};
use crate::versioned::{SnapshotPublisher, VersionedStore};
use ripple_core::{DeltaMessage, Footprint, RippleConfig, ShardEngine};
use ripple_gnn::{EmbeddingStore, GnnModel};
use ripple_graph::partition::halo::HaloInfo;
use ripple_graph::partition::{HashPartitioner, Partitioner, Partitioning};
use ripple_graph::{DynamicGraph, PartitionId, UpdateBatch, VertexId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) use crate::scheduler::QueuedUpdate;

/// Queue protocol between the router/handle and one shard worker.
pub(crate) enum ShardMsg {
    /// One raw update routed to this shard.
    Update(QueuedUpdate),
    /// A batch of halo deltas shipped by one of a peer shard's committed
    /// windows. The `(from, window_seq)` tag makes delivery idempotent:
    /// recovery re-ships every replayed window's outgoing deltas (they may
    /// have been in flight at the crash), and receivers drop any batch at
    /// or below their per-sender watermark.
    Halos {
        /// The shipping shard.
        from: PartitionId,
        /// The shipping shard's window that produced these deltas.
        window_seq: u64,
        /// The deltas themselves.
        messages: Vec<DeltaMessage>,
    },
    /// Force the current window closed; replies with the epoch after flush.
    Flush(mpsc::Sender<u64>),
    /// Flush, then exit the worker loop.
    Stop,
}

/// Commit bookkeeping one staged shard window carries from its WAL append
/// to its publication (the sharded analogue of the single-engine
/// scheduler's payload): the window's own inputs plus the post-commit
/// counters predicted at append time.
struct ShardWindowCommit {
    batch: UpdateBatch,
    halos: Vec<DeltaMessage>,
    halo_sources: Vec<HaloSource>,
    /// Number of [`ShardMsg::Halos`] batches behind `halos` (in-flight
    /// accounting released once the window commits).
    halo_batches: u64,
    raw: u64,
    enqueues: Vec<Instant>,
    epoch: u64,
    applied_seq: u64,
    applied_secondary: u64,
    topology_epoch: u64,
}

/// One shard's scheduler state machine (the sharded analogue of
/// [`crate::UpdateScheduler`]).
struct ShardWorker {
    /// This worker's own partition id (stamps outgoing halo batches).
    part: PartitionId,
    engine: ShardEngine,
    publisher: SnapshotPublisher,
    /// IVF top-k index over this shard's **owned** rows (present iff
    /// [`ServeConfig::index`]); published before the store each flush.
    index: Option<IndexMaintainer>,
    config: ServeConfig,
    metrics: Arc<ServeMetrics>,
    window: Coalescer,
    /// Halo deltas received from peers since the last flush.
    pending_halos: Vec<DeltaMessage>,
    /// One `(sender, window_seq, count)` run per accepted halo batch behind
    /// `pending_halos`, in arrival order — logged into the next frame so
    /// recovery can restore the dedup watermarks.
    pending_halo_sources: Vec<HaloSource>,
    /// Number of [`ShardMsg::Halos`] batches behind `pending_halos` —
    /// the in-flight counter is decremented per batch once applied.
    pending_halo_batches: u64,
    /// Per-sender dedup watermarks: the highest peer `window_seq` whose
    /// halo batch this shard has accepted, indexed by [`PartitionId`]. A
    /// re-shipped batch at or below the watermark is dropped, so recovery's
    /// re-delivery applies exactly once.
    halo_watermarks: Vec<u64>,
    /// Arrival instant of the oldest unapplied halo batch, so halo-only
    /// windows still close on the time window.
    halo_oldest: Option<Instant>,
    applied_seq: u64,
    /// Of `applied_seq`, how many were secondary route copies of
    /// cross-shard edge updates (see the staleness dedup in
    /// [`crate::QueryService`]).
    applied_secondary: u64,
    /// Monotone sequence of this shard's logged windows.
    window_seq: u64,
    /// This shard's write-ahead log (present iff the tier has
    /// [`ServeConfig::durability`]; each shard logs under its own
    /// subdirectory).
    wal: Option<WalWriter>,
    /// The shard-scoped durability configuration behind `wal`.
    durability: Option<DurabilityConfig>,
    flush_log: Option<FlushLog>,
    /// This shard's queue-depth counter (decremented as updates are
    /// absorbed; the router enforces backpressure against it).
    depth: Arc<AtomicUsize>,
    /// Tier-wide count of halo batches sent but not yet applied.
    halo_in_flight: Arc<AtomicU64>,
    /// Senders to every shard of the tier, indexed by [`PartitionId`].
    peers: Vec<Sender<ShardMsg>>,
    /// The staged group, [`ServeConfig::max_inflight`] deep: windows stage
    /// with their WAL frames unsynced, the group fsyncs once and commits in
    /// `window_seq` order at drain.
    admission: AdmissionController<ShardWindowCommit>,
}

impl ShardWorker {
    /// Flushes: stages the pending window (if any), then commits every
    /// staged window. A window holding only halos still runs the engine and
    /// publishes.
    fn flush(&mut self) -> crate::Result<u64> {
        self.stage_window()?;
        self.drain_staged()
    }

    /// Closes the current window on a size trigger: stages it, and commits
    /// the staged group once it is full.
    fn close_window(&mut self) -> crate::Result<()> {
        self.stage_window()?;
        if self.admission.is_full() {
            self.drain_staged()?;
        }
        Ok(())
    }

    /// Closes the pending window and stages it: WAL-append it unsynced,
    /// predict its post-commit stamps and reserve it.
    fn stage_window(&mut self) -> crate::Result<()> {
        if self.window.raw_len() == 0 && self.pending_halos.is_empty() {
            return Ok(());
        }
        let (batch, raw, secondary, enqueues) = self.window.drain();
        let halos = std::mem::take(&mut self.pending_halos);
        let halo_sources = std::mem::take(&mut self.pending_halo_sources);
        let halo_batches = std::mem::take(&mut self.pending_halo_batches);
        self.halo_oldest = None;
        let ran_engine = !batch.is_empty() || !halos.is_empty();
        // Chain the predicted post-commit stamps off the last staged window
        // (or the live counters when the group is empty); the WAL frame
        // records them so recovery replay lands on the same stamps.
        let (base_epoch, base_applied, base_secondary, base_topo) = match self.admission.last() {
            Some(w) => (
                w.payload.epoch,
                w.payload.applied_seq,
                w.payload.applied_secondary,
                w.payload.topology_epoch,
            ),
            None => (
                self.publisher.epoch(),
                self.applied_seq,
                self.applied_secondary,
                self.engine.topology_epoch(),
            ),
        };
        self.window_seq += 1;
        let commit = ShardWindowCommit {
            epoch: base_epoch + 1,
            applied_seq: base_applied + raw,
            applied_secondary: base_secondary + secondary,
            topology_epoch: base_topo + u64::from(ran_engine),
            batch,
            halos,
            halo_sources,
            halo_batches,
            raw,
            enqueues,
        };
        // Log before apply, including the halos absorbed this window: peer
        // shards log their *received* halos in their own frames, so replay
        // of a shard's log alone reproduces its store. Outgoing deltas are
        // *re-shipped* on replay (they may have been in flight at a crash);
        // the logged `(sender, window_seq)` runs are what lets receivers
        // restore the watermarks that dedup the re-delivery.
        if let Some(wal) = &mut self.wal {
            let frame = WalFrame {
                window_seq: self.window_seq,
                epoch: commit.epoch,
                applied_seq: commit.applied_seq,
                applied_secondary: commit.applied_secondary,
                topology_epoch: commit.topology_epoch,
                raw: commit.raw,
                batch: commit.batch.clone(),
                halos: commit.halos.clone(),
                halo_sources: commit.halo_sources.clone(),
            };
            if let Err(e) = wal.append_unsynced(&frame) {
                // The worker is about to exit; release this window's and
                // every staged window's accounting so quiesce observes the
                // failure instead of spinning.
                self.release_halo_accounting(commit.halo_batches);
                self.release_staged_accounting();
                return Err(e);
            }
        }
        self.advance_watermarks(&commit.halo_sources);
        // A shard group executes window by window, so there is nothing for
        // a footprint to decide.
        self.admission.reserve(StagedWindow::pending(
            self.window_seq,
            Footprint::empty(),
            commit,
        ));
        Ok(())
    }

    /// Commits the staged group: one fsync covering every appended frame,
    /// then each window executes and publishes individually, in
    /// `window_seq` order — outgoing deltas ship per window, tagged with
    /// that window's sequence. Returns the last published epoch (the
    /// current epoch if nothing was staged).
    fn drain_staged(&mut self) -> crate::Result<u64> {
        if self.admission.is_empty() {
            return Ok(self.publisher.epoch());
        }
        let mut group = self.admission.take_group();
        if let Some(wal) = &mut self.wal {
            if let Err(e) = wal.sync() {
                let pending: u64 = group.iter().map(|w| w.payload.halo_batches).sum();
                self.release_halo_accounting(pending);
                return Err(e);
            }
        }
        let first_seq = group.first().map(StagedWindow::seq).unwrap_or(0);
        let last_seq = group.last().map(StagedWindow::seq).unwrap_or(0);
        let mut epoch = self.publisher.epoch();
        for i in 0..group.len() {
            let seq = group[i].seq();
            let window = &mut group[i];
            let ran_engine = !window.payload.batch.is_empty() || !window.payload.halos.is_empty();
            let mut outgoing = Vec::new();
            if ran_engine {
                match self
                    .engine
                    .process_window(&window.payload.batch, &window.payload.halos)
                {
                    Ok((_stats, shipped)) => outgoing = shipped,
                    Err(e) => {
                        self.metrics.record_engine_error();
                        let pending: u64 = group[i..].iter().map(|w| w.payload.halo_batches).sum();
                        self.release_halo_accounting(pending);
                        return Err(ServeError::Engine(e));
                    }
                }
            }
            self.applied_seq = window.payload.applied_seq;
            self.applied_secondary = window.payload.applied_secondary;
            let topology_epoch = self.engine.topology_epoch();
            debug_assert_eq!(
                topology_epoch, window.payload.topology_epoch,
                "predicted topology epoch drifted"
            );
            let dirty: Option<&[VertexId]> = if ran_engine {
                Some(self.engine.dirty_rows())
            } else {
                Some(&[])
            };
            // Index before store, mirroring the single-engine scheduler:
            // index skew can only cost recall, never scores.
            if let Some(index) = &mut self.index {
                index.publish(self.engine.store(), dirty);
            }
            epoch = self.publisher.publish_stamped(
                self.engine.store(),
                self.applied_seq,
                self.applied_secondary,
                topology_epoch,
                dirty,
            );
            debug_assert_eq!(epoch, window.payload.epoch, "predicted epoch drifted");
            let published_at = Instant::now();
            for enqueued in window.payload.enqueues.drain(..) {
                self.metrics
                    .record_visibility_lag(published_at.saturating_duration_since(enqueued));
            }
            self.metrics.record_flush(window.payload.raw, ran_engine);
            if let Some(log) = &self.flush_log {
                log.push(FlushRecord {
                    window_seq: seq,
                    batch: std::mem::replace(&mut window.payload.batch, UpdateBatch::new()),
                    halos: std::mem::take(&mut window.payload.halos),
                    raw: window.payload.raw,
                    epoch,
                    applied_seq: self.applied_seq,
                    topology_epoch,
                });
            }
            // Ship before releasing the incoming accounting: the in-flight
            // counter must never read 0 while this window's follow-on
            // messages are still unsent, or a concurrent quiesce would end
            // early.
            let halo_batches = window.payload.halo_batches;
            window.commit();
            self.ship(seq, outgoing);
            self.release_halo_accounting(halo_batches);
        }
        self.metrics.record_admission_group(group.len() as u64);
        if let Some(d) = &self.durability {
            if d.fail_points.fire(FP_AFTER_PUBLISH) {
                return Err(ServeError::Wal(format!(
                    "fail point {FP_AFTER_PUBLISH} fired after epoch {epoch} was published"
                )));
            }
            // One checkpoint per group at most, cut iff the group crossed a
            // cadence boundary.
            if d.checkpoint_every > 0
                && last_seq / d.checkpoint_every > first_seq.saturating_sub(1) / d.checkpoint_every
            {
                self.write_shard_checkpoint(last_seq, epoch)?;
            }
        }
        Ok(epoch)
    }

    /// Streams a checkpoint of the live shard state (no graph/store clone),
    /// including the per-sender halo watermarks as of the logged windows.
    fn write_shard_checkpoint(&self, window_seq: u64, epoch: u64) -> crate::Result<()> {
        let d = self
            .durability
            .as_ref()
            .expect("checkpoint without durability");
        let watermarks: Vec<(PartitionId, u64)> = self
            .halo_watermarks
            .iter()
            .enumerate()
            .map(|(p, &seq)| (PartitionId(p as u32), seq))
            .collect();
        write_checkpoint_ref(
            &d.dir,
            &CheckpointRef {
                window_seq,
                epoch,
                applied_seq: self.applied_seq,
                applied_secondary: self.applied_secondary,
                topology_epoch: self.engine.topology_epoch(),
                graph: self.engine.graph(),
                store: self.engine.store(),
                halo_watermarks: &watermarks,
            },
            d.fsync,
            &d.fail_points,
        )
    }

    /// Advances the per-sender dedup watermarks for halo batches whose
    /// `(sender, window_seq)` runs have just been WAL-logged. Watermarks
    /// track *logged* batches only, so a checkpoint's watermarks never get
    /// ahead of its store — a batch accepted but not yet logged at a crash
    /// is re-accepted when the sender's recovery re-ships it.
    fn advance_watermarks(&mut self, sources: &[HaloSource]) {
        for source in sources {
            let slot = &mut self.halo_watermarks[source.from.index()];
            *slot = (*slot).max(source.window_seq);
        }
    }

    /// Releases `batches` applied (or abandoned) halo batches from the
    /// tier-wide in-flight counter.
    fn release_halo_accounting(&self, batches: u64) {
        if batches > 0 {
            self.halo_in_flight.fetch_sub(batches, Ordering::AcqRel);
        }
    }

    /// Releases the accounting of every still-staged window (the worker is
    /// about to exit on an error).
    fn release_staged_accounting(&mut self) {
        let staged: u64 = self
            .admission
            .take_group()
            .iter()
            .map(|w| w.payload.halo_batches)
            .sum();
        self.release_halo_accounting(staged);
    }

    /// Delivers one window's outgoing deltas, one [`ShardMsg::Halos`] batch
    /// per destination shard, tagged `(self.part, window_seq)` so receivers
    /// can deduplicate re-delivery.
    fn ship(&self, window_seq: u64, outgoing: Vec<(PartitionId, DeltaMessage)>) {
        let mut per_part: Vec<Vec<DeltaMessage>> = vec![Vec::new(); self.peers.len()];
        for (part, message) in outgoing {
            per_part[part.index()].push(message);
        }
        for (part, messages) in per_part.into_iter().enumerate() {
            if messages.is_empty() {
                continue;
            }
            self.halo_in_flight.fetch_add(1, Ordering::AcqRel);
            let msg = ShardMsg::Halos {
                from: self.part,
                window_seq,
                messages,
            };
            if self.peers[part].send(msg).is_err() {
                // The peer already exited (engine error / shutdown): the
                // batch is lost, undo its accounting.
                self.halo_in_flight.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    /// Absorbs one routed update into the coalescing window, closing the
    /// window once it holds [`ServeConfig::max_batch`] raw updates.
    fn absorb(&mut self, queued: QueuedUpdate) -> crate::Result<()> {
        self.window.push(queued, &self.metrics);
        if self.window.raw_len() >= self.config.max_batch as u64 {
            self.close_window()?;
        }
        Ok(())
    }

    /// Accepts one peer window's halo batch into the pending window.
    fn accept_halos(
        &mut self,
        from: PartitionId,
        window_seq: u64,
        messages: Vec<DeltaMessage>,
    ) -> crate::Result<()> {
        if window_seq <= self.halo_watermarks[from.index()] {
            // A re-shipped batch this shard already logged (recovery
            // re-delivers every replayed window's outgoing deltas): drop
            // it, release its accounting.
            self.release_halo_accounting(1);
            return Ok(());
        }
        self.halo_oldest.get_or_insert_with(Instant::now);
        self.pending_halo_sources.push(HaloSource {
            from,
            window_seq,
            count: messages.len() as u32,
        });
        self.pending_halos.extend(messages);
        self.pending_halo_batches += 1;
        // Heavy cross-shard traffic closes the size window too, so the halo
        // mailbox cannot buffer unboundedly.
        if self.pending_halos.len() >= self.config.max_batch {
            self.close_window()?;
        }
        Ok(())
    }

    /// Drains the shard queue until every sender hangs up or a stop message
    /// arrives, flushing on the size and time windows.
    fn run(mut self, rx: Receiver<ShardMsg>) -> Result<ShardEngine, ServeError> {
        loop {
            let window_deadline = self.window.deadline(self.config.max_delay);
            let halo_deadline = self.halo_oldest.map(|t| t + self.config.max_delay);
            let staged_deadline = self.admission.deadline(self.config.max_delay);
            let deadline = [window_deadline, halo_deadline, staged_deadline]
                .into_iter()
                .flatten()
                .min();
            let wake = match deadline {
                Some(deadline) => {
                    let budget = deadline.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(budget) {
                        Ok(msg) => Some(msg),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => {
                            self.flush()?;
                            return Ok(self.engine);
                        }
                    }
                }
                None => match rx.recv() {
                    Ok(msg) => Some(msg),
                    Err(_) => return Ok(self.engine),
                },
            };
            match wake {
                Some(ShardMsg::Update(queued)) => {
                    self.depth.fetch_sub(1, Ordering::AcqRel);
                    self.absorb(queued)?;
                }
                Some(ShardMsg::Halos {
                    from,
                    window_seq,
                    messages,
                }) => self.accept_halos(from, window_seq, messages)?,
                Some(ShardMsg::Flush(ack)) => {
                    let epoch = self.flush()?;
                    // The caller may have given up waiting; ignore that.
                    let _ = ack.send(epoch);
                }
                Some(ShardMsg::Stop) => {
                    self.flush()?;
                    return Ok(self.engine);
                }
                // Time window expired.
                None => {
                    self.flush()?;
                }
            }
        }
    }
}

/// The per-shard engines recovered by [`ShardedServeHandle::shutdown`].
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

/// Handle onto a running sharded serving session (see [`spawn_sharded`]).
///
/// The sharded counterpart of [`crate::ServeHandle`]; both implement
/// [`crate::ServeFrontend`], so examples and consistency suites run
/// unchanged against either topology.
#[derive(Debug)]
pub struct ShardedServeHandle {
    txs: Vec<Sender<ShardMsg>>,
    depths: Vec<Arc<AtomicUsize>>,
    alive: Vec<Arc<AtomicBool>>,
    submitted: Vec<Arc<AtomicU64>>,
    /// Per-shard secondary (duplicate-delivery) submission counters,
    /// paired with `submitted` for deduplicated staleness stamps.
    secondary_submitted: Vec<Arc<AtomicU64>>,
    total_submitted: Arc<AtomicU64>,
    halo_in_flight: Arc<AtomicU64>,
    metrics: Arc<ServeMetrics>,
    /// Per-shard published snapshots. Like [`crate::ServeHandle`], the
    /// handle keeps the shared state, not readers, so it pins no epoch.
    snapshots: Vec<Arc<VersionedStore>>,
    /// Per-shard published IVF indexes (present iff [`ServeConfig::index`]).
    indexes: Option<Vec<Arc<VersionedIndex>>>,
    /// Per-shard index maintenance counters (empty when indexing is off).
    index_stats: Vec<Arc<SharedIndexStats>>,
    partitioning: Arc<Partitioning>,
    flush_logs: Vec<FlushLog>,
    halo_replicas: usize,
    config: ServeConfig,
    /// Per-shard recovery reports (one per shard iff the tier was spawned
    /// with [`ServeConfig::durability`]; empty otherwise).
    recovery: Vec<RecoveryReport>,
    /// Per-shard terminal-failure slots, filled by a worker before it
    /// exits abnormally.
    failures: Vec<Arc<Mutex<Option<ServeError>>>>,
    joins: Vec<JoinHandle<Result<ShardEngine, ServeError>>>,
}

impl ShardedServeHandle {
    /// A new producer handle that hash-routes updates to their owners.
    pub fn client(&self) -> ShardRouter {
        ShardRouter::new(
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

    /// A new query handle reading every shard's epoch sequence (each reader
    /// thread should own one).
    pub fn query_service(&self) -> crate::QueryService {
        crate::QueryService::new_sharded(
            self.snapshots.iter().map(VersionedStore::reader).collect(),
            self.indexes
                .as_ref()
                .map(|list| list.iter().map(VersionedIndex::reader).collect()),
            self.submitted.clone(),
            self.secondary_submitted.clone(),
            Arc::clone(&self.partitioning),
            Arc::clone(&self.metrics),
        )
    }

    /// The shared serving metrics (aggregated across shards).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Index maintenance counters summed across shards, or `None` when the
    /// session was spawned with [`crate::ServeConfigBuilder::no_index`].
    pub fn index_stats(&self) -> Option<IndexStats> {
        if self.index_stats.is_empty() {
            return None;
        }
        Some(
            self.index_stats
                .iter()
                .map(|s| s.snapshot())
                .fold(IndexStats::default(), IndexStats::merged),
        )
    }

    /// Number of shards behind this session.
    pub fn num_shards(&self) -> usize {
        self.txs.len()
    }

    /// The partitioning updates are routed by.
    pub fn partitioning(&self) -> &Arc<Partitioning> {
        &self.partitioning
    }

    /// Halo replicas of the bootstrap partitioning — vertices visible from
    /// a shard that does not own them (the cross-shard coupling the tier
    /// pays delta messages for).
    pub fn halo_replicas(&self) -> usize {
        self.halo_replicas
    }

    /// One flush round: forces every shard's window closed and returns the
    /// minimum per-shard epoch afterwards. Returns `None` once any shard
    /// has stopped. Cross-shard deltas produced by these flushes may still
    /// be in flight afterwards — use [`ShardedServeHandle::quiesce`] to
    /// drain them.
    pub fn flush(&self) -> Option<u64> {
        let mut acks = Vec::with_capacity(self.txs.len());
        for tx in &self.txs {
            let (ack_tx, ack_rx) = mpsc::channel();
            tx.send(ShardMsg::Flush(ack_tx)).ok()?;
            acks.push(ack_rx);
        }
        let mut min_epoch = u64::MAX;
        for ack in acks {
            min_epoch = min_epoch.min(ack.recv().ok()?);
        }
        Some(min_epoch)
    }

    /// Flushes repeatedly until no cross-shard delta is in flight and every
    /// shard queue is empty, then returns the minimum per-shard epoch.
    /// Converges in at most `num_layers` rounds once producers stop
    /// (messages only move to strictly higher hops).
    ///
    /// # Errors
    ///
    /// [`ServeError::ShardFailed`] naming the failed shard once any shard
    /// has stopped abnormally (engine failure, WAL failure, or panic).
    pub fn quiesce(&self) -> crate::Result<u64> {
        loop {
            let Some(epoch) = self.flush() else {
                return Err(self.tier_failure());
            };
            if self.halo_in_flight.load(Ordering::Acquire) == 0
                && self.depths.iter().all(|d| d.load(Ordering::Acquire) == 0)
            {
                return Ok(epoch);
            }
        }
    }

    /// Per-shard recovery reports, indexed by [`PartitionId`] (one per
    /// shard iff the tier was spawned with [`ServeConfig::durability`]).
    pub fn recovery_reports(&self) -> Vec<RecoveryReport> {
        self.recovery.clone()
    }

    /// The typed failure of the first shard that stopped abnormally.
    fn tier_failure(&self) -> ServeError {
        for (p, slot) in self.failures.iter().enumerate() {
            let failed = slot.lock().unwrap_or_else(|e| e.into_inner()).clone();
            if let Some(error) = failed {
                return ServeError::ShardFailed {
                    shard: p as u32,
                    error: Box::new(error),
                };
            }
        }
        ServeError::SchedulerPanicked
    }

    /// The per-shard flush logs, indexed by [`PartitionId`] (empty unless
    /// [`ServeConfig::record_batches`] is set); cloned so they stay
    /// readable after [`ShardedServeHandle::shutdown`].
    pub fn flush_logs(&self) -> Vec<FlushLog> {
        self.flush_logs.clone()
    }

    /// Quiesces the tier, stops every shard worker and returns the shard
    /// engines (with every accepted update and cross-shard delta applied).
    ///
    /// # Errors
    ///
    /// [`ServeError::ShardFailed`] naming the first shard that stopped
    /// abnormally and carrying its typed failure (engine error, WAL error,
    /// or [`ServeError::SchedulerPanicked`] for a caught panic).
    pub fn shutdown(self) -> Result<ShardedEngines, ServeError> {
        // Drain in-flight halos first so the recovered engines are at
        // quiescence; a dead shard aborts the drain and surfaces its error
        // from the join below.
        let _ = self.quiesce();
        for tx in &self.txs {
            let _ = tx.send(ShardMsg::Stop);
        }
        let mut engines = Vec::with_capacity(self.joins.len());
        for (p, join) in self.joins.into_iter().enumerate() {
            let shard = p as u32;
            match join.join() {
                Ok(Ok(engine)) => engines.push(engine),
                Ok(Err(e)) => {
                    return Err(ServeError::ShardFailed {
                        shard,
                        error: Box::new(e),
                    })
                }
                Err(_) => {
                    return Err(ServeError::ShardFailed {
                        shard,
                        error: Box::new(ServeError::SchedulerPanicked),
                    })
                }
            }
        }
        Ok(ShardedEngines {
            engines,
            partitioning: self.partitioning,
        })
    }
}

/// Spawns a sharded serving session: hash-partitions `graph` into `shards`
/// parts, builds one halo-restricted [`ShardEngine`] per part from the
/// bootstrapped `store`, and runs each behind its own scheduler thread and
/// snapshot publisher. Every shard's bootstrap store is published as its
/// epoch 0, so queries work immediately.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] if `shards` is zero or exceeds the
/// vertex count, and [`ServeError::Engine`] if graph/model/store shapes do
/// not fit together.
pub fn spawn_sharded(
    graph: &DynamicGraph,
    model: &GnnModel,
    store: &EmbeddingStore,
    engine_config: RippleConfig,
    config: ServeConfig,
    shards: usize,
) -> crate::Result<ShardedServeHandle> {
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
    let halo_replicas = HaloInfo::compute(graph, &partitioning).total_halo_replicas();

    let metrics = Arc::new(ServeMetrics::new());
    let total_submitted = Arc::new(AtomicU64::new(0));
    let halo_in_flight = Arc::new(AtomicU64::new(0));
    let mut txs = Vec::with_capacity(shards);
    let mut rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = mpsc::channel();
        txs.push(tx);
        rxs.push(rx);
    }

    let mut depths = Vec::with_capacity(shards);
    let mut alive = Vec::with_capacity(shards);
    let mut submitted = Vec::with_capacity(shards);
    let mut secondary_submitted = Vec::with_capacity(shards);
    let mut snapshots = Vec::with_capacity(shards);
    let mut indexes = config.index.map(|_| Vec::with_capacity(shards));
    let mut index_stats = Vec::new();
    let mut flush_logs = Vec::new();
    let mut recovery = Vec::new();
    let mut failures = Vec::with_capacity(shards);
    let mut joins = Vec::with_capacity(shards);

    for (p, rx) in rxs.into_iter().enumerate() {
        let part = PartitionId(p as u32);
        let mut engine = ShardEngine::new(
            graph,
            model.clone(),
            store.clone(),
            engine_config,
            Arc::clone(&partitioning),
            part,
        )?;
        // Per-shard durability: each shard logs and checkpoints its own
        // window sequence under `dir/shard-{p}/` and recovers it here,
        // exactly like the single-engine scheduler. Replay feeds each
        // frame's batch *and* logged received halos back through the
        // engine and discards the regenerated outgoing deltas — the peers
        // hold their own logs.
        let started = Instant::now();
        let durability = config.durability.as_ref().map(|d| d.for_shard(p));
        let mut window_seq = 0;
        let mut applied_seq = 0;
        let mut applied_secondary = 0;
        let mut epoch = 0;
        let mut halo_watermarks = vec![0u64; shards];
        let wal = match &durability {
            Some(d) => {
                let recovered = recover(&d.dir)?;
                let mut report = RecoveryReport {
                    from_checkpoint: false,
                    checkpoint_seq: 0,
                    replayed_windows: 0,
                    resumed_window_seq: recovered.resumed_window_seq(),
                    resumed_epoch: 0,
                    dropped_tail_bytes: recovered.dropped_tail_bytes,
                    recovery_time: Duration::ZERO,
                };
                if let Some(ckpt) = recovered.checkpoint {
                    report.from_checkpoint = true;
                    report.checkpoint_seq = ckpt.window_seq;
                    window_seq = ckpt.window_seq;
                    applied_seq = ckpt.applied_seq;
                    applied_secondary = ckpt.applied_secondary;
                    epoch = ckpt.epoch;
                    for (sender, seq) in &ckpt.halo_watermarks {
                        if let Some(slot) = halo_watermarks.get_mut(sender.index()) {
                            *slot = (*slot).max(*seq);
                        }
                    }
                    engine
                        .restore_state(ckpt.graph, ckpt.store, ckpt.topology_epoch)
                        .map_err(ServeError::Engine)?;
                }
                for frame in &recovered.frames {
                    let mut outgoing = Vec::new();
                    if !frame.batch.is_empty() || !frame.halos.is_empty() {
                        let (_stats, shipped) = engine
                            .process_window(&frame.batch, &frame.halos)
                            .map_err(ServeError::Engine)?;
                        outgoing = shipped;
                    }
                    // The frame's logged halo runs advance the dedup
                    // watermarks, exactly as they did when first logged.
                    for source in &frame.halo_sources {
                        if let Some(slot) = halo_watermarks.get_mut(source.from.index()) {
                            *slot = (*slot).max(source.window_seq);
                        }
                    }
                    // Re-ship the regenerated outgoing deltas: the originals
                    // may have been in flight (unapplied by their receivers)
                    // at the crash. Receivers whose logs already cover this
                    // `(shard, window_seq)` drop the duplicates.
                    let mut per_part: Vec<Vec<DeltaMessage>> = vec![Vec::new(); shards];
                    for (dest, message) in outgoing {
                        per_part[dest.index()].push(message);
                    }
                    for (dest, messages) in per_part.into_iter().enumerate() {
                        if messages.is_empty() {
                            continue;
                        }
                        halo_in_flight.fetch_add(1, Ordering::AcqRel);
                        let msg = ShardMsg::Halos {
                            from: part,
                            window_seq: frame.window_seq,
                            messages,
                        };
                        if txs[dest].send(msg).is_err() {
                            halo_in_flight.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                    report.replayed_windows += 1;
                    window_seq = frame.window_seq;
                    applied_seq = frame.applied_seq;
                    applied_secondary = frame.applied_secondary;
                    epoch = frame.epoch;
                }
                report.resumed_epoch = epoch;
                report.recovery_time = started.elapsed();
                recovery.push(report);
                Some(WalWriter::open(
                    &d.dir,
                    window_seq + 1,
                    d.segment_bytes,
                    d.fsync,
                    d.fail_points.clone(),
                )?)
            }
            None => None,
        };
        let (publisher, reader) = VersionedStore::bootstrap_at(
            engine.store(),
            epoch,
            applied_seq,
            applied_secondary,
            engine.topology_epoch(),
        );
        snapshots.push(Arc::clone(reader.shared()));
        // Each shard indexes only the rows it owns: the merged approximate
        // read scores every candidate from its owner's snapshot, exactly
        // like the merged exact scan.
        let index = config.index.map(|params| {
            let owned: Vec<bool> = partitioning
                .assignment()
                .iter()
                .map(|owner| *owner == part)
                .collect();
            let (maintainer, index_reader) =
                IndexMaintainer::bootstrap_at(engine.store(), Some(owned), params, epoch);
            if let Some(list) = &mut indexes {
                list.push(Arc::clone(index_reader.shared()));
            }
            index_stats.push(maintainer.shared_stats());
            maintainer
        });
        let flush_log = config.record_batches.then(FlushLog::new);
        if let Some(log) = &flush_log {
            flush_logs.push(log.clone());
        }
        let depth = Arc::new(AtomicUsize::new(0));
        depths.push(Arc::clone(&depth));
        let alive_flag = Arc::new(AtomicBool::new(true));
        alive.push(Arc::clone(&alive_flag));
        submitted.push(Arc::new(AtomicU64::new(0)));
        secondary_submitted.push(Arc::new(AtomicU64::new(0)));
        let failure: Arc<Mutex<Option<ServeError>>> = Arc::new(Mutex::new(None));
        failures.push(Arc::clone(&failure));
        let admission = AdmissionController::new(config.max_inflight);
        let worker = ShardWorker {
            part,
            engine,
            publisher,
            index,
            config: config.clone(),
            metrics: Arc::clone(&metrics),
            window: Coalescer::default(),
            pending_halos: Vec::new(),
            pending_halo_sources: Vec::new(),
            pending_halo_batches: 0,
            halo_watermarks,
            halo_oldest: None,
            applied_seq,
            applied_secondary,
            window_seq,
            wal,
            durability,
            flush_log,
            depth,
            halo_in_flight: Arc::clone(&halo_in_flight),
            peers: txs.clone(),
            admission,
        };
        let join = std::thread::Builder::new()
            .name(format!("ripple-serve-shard-{p}"))
            .spawn(move || {
                // Clear the liveness flag on any exit — clean, engine error
                // or panic — so blocked routers observe the dead shard.
                struct AliveGuard(Arc<AtomicBool>);
                impl Drop for AliveGuard {
                    fn drop(&mut self) {
                        self.0.store(false, Ordering::Release);
                    }
                }
                let _guard = AliveGuard(alive_flag);
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.run(rx)))
                        .unwrap_or(Err(ServeError::SchedulerPanicked));
                if let Err(e) = &result {
                    *failure.lock().unwrap_or_else(|e| e.into_inner()) = Some(e.clone());
                }
                result
            })
            .expect("spawning a shard worker thread");
        joins.push(join);
    }

    Ok(ShardedServeHandle {
        txs,
        depths,
        alive,
        submitted,
        secondary_submitted,
        total_submitted,
        halo_in_flight,
        metrics,
        snapshots,
        indexes,
        index_stats,
        partitioning,
        flush_logs,
        halo_replicas,
        config,
        recovery,
        failures,
        joins,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeFrontend, Submission};
    use ripple_core::RippleEngine;
    use ripple_gnn::layer_wise::full_inference;
    use ripple_gnn::Workload;
    use ripple_graph::stream::{build_stream, StreamConfig};
    use ripple_graph::synth::DatasetSpec;
    use ripple_graph::{GraphUpdate, UpdateBatch};

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
    fn frontend_trait_is_object_safe_enough_for_generic_drivers() {
        fn drive<F: ServeFrontend>(frontend: &F) -> (u64, usize) {
            let client = frontend.client();
            client.submit(GraphUpdate::add_edge(VertexId(1), VertexId(2)));
            let epoch = frontend.quiesce().unwrap();
            (epoch, frontend.num_shards())
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
            let mut snapshots = handle.snapshots[0].reader();
            let mut index = handle.indexes.as_ref().unwrap()[0].reader();
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
        let mut workers: Vec<ShardWorker> = (0..2)
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
                let (publisher, _reader) =
                    VersionedStore::bootstrap_at(engine.store(), 0, 0, 0, engine.topology_epoch());
                ShardWorker {
                    part,
                    engine,
                    publisher,
                    index: None,
                    config: config.clone(),
                    metrics: Arc::clone(&metrics),
                    window: Coalescer::default(),
                    pending_halos: Vec::new(),
                    pending_halo_sources: Vec::new(),
                    pending_halo_batches: 0,
                    halo_watermarks: vec![0; 2],
                    halo_oldest: None,
                    applied_seq: 0,
                    applied_secondary: 0,
                    window_seq: 0,
                    wal: None,
                    durability: None,
                    flush_log: Some(FlushLog::new()),
                    depth: Arc::new(AtomicUsize::new(0)),
                    halo_in_flight: Arc::clone(&halo_in_flight),
                    peers: txs.clone(),
                    admission: AdmissionController::new(config.max_inflight),
                }
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
                    let ShardMsg::Halos {
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
