//! The one commit pipeline behind every serving session.
//!
//! A [`Pipeline`] owns one [`ShardEngine`] and everything between its queue
//! and its readers. Every window goes through the same two steps:
//!
//! 1. **stage** — the coalescing window closes; the batch is validated
//!    against the engine's vertex range, feature width and edge set (an
//!    invalid window is refused here, before anything is logged); where
//!    groups merge it is footprinted against the staged group; its
//!    post-commit stamps are predicted, and it is WAL-appended unsynced and
//!    reserved;
//! 2. **drain** — the group fsyncs once, executes, and publishes window by
//!    window in `window_seq` order (index, store, visibility lag, flush
//!    record, outgoing halos); then the publish fail point fires and, when
//!    the group crossed the cadence, one checkpoint is cut.
//!
//! Each part of a session runs one pipeline, whose [`Peers`] hold the halo
//! mailbox, the dedup watermarks, the in-flight accounting and the senders
//! to every part. A one-part session is the same pipeline with no halos.
//!
//! A drained group executes as one merged engine pass only when its
//! windows carry real footprints: a one-part session at depth > 1, with
//! more than one window staged ([`ShardEngine::process_windows`]).
//! Otherwise it runs window by window (engine pass, index and store
//! publish, ship), and the depth only sets how many windows share one
//! fsync. Depth 1 is that second case with one window per group.

use crate::admission::{AdmissionController, StagedWindow};
use crate::durability::{
    recover, write_checkpoint_ref, CheckpointRef, DurabilityConfig, HaloSource, RecoveryReport,
    WalFrame, WalWriter, FP_AFTER_PUBLISH,
};
use crate::index::{IndexMaintainer, SharedIndexStats, VersionedIndex};
use crate::metrics::ServeMetrics;
use crate::scheduler::{Coalescer, FlushLog, FlushRecord, QueuedUpdate, ServeConfig, ServeError};
use crate::versioned::{SnapshotPublisher, SnapshotReader, VersionedStore};
use ripple_core::{DeltaMessage, Footprint, RippleError, ShardEngine};
use ripple_graph::{DynamicGraph, GraphUpdate, PartitionId, UpdateBatch, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Queue protocol between a pipeline thread and its producers: the
/// session's clients and its peer parts.
pub(crate) enum Msg {
    /// One raw update.
    Update(QueuedUpdate),
    /// The halo deltas of one of peer `from`'s committed windows. The
    /// `(from, window_seq)` tag makes delivery idempotent: recovery
    /// re-ships every replayed window's outgoing deltas (they may have
    /// been in flight at the crash), and receivers drop any batch at or
    /// below their per-sender watermark.
    Halos {
        from: PartitionId,
        window_seq: u64,
        messages: Vec<DeltaMessage>,
    },
    /// Force the current window closed; replies with the epoch after flush.
    Flush(mpsc::Sender<u64>),
    /// Flush, then exit the pipeline loop.
    Stop,
}

/// The peers of one part and its halo bookkeeping. A one-part session's
/// only peer is itself, and nothing is ever pending or in flight.
#[derive(Debug, Default)]
pub(crate) struct Peers {
    /// This shard's partition id (stamps outgoing halo batches).
    part: PartitionId,
    /// Senders to every shard of the tier, indexed by [`PartitionId`].
    senders: Vec<Sender<Msg>>,
    /// Tier-wide count of halo batches sent but not yet applied.
    in_flight: Arc<AtomicU64>,
    /// Of those, the batches this shard received and has not committed
    /// yet; released all at once if the pipeline stops on an error.
    held: u64,
    /// This shard's queue-depth counter, which the client enforces
    /// backpressure against.
    depth: Arc<AtomicUsize>,
    /// Per sender, the highest `window_seq` whose halo batch this shard
    /// has logged. Watermarks track *logged* batches only, so a
    /// checkpoint's watermarks never get ahead of its store.
    watermarks: Vec<u64>,
    /// Halo deltas received since the last window closed, with one
    /// `(sender, window_seq, count)` run per batch (logged into the next
    /// frame so recovery can restore the watermarks), the number of
    /// batches, and the arrival of the oldest (halo-only windows still
    /// close on the time window).
    pending: Vec<DeltaMessage>,
    pending_sources: Vec<HaloSource>,
    pending_batches: u64,
    oldest: Option<Instant>,
}

impl Peers {
    /// Shard `part` of a tier whose shards listen on `senders`.
    pub(crate) fn new(
        part: PartitionId,
        senders: Vec<Sender<Msg>>,
        in_flight: Arc<AtomicU64>,
        depth: Arc<AtomicUsize>,
    ) -> Self {
        Peers {
            part,
            watermarks: vec![0; senders.len()],
            senders,
            in_flight,
            depth,
            ..Peers::default()
        }
    }

    /// Raises each run's sender watermark (a sender outside the tier, read
    /// from a corrupt file, is ignored).
    fn advance(&mut self, runs: impl IntoIterator<Item = (PartitionId, u64)>) {
        for (from, window_seq) in runs {
            if let Some(slot) = self.watermarks.get_mut(from.index()) {
                *slot = (*slot).max(window_seq);
            }
        }
    }

    /// Releases `batches` held halo batches from the in-flight count.
    fn release(&mut self, batches: u64) {
        self.held -= batches;
        self.in_flight.fetch_sub(batches, Ordering::AcqRel);
    }

    /// Delivers one window's outgoing deltas, one [`Msg::Halos`] batch per
    /// destination shard.
    fn ship(&self, window_seq: u64, outgoing: Vec<(PartitionId, DeltaMessage)>) {
        if outgoing.is_empty() {
            return;
        }
        let mut per_part: Vec<Vec<DeltaMessage>> = vec![Vec::new(); self.senders.len()];
        for (part, message) in outgoing {
            per_part[part.index()].push(message);
        }
        for (part, messages) in per_part.into_iter().enumerate() {
            if messages.is_empty() {
                continue;
            }
            self.in_flight.fetch_add(1, Ordering::AcqRel);
            let msg = Msg::Halos {
                from: self.part,
                window_seq,
                messages,
            };
            if self.senders[part].send(msg).is_err() {
                // The peer already exited (error or shutdown).
                self.in_flight.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
}

/// What a staged window carries from reservation to publication: its WAL
/// frame, the halo batches behind `frame.halos` (released once it commits)
/// and the enqueue instants of its raw updates. The frame holds the
/// post-commit stamps predicted at append time: each is a deterministic
/// function of the pre-state and the window, so the frame can be logged
/// before the engine runs and recovery replay lands on the same stamps.
#[derive(Debug)]
struct WindowCommit {
    frame: WalFrame,
    halo_batches: u64,
    enqueues: Vec<Instant>,
}

/// The edge an update adds (`true`) or deletes (`false`).
fn edge_change(update: &GraphUpdate) -> Option<((VertexId, VertexId), bool)> {
    match update {
        GraphUpdate::AddEdge { src, dst, .. } => Some(((*src, *dst), true)),
        GraphUpdate::DeleteEdge { src, dst } => Some(((*src, *dst), false)),
        GraphUpdate::UpdateFeature { .. } => None,
    }
}

/// Refuses a window the engine would reject, before it is logged (where
/// every recovery replay would fail on it again): a feature update or edge
/// endpoint outside the vertex range, a feature of the wrong width, an add
/// of an edge that exists or a delete of one that does not. Edge presence
/// is the live `graph` amended by the `staged` windows (logged, not yet
/// applied) and by the window's own earlier updates, in the order the
/// engine applies them.
fn validate<'a>(
    graph: &DynamicGraph,
    staged: impl Iterator<Item = &'a UpdateBatch>,
    batch: &UpdateBatch,
) -> Result<(), RippleError> {
    let invalid = |why: String| Err(RippleError::InvalidUpdate(why));
    // Presence of every edge an earlier update of the sequence touched.
    let mut touched: HashMap<(VertexId, VertexId), bool> = staged
        .flat_map(UpdateBatch::iter)
        .filter_map(edge_change)
        .collect();
    for update in batch {
        match update {
            GraphUpdate::UpdateFeature { vertex, .. } if !graph.contains_vertex(*vertex) => {
                return invalid(format!("feature update for unknown vertex {vertex}"));
            }
            GraphUpdate::UpdateFeature { vertex, features }
                if features.len() != graph.feature_dim() =>
            {
                let (width, dim) = (features.len(), graph.feature_dim());
                return invalid(format!(
                    "feature update for {vertex} is {width}-wide, features are {dim}-wide"
                ));
            }
            GraphUpdate::AddEdge { src, dst, .. } | GraphUpdate::DeleteEdge { src, dst }
                if !graph.contains_vertex(*src) || !graph.contains_vertex(*dst) =>
            {
                return invalid(format!("edge update {src} -> {dst} with unknown endpoint"));
            }
            _ => {}
        }
        if let Some((edge @ (src, dst), adds)) = edge_change(update) {
            let present = touched
                .get(&edge)
                .copied()
                .unwrap_or_else(|| graph.has_edge(src, dst));
            if present == adds {
                let what = if adds {
                    "adds existing"
                } else {
                    "deletes missing"
                };
                return invalid(format!("edge update {what} edge {src} -> {dst}"));
            }
            touched.insert(edge, adds);
        }
    }
    Ok(())
}

/// One part's commit pipeline (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct Pipeline {
    pub(crate) engine: ShardEngine,
    publisher: SnapshotPublisher,
    /// The IVF top-k index (present iff [`ServeConfig::index`]).
    pub(crate) index: Option<IndexMaintainer>,
    max_batch: u64,
    max_delay: Duration,
    metrics: Arc<ServeMetrics>,
    window: Coalescer,
    applied_seq: u64,
    /// Of `applied_seq`, the secondary route copies of cross-shard edge
    /// updates (always 0 at one part).
    applied_secondary: u64,
    /// Monotone sequence of logged windows (see [`FlushRecord::window_seq`]).
    window_seq: u64,
    /// The write-ahead log and the configuration it was opened under.
    wal: Option<(WalWriter, DurabilityConfig)>,
    pub(crate) recovery: Option<RecoveryReport>,
    pub(crate) flush_log: Option<FlushLog>,
    /// Whether drained groups run as one merged engine pass: a one-part
    /// session above depth 1.
    merges: bool,
    admission: AdmissionController<WindowCommit>,
    peers: Peers,
}

impl Pipeline {
    /// Wraps `engine`, first recovering whatever `durability`'s directory
    /// holds: the latest valid checkpoint is restored and the WAL tail
    /// beyond it replayed window by window (re-shipping each replayed
    /// window's outgoing deltas, which may have been in flight at the
    /// crash), bit-identical to a session that never crashed because the
    /// engines are deterministic given the same windows. Then the store is
    /// published at the recovered epoch and the index is bootstrapped over
    /// the `owned` rows (all when `None`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Wal`] if the directory cannot be scanned or reopened;
    /// [`ServeError::Engine`] if checkpoint restore or WAL replay fails.
    pub(crate) fn new(
        mut engine: ShardEngine,
        config: &ServeConfig,
        durability: Option<DurabilityConfig>,
        owned: Option<Vec<bool>>,
        metrics: Arc<ServeMetrics>,
        mut peers: Peers,
    ) -> crate::Result<(Self, SnapshotReader)> {
        let started = Instant::now();
        let (mut window_seq, mut applied_seq, mut applied_secondary, mut epoch) = (0, 0, 0, 0);
        let mut recovery = None;
        let wal = match durability {
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
                    peers.advance(ckpt.halo_watermarks.iter().copied());
                    engine
                        .restore_state(ckpt.graph, ckpt.store, ckpt.topology_epoch)
                        .map_err(ServeError::Engine)?;
                }
                for frame in recovered.frames {
                    let mut outgoing = Vec::new();
                    if !frame.batch.is_empty() || !frame.halos.is_empty() {
                        let pass = engine.process_window(&frame.batch, &frame.halos);
                        outgoing = pass.map_err(ServeError::Engine)?.1;
                    }
                    peers.advance(frame.halo_sources.iter().map(|s| (s.from, s.window_seq)));
                    peers.ship(frame.window_seq, outgoing);
                    report.replayed_windows += 1;
                    window_seq = frame.window_seq;
                    applied_seq = frame.applied_seq;
                    applied_secondary = frame.applied_secondary;
                    epoch = frame.epoch;
                }
                report.resumed_epoch = epoch;
                report.recovery_time = started.elapsed();
                recovery = Some(report);
                let (next, fail) = (window_seq + 1, d.fail_points.clone());
                let writer = WalWriter::open(&d.dir, next, d.segment_bytes, d.fsync, fail)?;
                Some((writer, d))
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
        let index = config
            .index
            .map(|params| IndexMaintainer::bootstrap_at(engine.store(), owned, params, epoch).0);
        let merges = engine.partitioning().num_parts() == 1 && config.max_inflight > 1;
        let pipeline = Pipeline {
            engine,
            publisher,
            index,
            max_batch: config.max_batch as u64,
            max_delay: config.max_delay,
            metrics,
            window: Coalescer::default(),
            applied_seq,
            applied_secondary,
            window_seq,
            wal,
            recovery,
            flush_log: config.record_batches.then(FlushLog::new),
            merges,
            admission: AdmissionController::new(config.max_inflight),
            peers,
        };
        Ok((pipeline, reader))
    }

    /// Absorbs one update and closes the window once it holds
    /// [`ServeConfig::max_batch`] raw updates. Returns the last published
    /// epoch if a commit happened.
    pub(crate) fn absorb(&mut self, queued: QueuedUpdate) -> crate::Result<Option<u64>> {
        self.window.push(queued, &self.metrics);
        if self.window.raw_len() < self.max_batch {
            return Ok(None);
        }
        let closed = self.close_window();
        self.checked(closed)
    }

    /// Accepts one peer window's halo batch into the pending window,
    /// dropping a re-shipped batch this shard already logged. Heavy
    /// cross-shard traffic closes the size window too, so the mailbox
    /// cannot buffer unboundedly.
    pub(crate) fn accept_halos(
        &mut self,
        from: PartitionId,
        window_seq: u64,
        messages: Vec<DeltaMessage>,
    ) -> crate::Result<()> {
        let peers = &mut self.peers;
        peers.held += 1;
        let logged = peers.watermarks.get(from.index());
        if logged.is_none_or(|&logged| window_seq <= logged) {
            peers.release(1);
            return Ok(());
        }
        peers.oldest.get_or_insert_with(Instant::now);
        let count = messages.len() as u32;
        peers.pending_sources.push(HaloSource {
            from,
            window_seq,
            count,
        });
        peers.pending.extend(messages);
        peers.pending_batches += 1;
        if peers.pending.len() as u64 >= self.max_batch {
            let closed = self.close_window().map(drop);
            return self.checked(closed);
        }
        Ok(())
    }

    /// Stages the pending window (if any), then commits everything staged.
    /// With nothing pending or staged this publishes nothing and returns
    /// the current epoch.
    pub(crate) fn flush(&mut self) -> crate::Result<u64> {
        let flushed = self.stage_window().and_then(|_| self.drain_staged());
        self.checked(flushed)
    }

    /// Every error stops the pipeline: count an engine failure, and release
    /// the halo batches this shard still holds so that a concurrent
    /// quiesce observes the failure instead of spinning.
    fn checked<T>(&mut self, result: crate::Result<T>) -> crate::Result<T> {
        if let Err(e) = &result {
            if matches!(e, ServeError::Engine(_)) {
                self.metrics.record_engine_error();
            }
            self.peers.release(self.peers.held);
        }
        result
    }

    /// Stages the pending window and commits the group once it is full.
    fn close_window(&mut self) -> crate::Result<Option<u64>> {
        let drained = self.stage_window()?;
        if self.admission.is_full() {
            return self.drain_staged().map(Some);
        }
        Ok(drained)
    }

    /// The footprint a window stages with, computed against the live
    /// topology only where groups merge: at depth 1 a window always stages
    /// into an empty group, so its footprint is never compared.
    fn footprint(&self, batch: &UpdateBatch) -> Footprint {
        if self.merges {
            Footprint::for_batch(self.engine.graph(), self.engine.model(), batch)
        } else {
            Footprint::empty()
        }
    }

    /// Closes the pending window (updates and received halos), validates
    /// and footprints it, predicts its stamps, WAL-appends it unsynced (the
    /// group fsyncs once at drain) and reserves it. A window that conflicts
    /// with the staged group first forces that group to commit (the window
    /// is *serialized* behind it); the epoch that drain published is
    /// returned.
    fn stage_window(&mut self) -> crate::Result<Option<u64>> {
        if self.window.raw_len() == 0 && self.peers.pending.is_empty() {
            return Ok(None);
        }
        let (batch, raw, secondary, enqueues) = self.window.drain();
        let peers = &mut self.peers;
        let halos = std::mem::take(&mut peers.pending);
        let halo_sources = std::mem::take(&mut peers.pending_sources);
        let halo_batches = std::mem::take(&mut peers.pending_batches);
        peers.oldest = None;
        let staged = self
            .admission
            .staged()
            .iter()
            .map(|w| &w.payload.frame.batch);
        validate(self.engine.graph(), staged, &batch).map_err(ServeError::Engine)?;
        let mut footprint = self.footprint(&batch);
        let conflicted = !self.admission.admits(&footprint);
        if conflicted {
            self.metrics.record_conflict();
        }
        let mut drained = None;
        if conflicted || self.admission.is_full() {
            drained = Some(self.drain_staged()?);
            if conflicted {
                // The drained group committed the very writes this window's
                // cone intersects, and edges it added can extend that cone —
                // so the pre-drain footprint is stale. Re-footprint against
                // the post-commit topology before reserving, or a later
                // window overlapping the grown cone would be judged
                // disjoint and merged. The is_full drain needs no recompute:
                // an *admitted* window is disjoint from every staged write
                // set, so its cone cannot reach the edges the group added.
                footprint = self.footprint(&batch);
            }
        }
        // Chain the stamps off the last staged window (or the live counters
        // when the group is empty): each window publishes one epoch,
        // applies `raw` more updates, and bumps the topology epoch iff it
        // reaches the engine.
        let base = match self.admission.last() {
            Some(w) => {
                let f = &w.payload.frame;
                (
                    f.epoch,
                    f.applied_seq,
                    f.applied_secondary,
                    f.topology_epoch,
                )
            }
            None => (
                self.publisher.epoch(),
                self.applied_seq,
                self.applied_secondary,
                self.engine.topology_epoch(),
            ),
        };
        self.window_seq += 1;
        let frame = WalFrame {
            window_seq: self.window_seq,
            epoch: base.0 + 1,
            applied_seq: base.1 + raw,
            applied_secondary: base.2 + secondary,
            topology_epoch: base.3 + u64::from(!batch.is_empty() || !halos.is_empty()),
            raw,
            batch,
            halos,
            halo_sources,
        };
        // Log before apply, including the received halos: peers log what
        // they received in their own frames, so replaying one log alone
        // reproduces its store. Outgoing deltas are re-shipped on replay
        // instead, and the logged runs restore the watermarks that dedup
        // the re-delivery.
        if let Some((wal, _)) = &mut self.wal {
            wal.append_unsynced(&frame)?;
        }
        let runs = frame.halo_sources.iter().map(|s| (s.from, s.window_seq));
        self.peers.advance(runs);
        let commit = WindowCommit {
            frame,
            halo_batches,
            enqueues,
        };
        self.admission
            .reserve(StagedWindow::pending(self.window_seq, footprint, commit));
        Ok(drained)
    }

    /// Commits the staged group: one fsync covering every frame it
    /// appended, then per-window execution and epoch publication in
    /// `window_seq` order. Returns the last published epoch (the current
    /// one if nothing was staged).
    ///
    /// A merged group runs one engine pass (bit-identical to sequential
    /// passes because the group is pairwise footprint-disjoint), and each
    /// window publishes its share of the merged dirty set. Otherwise each
    /// window runs the engine, publishes the rows it dirtied and ships its
    /// outgoing deltas before the next one runs.
    fn drain_staged(&mut self) -> crate::Result<u64> {
        if self.admission.is_empty() {
            return Ok(self.publisher.epoch());
        }
        let mut group = self.admission.take_group();
        if let Some((wal, _)) = &mut self.wal {
            wal.sync()?;
        }
        // A merged group is one engine pass; otherwise each window is.
        let merged = self.merges && group.len() > 1;
        let pass_len = if merged { group.len() } else { 1 };
        let first_seq = group.first().map_or(0, StagedWindow::seq);
        let last_seq = group.last().map_or(0, StagedWindow::seq);
        let windows = group.len();
        let mut scratch: Vec<VertexId> = Vec::new();
        let mut epoch = self.publisher.epoch();
        for pass in group.chunks_mut(pass_len) {
            let batches: Vec<UpdateBatch> = pass
                .iter_mut()
                .map(|w| std::mem::take(&mut w.payload.frame.batch))
                .collect();
            // Only a single-window pass can carry halos.
            let mut halos = std::mem::take(&mut pass[0].payload.frame.halos);
            let has_halos = !halos.is_empty();
            let (pass_dirty, mut outgoing) = if merged {
                let dirty = self.engine.process_windows(&batches);
                (dirty.map_err(ServeError::Engine)?, Vec::new())
            } else if !batches[0].is_empty() || has_halos {
                let pass = self.engine.process_window(&batches[0], &halos);
                let (_stats, outgoing) = pass.map_err(ServeError::Engine)?;
                (self.engine.dirty_rows().to_vec(), outgoing)
            } else {
                (Vec::new(), Vec::new())
            };
            let last = pass.len() - 1;
            for (i, (window, batch)) in pass.iter_mut().zip(batches).enumerate() {
                let seq = window.seq();
                let ran_engine = !batch.is_empty() || has_halos;
                // The engine has run through this window unless it is an
                // earlier member of a merged pass: those publish their
                // predicted topology epoch and an index repaired from the
                // post-group store, which only the last window's snapshot
                // equals — so exact reads never prune on them.
                let paired = i == last;
                let predicted = window.payload.frame.topology_epoch;
                let topology_epoch = if paired {
                    self.engine.topology_epoch()
                } else {
                    predicted
                };
                debug_assert_eq!(
                    topology_epoch, predicted,
                    "predicted topology epoch drifted"
                );
                let dirty: &[VertexId] = if !ran_engine {
                    // Nothing reached the engine: the store is unchanged.
                    &[]
                } else if merged {
                    // This window's share of the merged dirty set. Rows
                    // outside it keep their previous-epoch values in the
                    // snapshot — exactly the serial schedule's state,
                    // because disjointness means no later group member
                    // wrote inside this window's footprint.
                    scratch.clear();
                    let footprint = window.footprint();
                    footprint.intersect_sorted_into(&pass_dirty, &mut scratch);
                    &scratch
                } else {
                    &pass_dirty
                };
                let commit = &mut window.payload;
                self.applied_seq = commit.frame.applied_seq;
                self.applied_secondary = commit.frame.applied_secondary;
                // Index first, store second: a reader that pairs the
                // freshest store with its cached index only ever sees an
                // index *ahead* of the store, never behind — and scores
                // always come from the store, so skew costs at most recall.
                if let Some(index) = &mut self.index {
                    if paired {
                        index.publish(self.engine.store(), Some(dirty));
                    } else {
                        index.publish_unpaired(self.engine.store(), Some(dirty));
                    }
                }
                epoch = self.publisher.publish_stamped(
                    self.engine.store(),
                    self.applied_seq,
                    self.applied_secondary,
                    topology_epoch,
                    Some(dirty),
                );
                debug_assert_eq!(epoch, commit.frame.epoch, "predicted epoch drifted");
                let published_at = Instant::now();
                for enqueued in commit.enqueues.drain(..) {
                    self.metrics
                        .record_visibility_lag(published_at.saturating_duration_since(enqueued));
                }
                self.metrics.record_flush(commit.frame.raw, ran_engine);
                if let Some(log) = &self.flush_log {
                    log.push(FlushRecord {
                        window_seq: seq,
                        batch,
                        halos: std::mem::take(&mut halos),
                        raw: commit.frame.raw,
                        epoch,
                        applied_seq: self.applied_seq,
                        topology_epoch,
                    });
                }
                // Ship before releasing the incoming accounting: the
                // in-flight counter must never read 0 while this window's
                // follow-on messages are still unsent, or a concurrent
                // quiesce would end early.
                let halo_batches = commit.halo_batches;
                window.commit();
                self.peers.ship(seq, std::mem::take(&mut outgoing));
                self.peers.release(halo_batches);
            }
        }
        self.metrics.record_admission_group(windows as u64);
        if let Some((_, d)) = &self.wal {
            if d.fail_points.fire(FP_AFTER_PUBLISH) {
                return Err(ServeError::Wal(format!(
                    "fail point {FP_AFTER_PUBLISH} fired after epoch {epoch} was published"
                )));
            }
            // One checkpoint per group at most, cut iff the group crossed a
            // cadence boundary (seq/every strictly grew across the group),
            // streamed from the live graph and store.
            let every = d.checkpoint_every;
            if every > 0 && last_seq / every > first_seq.saturating_sub(1) / every {
                let watermarks: Vec<(PartitionId, u64)> = (0..)
                    .map(PartitionId)
                    .zip(self.peers.watermarks.iter().copied())
                    .collect();
                let ckpt = CheckpointRef {
                    window_seq: last_seq,
                    epoch,
                    applied_seq: self.applied_seq,
                    applied_secondary: self.applied_secondary,
                    topology_epoch: self.engine.topology_epoch(),
                    graph: self.engine.graph(),
                    store: self.engine.store(),
                    halo_watermarks: &watermarks,
                };
                write_checkpoint_ref(&d.dir, &ckpt, d.fsync, &d.fail_points)?;
            }
        }
        Ok(epoch)
    }

    /// Drains the queue until every producer hangs up or a stop message
    /// arrives, flushing on the size and time windows. The time window
    /// bounds pending updates, pending halos and the oldest staged window
    /// alike: nothing accepted waits longer than `max_delay` to publish.
    fn run(mut self, rx: Receiver<Msg>) -> crate::Result<ShardEngine> {
        loop {
            let deadline = [
                self.window.deadline(self.max_delay),
                self.peers.oldest.map(|t| t + self.max_delay),
                self.admission.deadline(self.max_delay),
            ]
            .into_iter()
            .flatten()
            .min();
            let wake = match deadline {
                Some(deadline) => {
                    let budget = deadline.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(budget) {
                        Ok(msg) => Some(msg),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => Some(Msg::Stop),
                    }
                }
                None => match rx.recv() {
                    Ok(msg) => Some(msg),
                    Err(_) => return Ok(self.engine),
                },
            };
            match wake {
                Some(Msg::Update(queued)) => {
                    self.peers.depth.fetch_sub(1, Ordering::AcqRel);
                    self.absorb(queued)?;
                }
                Some(Msg::Halos {
                    from,
                    window_seq,
                    messages,
                }) => self.accept_halos(from, window_seq, messages)?,
                Some(Msg::Flush(ack)) => {
                    let epoch = self.flush()?;
                    // The caller may have given up waiting; ignore that.
                    let _ = ack.send(epoch);
                }
                Some(Msg::Stop) => {
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

/// A spawned pipeline as its session's handle sees it. The handle keeps
/// the shared published state, not readers, so it never pins an epoch.
#[derive(Debug)]
pub(crate) struct Running {
    pub(crate) snapshots: Arc<VersionedStore>,
    pub(crate) index: Option<Arc<VersionedIndex>>,
    pub(crate) index_stats: Option<Arc<SharedIndexStats>>,
    pub(crate) flush_log: Option<FlushLog>,
    pub(crate) recovery: Option<RecoveryReport>,
    /// The thread parks its terminal error here before exiting, so callers
    /// get the typed failure instead of a bare "thread gone".
    pub(crate) failure: Arc<Mutex<Option<ServeError>>>,
    pub(crate) join: JoinHandle<crate::Result<ShardEngine>>,
}

impl Running {
    /// The terminal error the thread stopped on, if it stopped abnormally.
    pub(crate) fn failure(&self) -> Option<ServeError> {
        self.failure
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Joins the thread (a stop message must be on its way), returning its
    /// engine or the typed failure it stopped on.
    pub(crate) fn stop(self) -> crate::Result<ShardEngine> {
        let Running { failure, join, .. } = self;
        // `spawn` catches panics inside the thread, so a join error is a
        // panic that escaped the harness (e.g. in thread teardown).
        join.join().unwrap_or_else(|_| {
            let failure = failure.lock().unwrap_or_else(PoisonError::into_inner);
            Err(failure.clone().unwrap_or(ServeError::SchedulerPanicked))
        })
    }
}

impl Pipeline {
    /// Runs the pipeline on a thread named `name`, draining `rx`. A panic
    /// is caught and reported as [`ServeError::SchedulerPanicked`]; on any
    /// exit, after the failure slot is filled, `alive` is cleared so
    /// blocked clients observe the dead part.
    pub(crate) fn spawn(self, name: String, rx: Receiver<Msg>, alive: Arc<AtomicBool>) -> Running {
        let failure: Arc<Mutex<Option<ServeError>>> = Arc::default();
        let slot = Arc::clone(&failure);
        let snapshots = Arc::clone(self.publisher.reader().shared());
        let index = self.index.as_ref().map(|i| Arc::clone(i.reader().shared()));
        let index_stats = self.index.as_ref().map(IndexMaintainer::shared_stats);
        let (flush_log, recovery) = (self.flush_log.clone(), self.recovery.clone());
        // Spawning fails only when the OS cannot create a thread at all;
        // a serving tier cannot run without its pipeline threads.
        #[allow(clippy::expect_used)]
        let join = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let run = std::panic::AssertUnwindSafe(|| self.run(rx));
                let result =
                    std::panic::catch_unwind(run).unwrap_or(Err(ServeError::SchedulerPanicked));
                if let Err(e) = &result {
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(e.clone());
                }
                alive.store(false, Ordering::Release);
                result
            })
            .expect("spawning a serving pipeline thread");
        Running {
            snapshots,
            index,
            index_stats,
            flush_log,
            recovery,
            failure,
            join,
        }
    }
}
