//! The update-coalescing scheduler: its configuration, its outcomes and
//! errors, and the coalescing window every part of a session runs.
//!
//! Producers submit [`GraphUpdate`]s through cloneable
//! [`crate::UpdateClient`] handles into a **bounded** queue per part
//! (backpressure: block or shed). Each part's thread drains its queue into
//! a coalescing window and flushes it into the engine when either window
//! closes:
//!
//! * **size window** — the window holds [`ServeConfig::max_batch`] raw
//!   updates;
//! * **time window** — the oldest raw update in the window is older than
//!   [`ServeConfig::max_delay`].
//!
//! Within a window, same-key churn is deduplicated *exactly*: repeated
//! feature rewrites of one vertex keep only the last value, and an edge
//! addition cancelled by a later deletion of the same edge is dropped
//! entirely. Both rewrites preserve the final graph and feature state, and
//! the engines are exact with respect to that state (pinned by the
//! workspace's exactness suites), so the coalesced batch commits the same
//! embeddings as replaying the raw window.
//!
//! After each flush the scheduler publishes a new [`EpochSnapshot`] through
//! the [`SnapshotPublisher`], which is what makes the batch visible to
//! readers — queries never touch the engine's working store.
//!
//! Everything after the queue — validation, admission, WAL, engine, index
//! and store publication, checkpoints, recovery — is the crate's one commit
//! pipeline (`pipeline.rs`), which every part of every session runs: a
//! [`crate::spawn`]ed session is one part with no halos.

use crate::durability::DurabilityConfig;
use crate::index::IndexParams;
use crate::metrics::ServeMetrics;
use ripple_core::{DeltaMessage, RippleError};
use ripple_graph::{GraphUpdate, UpdateBatch, VertexId};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

#[cfg(doc)]
use crate::versioned::{EpochSnapshot, SnapshotPublisher};

/// What a full queue does to the next submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the submitting thread until the scheduler drains a slot — the
    /// closed-loop default: producers slow down to the engine's pace.
    #[default]
    Block,
    /// Reject the update immediately ([`Submission::Shed`]) and count it —
    /// the load-shedding mode for latency-sensitive ingest paths.
    Shed,
}

/// Configuration of the serving scheduler.
///
/// Construct it through [`ServeConfig::builder`] (or take
/// [`ServeConfig::default`]): the builder validates the knobs once up front
/// so a session can never start with a queue or window it cannot service.
/// The struct is `#[non_exhaustive]` — downstream crates read the fields
/// freely but cannot assemble unvalidated literals.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Bounded queue capacity between producers and each part's thread.
    pub queue_capacity: usize,
    /// Size window: flush once this many raw updates are pending.
    pub max_batch: usize,
    /// Time window: flush once the oldest pending update is this old.
    pub max_delay: Duration,
    /// Reaction to a full queue.
    pub policy: BackpressurePolicy,
    /// Record every flushed batch (with its raw-update count and epoch) for
    /// post-hoc inspection — used by the linearizability tests; off in
    /// production to avoid unbounded growth.
    pub record_batches: bool,
    /// Parameters of the epoch-repaired IVF top-k index maintained next to
    /// the snapshots ([`crate::ReadMode::Approx`] reads probe it). `None`
    /// disables the index; approximate reads then fail with
    /// [`ServeError::InvalidQuery`].
    pub index: Option<IndexParams>,
    /// Durability: write-ahead log + epoch checkpoints under the configured
    /// directory, with crash recovery on session start. `None` (the
    /// default) serves purely in memory.
    pub durability: Option<DurabilityConfig>,
    /// In-flight admission depth (see [`crate::admission`]): how many
    /// closed windows one staged group may hold before it commits. The
    /// default 1 is the serial pipeline, one window committed at a time.
    /// Above 1, a one-part session merges footprint-disjoint windows into
    /// one engine pass; a session of more parts commits that many windows
    /// behind one fsync.
    pub max_inflight: usize,
}

impl ServeConfig {
    /// Upper bound the builder clamps [`ServeConfig::max_delay`] to; a time
    /// window beyond this just turns the serving tier into an offline batch
    /// job.
    pub const MAX_DELAY: Duration = Duration::from_secs(5);

    /// Starts a builder seeded with the default configuration.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 1024,
            max_batch: 64,
            max_delay: Duration::from_millis(2),
            policy: BackpressurePolicy::Block,
            record_batches: false,
            index: Some(IndexParams::default()),
            durability: None,
            max_inflight: 1,
        }
    }
}

/// Validating builder for [`ServeConfig`] — the only way to assemble a
/// non-default configuration outside this crate.
///
/// # Example
///
/// ```
/// use ripple_serve::ServeConfig;
///
/// let config = ServeConfig::builder()
///     .max_batch(16)
///     .queue_capacity(256)
///     .build()
///     .unwrap();
/// assert_eq!(config.max_batch, 16);
/// assert!(ServeConfig::builder().max_batch(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the bounded queue capacity (must be non-zero).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the size window (must be non-zero).
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Sets the time window; clamped to [`ServeConfig::MAX_DELAY`] at build
    /// time.
    #[must_use]
    pub fn max_delay(mut self, max_delay: Duration) -> Self {
        self.config.max_delay = max_delay;
        self
    }

    /// Sets the backpressure policy.
    #[must_use]
    pub fn policy(mut self, policy: BackpressurePolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Enables or disables flush-window recording.
    #[must_use]
    pub fn record_batches(mut self, record: bool) -> Self {
        self.config.record_batches = record;
        self
    }

    /// Sets the IVF top-k index parameters (validated at build time).
    #[must_use]
    pub fn index(mut self, params: IndexParams) -> Self {
        self.config.index = Some(params);
        self
    }

    /// Disables the top-k index; [`crate::ReadMode::Approx`] reads against
    /// the session will fail with [`ServeError::InvalidQuery`].
    #[must_use]
    pub fn no_index(mut self) -> Self {
        self.config.index = None;
        self
    }

    /// Enables durability: every flushed window is WAL-logged before it is
    /// applied, checkpoints are cut every
    /// [`DurabilityConfig::checkpoint_every`] windows, and session start
    /// recovers whatever state the directory holds.
    #[must_use]
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.config.durability = Some(durability);
        self
    }

    /// Sets the in-flight admission depth ([`ServeConfig::max_inflight`]),
    /// clamped to at least 1. At one part, footprint-disjoint windows stage
    /// together and execute as one merged engine pass; at more parts, up to
    /// `max_inflight` windows share one fsync. Either way windows commit in
    /// `window_seq` order.
    #[must_use]
    pub fn concurrent_admission(mut self, max_inflight: usize) -> Self {
        self.config.max_inflight = max_inflight.max(1);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `queue_capacity` or
    /// `max_batch` is zero. `max_delay` is clamped, not rejected.
    pub fn build(self) -> crate::Result<ServeConfig> {
        let mut config = self.config;
        if config.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be non-zero (every session needs at least one queue slot)"
                    .to_string(),
            ));
        }
        if config.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be non-zero (the size window could never close)".to_string(),
            ));
        }
        if let Some(index) = &config.index {
            if index.kmeans_iters == 0 {
                return Err(ServeError::InvalidConfig(
                    "index.kmeans_iters must be non-zero (centroids would never refine)"
                        .to_string(),
                ));
            }
            if !(index.split_factor > 1.0 && index.split_factor.is_finite()) {
                return Err(ServeError::InvalidConfig(
                    "index.split_factor must be a finite factor > 1.0".to_string(),
                ));
            }
        }
        if let Some(durability) = &config.durability {
            if durability.dir.as_os_str().is_empty() {
                return Err(ServeError::InvalidConfig(
                    "durability.dir must name a directory".to_string(),
                ));
            }
            if durability.segment_bytes == 0 {
                return Err(ServeError::InvalidConfig(
                    "durability.segment_bytes must be non-zero".to_string(),
                ));
            }
        }
        config.max_delay = config.max_delay.min(ServeConfig::MAX_DELAY);
        Ok(config)
    }
}

/// Outcome of [`crate::UpdateClient::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// Accepted; `seq` is the accepted-update counter after this submission
    /// (with a single producer this is the update's 1-based stream position).
    Enqueued {
        /// Accepted-update counter value after this submission.
        seq: u64,
    },
    /// Rejected by the [`BackpressurePolicy::Shed`] policy: the queue was
    /// full.
    Shed,
    /// The scheduler has shut down (or its engine failed); no further
    /// updates are accepted.
    Closed,
}

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The driven engine failed while applying a flushed batch; the engine
    /// is poisoned and the scheduler has stopped.
    Engine(RippleError),
    /// The scheduler thread terminated abnormally (panic).
    SchedulerPanicked,
    /// The durability layer failed (WAL append, checkpoint write, or a
    /// recovery scan found an unreplayable log). The session is poisoned:
    /// the affected window may or may not be durable, and only a restart's
    /// recovery pass can tell.
    Wal(String),
    /// A shard of the sharded tier failed; `error` is the shard-local
    /// failure (engine error, WAL error, or panic).
    ShardFailed {
        /// Partition id of the failed shard.
        shard: u32,
        /// The shard-local failure.
        error: Box<ServeError>,
    },
    /// A [`ServeConfigBuilder`] or sharded-session parameter failed
    /// validation; the message names the offending knob.
    InvalidConfig(String),
    /// A read request failed validation before touching any snapshot: zero
    /// `k`, zero `nprobe`, a query vector with a non-finite component (NaN
    /// or ±∞), a query vector whose width does not match the embedding
    /// width, or an approximate read against a session without an index.
    /// The message names the offending parameter.
    InvalidQuery(String),
    /// A point read named a vertex outside the served id space.
    UnknownVertex(VertexId),
    /// A read carried a [`crate::TopKRequest::min_epoch`] floor the
    /// freshest published epoch has not reached yet; retry after the next
    /// flush.
    StaleRead {
        /// The read-your-writes floor the caller demanded.
        floor: u64,
        /// The epoch actually served (minimum across shards when sharded).
        epoch: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "serving engine error: {e}"),
            ServeError::SchedulerPanicked => f.write_str("scheduler thread panicked"),
            ServeError::Wal(why) => write!(f, "durability error: {why}"),
            ServeError::ShardFailed { shard, error } => {
                write!(f, "shard {shard} failed: {error}")
            }
            ServeError::InvalidConfig(why) => write!(f, "invalid serving configuration: {why}"),
            ServeError::InvalidQuery(why) => write!(f, "invalid query: {why}"),
            ServeError::UnknownVertex(v) => {
                write!(f, "vertex {} is outside the served id space", v.index())
            }
            ServeError::StaleRead { floor, epoch } => write!(
                f,
                "read floor not reached: min_epoch {floor} demanded, epoch {epoch} served"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            ServeError::ShardFailed { error, .. } => Some(&**error),
            ServeError::SchedulerPanicked
            | ServeError::Wal(_)
            | ServeError::InvalidConfig(_)
            | ServeError::InvalidQuery(_)
            | ServeError::UnknownVertex(_)
            | ServeError::StaleRead { .. } => None,
        }
    }
}

impl From<RippleError> for ServeError {
    fn from(e: RippleError) -> Self {
        ServeError::Engine(e)
    }
}

/// One update travelling through the queue.
#[derive(Debug)]
pub(crate) struct QueuedUpdate {
    pub(crate) update: GraphUpdate,
    pub(crate) enqueued: Instant,
    /// Whether this is the **second** routed copy of a cross-shard edge
    /// update (always `false` at one part). Secondary copies are excluded
    /// from the deduplicated staleness of merged reads.
    pub(crate) secondary: bool,
}

/// One flushed window, as recorded when [`ServeConfig::record_batches`] is
/// set: the coalesced batch the engine processed, the number of raw updates
/// the window covered, and the epoch the result was published at.
#[derive(Debug, Clone)]
pub struct FlushRecord {
    /// Monotone 1-based sequence of this flushed window. Distinguishes an
    /// *empty* flush (a window that fully cancelled out — logged, publishes
    /// an epoch, bumps the sequence) from a *skipped* flush (nothing
    /// pending — not logged, no sequence consumed), which is what recovery
    /// replay keys on.
    pub window_seq: u64,
    /// The coalesced batch handed to the engine (possibly empty if the
    /// whole window cancelled out).
    pub batch: UpdateBatch,
    /// Halo deltas received from peer shards and absorbed in this window
    /// (always empty at one part). Replaying `batch` and
    /// `halos` together reproduces the shard's published store bit for bit.
    pub halos: Vec<DeltaMessage>,
    /// Raw accepted updates covered by this window.
    pub raw: u64,
    /// Epoch the post-batch store was published at.
    pub epoch: u64,
    /// Cumulative raw updates applied up to and including this window.
    pub applied_seq: u64,
    /// The engine's topology epoch as of this publication.
    pub topology_epoch: u64,
}

/// Shared handle onto a session's recorded flush windows (present iff
/// [`ServeConfig::record_batches`] is set).
///
/// The handle is cheap to clone and stays readable after the session shuts
/// down, which is how the consistency suites replay a serving run: take the
/// [`FlushLog::snapshot`], feed every record's batch (and, for a shard, its
/// halos) through a fresh engine, and compare stores bit for bit.
#[derive(Debug, Clone, Default)]
pub struct FlushLog {
    records: Arc<Mutex<Vec<FlushRecord>>>,
}

impl FlushLog {
    pub(crate) fn new() -> Self {
        FlushLog::default()
    }

    /// The records. A panic while the lock is held cannot leave the vector
    /// half-pushed, so a poisoned lock is still consistent.
    fn records(&self) -> MutexGuard<'_, Vec<FlushRecord>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn push(&self, record: FlushRecord) {
        self.records().push(record);
    }

    /// A point-in-time copy of every recorded flush window, in flush order.
    pub fn snapshot(&self) -> Vec<FlushRecord> {
        self.records().clone()
    }

    /// Number of recorded flush windows so far.
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// Whether nothing has been flushed (or recording produced no windows).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The coalescing window: pending updates with same-key churn deduplicated.
#[derive(Debug, Default)]
pub(crate) struct Coalescer {
    /// Pending updates in arrival order; cancelled slots are `None`.
    items: Vec<Option<GraphUpdate>>,
    /// Enqueue instant of every raw update of the window (for lag stats).
    enqueues: Vec<Instant>,
    /// Position of the pending feature rewrite per vertex.
    feature_idx: HashMap<VertexId, usize>,
    /// Position of the pending (uncancelled) addition per edge.
    added_idx: HashMap<(VertexId, VertexId), usize>,
    /// Raw updates absorbed since the last flush.
    raw: u64,
    /// Of `raw`, how many were secondary route copies (see
    /// [`QueuedUpdate::secondary`]).
    secondary: u64,
    /// Enqueue instant of the window's first raw update.
    oldest: Option<Instant>,
}

impl Coalescer {
    /// Absorbs one raw update, deduplicating against the pending window.
    pub(crate) fn push(&mut self, queued: QueuedUpdate, metrics: &ServeMetrics) {
        self.raw += 1;
        self.secondary += u64::from(queued.secondary);
        self.oldest.get_or_insert(queued.enqueued);
        self.enqueues.push(queued.enqueued);
        match queued.update {
            GraphUpdate::UpdateFeature { vertex, .. } => {
                if let Some(&i) = self.feature_idx.get(&vertex) {
                    // Keep-last: only the final value is observable, and the
                    // engines are exact w.r.t. final features.
                    self.items[i] = Some(queued.update);
                    metrics.record_coalesced(1);
                } else {
                    self.feature_idx.insert(vertex, self.items.len());
                    self.items.push(Some(queued.update));
                }
            }
            GraphUpdate::AddEdge { src, dst, .. } => {
                self.added_idx.insert((src, dst), self.items.len());
                self.items.push(Some(queued.update));
            }
            GraphUpdate::DeleteEdge { src, dst } => {
                if let Some(i) = self.added_idx.remove(&(src, dst)) {
                    // In-window add → delete churn: in any stream that is
                    // valid update-by-update the edge did not exist before
                    // the addition, so the pair is a no-op and both sides
                    // are dropped.
                    self.items[i] = None;
                    metrics.record_coalesced(2);
                } else {
                    self.items.push(Some(queued.update));
                }
            }
        }
    }

    /// Raw updates pending (including coalesced-away ones).
    pub(crate) fn raw_len(&self) -> u64 {
        self.raw
    }

    /// The instant at which the time window closes, if anything is pending.
    pub(crate) fn deadline(&self, max_delay: Duration) -> Option<Instant> {
        self.oldest.map(|t| t + max_delay)
    }

    /// Empties the window, returning the coalesced batch, the raw count,
    /// the secondary-copy count within it and the enqueue instants of every
    /// covered raw update.
    pub(crate) fn drain(&mut self) -> (UpdateBatch, u64, u64, Vec<Instant>) {
        let updates: Vec<GraphUpdate> = self.items.drain(..).flatten().collect();
        self.feature_idx.clear();
        self.added_idx.clear();
        self.oldest = None;
        let raw = std::mem::take(&mut self.raw);
        let secondary = std::mem::take(&mut self.secondary);
        let enqueues = std::mem::take(&mut self.enqueues);
        (UpdateBatch::from_updates(updates), raw, secondary, enqueues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::VersionedIndex;
    use crate::pipeline::{Peers, Pipeline};
    use crate::versioned::SnapshotReader;
    use crate::{spawn, Submission, UpdateClient};
    use ripple_core::{RippleConfig, RippleEngine, ShardEngine};
    use ripple_gnn::layer_wise::full_inference;
    use ripple_gnn::{EmbeddingStore, GnnModel, Workload};
    use ripple_graph::partition::Partitioning;
    use ripple_graph::stream::{build_stream, StreamConfig};
    use ripple_graph::synth::DatasetSpec;
    use ripple_graph::{DynamicGraph, PartitionId};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    use std::sync::mpsc;

    fn bootstrap(seed: u64) -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<GraphUpdate>) {
        let full = DatasetSpec::custom(120, 4.0, 6, 4).generate(seed).unwrap();
        let plan = build_stream(
            &full,
            &StreamConfig {
                total_updates: 40,
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

    fn engine(graph: DynamicGraph, model: GnnModel, store: EmbeddingStore) -> RippleEngine {
        RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap()
    }

    /// A one-part pipeline over `engine`, driven synchronously (no
    /// thread): [`Pipeline::absorb`] and [`Pipeline::flush`] commit on the
    /// caller's thread. Its one peer is a queue nobody reads: one part
    /// ships no halo.
    fn pipeline(
        engine: RippleEngine,
        config: ServeConfig,
        metrics: &Arc<ServeMetrics>,
    ) -> (Pipeline, SnapshotReader) {
        let durability = config.durability.clone();
        let (tx, _rx) = mpsc::channel();
        let depth = Arc::new(AtomicUsize::new(0));
        let peers = Peers::new(PartitionId(0), vec![tx], Arc::default(), depth);
        let metrics = Arc::clone(metrics);
        let engine = ShardEngine::whole(engine).unwrap();
        Pipeline::new(engine, &config, durability, None, metrics, peers).unwrap()
    }

    fn queued(update: GraphUpdate, enqueued: Instant) -> QueuedUpdate {
        QueuedUpdate {
            update,
            enqueued,
            secondary: false,
        }
    }

    #[test]
    fn coalescer_keeps_last_feature_rewrite_in_place() {
        let metrics = ServeMetrics::new();
        let mut w = Coalescer::default();
        let now = Instant::now();
        let push = |w: &mut Coalescer, u: GraphUpdate| w.push(queued(u, now), &metrics);
        push(&mut w, GraphUpdate::update_feature(VertexId(1), vec![1.0]));
        push(&mut w, GraphUpdate::add_edge(VertexId(1), VertexId(2)));
        push(&mut w, GraphUpdate::update_feature(VertexId(1), vec![2.0]));
        let (batch, raw, secondary, enqueues) = w.drain();
        assert_eq!(raw, 3);
        assert_eq!(secondary, 0);
        assert_eq!(enqueues.len(), 3);
        assert_eq!(batch.len(), 2, "two rewrites collapse to one");
        assert_eq!(
            batch.updates()[0],
            GraphUpdate::update_feature(VertexId(1), vec![2.0]),
            "the surviving rewrite keeps the first occurrence's position"
        );
        assert_eq!(metrics.coalesced(), 1);
    }

    #[test]
    fn coalescer_cancels_add_then_delete_churn() {
        let metrics = ServeMetrics::new();
        let mut w = Coalescer::default();
        let now = Instant::now();
        let mut push = |u: GraphUpdate| w.push(queued(u, now), &metrics);
        push(GraphUpdate::add_edge(VertexId(0), VertexId(1)));
        push(GraphUpdate::delete_edge(VertexId(0), VertexId(1)));
        // Delete of an edge that predates the window must survive.
        push(GraphUpdate::delete_edge(VertexId(2), VertexId(3)));
        // Add after the cancelled pair is an independent new addition.
        push(GraphUpdate::add_edge(VertexId(0), VertexId(1)));
        let (batch, raw, _, _) = w.drain();
        assert_eq!(raw, 4);
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch.updates()[0],
            GraphUpdate::delete_edge(VertexId(2), VertexId(3))
        );
        assert_eq!(
            batch.updates()[1],
            GraphUpdate::add_edge(VertexId(0), VertexId(1))
        );
        assert_eq!(metrics.coalesced(), 2);
    }

    #[test]
    fn coalesced_window_commits_the_same_embeddings_as_the_raw_stream() {
        let (graph, model, store, _) = bootstrap(3);
        // A churn-heavy window: feature rewrites and add/delete pairs.
        let raw = vec![
            GraphUpdate::update_feature(VertexId(4), vec![0.5; 6]),
            GraphUpdate::add_edge(VertexId(4), VertexId(90)),
            GraphUpdate::update_feature(VertexId(4), vec![1.0; 6]),
            GraphUpdate::add_edge(VertexId(5), VertexId(91)),
            GraphUpdate::delete_edge(VertexId(5), VertexId(91)),
            GraphUpdate::update_feature(VertexId(7), vec![0.25; 6]),
        ];

        // Reference: the raw window applied verbatim.
        let mut reference = engine(graph.clone(), model.clone(), store.clone());
        reference
            .process_batch(&UpdateBatch::from_updates(raw.clone()))
            .unwrap();

        // Serve path: the same window absorbed through the coalescer.
        let metrics = Arc::new(ServeMetrics::new());
        let (mut scheduler, _reader) = pipeline(
            engine(graph, model, store),
            ServeConfig {
                max_batch: 100,
                ..Default::default()
            },
            &metrics,
        );
        let now = Instant::now();
        for u in raw {
            scheduler.absorb(queued(u, now)).unwrap();
        }
        let epoch = scheduler.flush().unwrap();
        assert_eq!(epoch, 1);
        assert!(metrics.coalesced() >= 3);
        let served = scheduler.engine;
        let diff = served
            .store()
            .max_diff_all_layers(reference.store())
            .unwrap();
        assert!(
            diff < 1e-5,
            "coalescing drifted from the raw stream: {diff}"
        );
    }

    #[test]
    fn size_window_triggers_flush_inside_absorb() {
        let (graph, model, store, updates) = bootstrap(5);
        let metrics = Arc::new(ServeMetrics::new());
        let (mut scheduler, mut reader) = pipeline(
            engine(graph, model, store),
            ServeConfig {
                max_batch: 4,
                ..Default::default()
            },
            &metrics,
        );
        let now = Instant::now();
        let mut flushes = 0;
        for u in updates.iter().take(12).cloned() {
            if scheduler.absorb(queued(u, now)).unwrap().is_some() {
                flushes += 1;
            }
        }
        assert_eq!(flushes, 3, "12 updates at max_batch=4");
        assert_eq!(metrics.epochs(), 3);
        assert_eq!(metrics.applied(), 12);
        assert_eq!(reader.epoch(), 3);
        assert_eq!(reader.snapshot().applied_seq(), 12);
    }

    #[test]
    fn fully_cancelled_window_still_publishes_an_epoch() {
        let (graph, model, store, _) = bootstrap(7);
        let metrics = Arc::new(ServeMetrics::new());
        let (mut scheduler, mut reader) = pipeline(
            engine(graph, model, store),
            ServeConfig {
                max_batch: 100,
                ..Default::default()
            },
            &metrics,
        );
        let now = Instant::now();
        scheduler
            .absorb(queued(
                GraphUpdate::add_edge(VertexId(0), VertexId(99)),
                now,
            ))
            .unwrap();
        scheduler
            .absorb(queued(
                GraphUpdate::delete_edge(VertexId(0), VertexId(99)),
                now,
            ))
            .unwrap();
        let epoch = scheduler.flush().unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(metrics.batches(), 0, "no engine work for a no-op window");
        assert_eq!(metrics.applied(), 2, "raw updates still count as applied");
        assert_eq!(reader.snapshot().applied_seq(), 2);
        // Flushing an empty window is a no-op that reports the epoch.
        assert_eq!(scheduler.flush().unwrap(), 1);
    }

    /// Spawns a tier over an engine with `threads` worker threads, serves a
    /// stream through it, and checks the served engine and its published
    /// final-layer table against a 1-thread replay of the flushed windows.
    fn serve_submitted_updates(threads: usize) {
        let (graph, model, store, updates) = bootstrap(9);
        let reference_updates = updates.clone();
        let handle = spawn(
            engine(graph.clone(), model.clone(), store.clone()).with_threads(threads),
            ServeConfig {
                max_batch: 8,
                record_batches: true,
                ..Default::default()
            },
        )
        .unwrap();
        let client = handle.client();
        let offered = updates.len();
        assert!(offered > 0);
        let (accepted, last) = client.submit_all(updates);
        assert_eq!(accepted, offered);
        assert!(matches!(last, Submission::Enqueued { .. }));
        let epoch = handle.flush().expect("scheduler alive");
        assert!(epoch >= 1);

        let mut queries = handle.query_service();
        let stamped = queries.read_label(VertexId(0)).unwrap();
        assert!(stamped.epoch >= 1);
        let final_layer = model.num_layers();
        let published: Vec<Vec<f32>> = (0..graph.num_vertices())
            .map(|v| queries.read_embedding(VertexId(v as u32)).unwrap().value)
            .collect();

        let log = handle.flush_log().expect("recording enabled");
        let served = handle.shutdown().unwrap();

        // Metrics add up: every accepted update was applied.
        assert_eq!(served.graph().num_vertices(), graph.num_vertices());
        let records = log.snapshot();
        let raw_total: u64 = records.iter().map(|r| r.raw).sum();
        assert_eq!(raw_total, offered as u64);
        assert_eq!(records.last().unwrap().applied_seq, offered as u64);

        // The served engine matches a 1-thread reference that replayed
        // the same flushed batches bit-for-bit, whatever the tier's
        // engine thread count, and so does the published final table…
        let mut reference = engine(graph.clone(), model.clone(), store.clone());
        for record in records.iter() {
            if !record.batch.is_empty() {
                reference.process_batch(&record.batch).unwrap();
            }
        }
        assert!(
            served.store() == reference.store(),
            "stores must be bit-identical at {threads} threads"
        );
        let table = reference.store().embeddings(final_layer);
        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (v, row) in published.iter().enumerate() {
            assert_eq!(
                bits(row),
                bits(table.row(v)),
                "published row {v} at {threads} threads"
            );
        }

        // …and stays within float tolerance of the raw stream applied
        // update-by-update (window boundaries change accumulation order).
        let mut raw_reference = engine(graph, model, store);
        for update in reference_updates {
            raw_reference
                .process_batch(&UpdateBatch::from_updates(vec![update]))
                .unwrap();
        }
        let diff = served
            .store()
            .max_diff_all_layers(raw_reference.store())
            .unwrap();
        assert!(
            diff < 2e-3,
            "served state drifted from the raw stream: {diff}"
        );
    }

    #[test]
    fn spawned_scheduler_serves_submitted_updates() {
        serve_submitted_updates(1);
    }

    #[test]
    fn spawned_scheduler_over_a_parallel_engine_matches_one_thread() {
        serve_submitted_updates(2);
    }

    #[test]
    fn engine_error_poisons_the_session() {
        let (graph, model, store, _) = bootstrap(11);
        let n = graph.num_vertices() as u32;
        let handle = spawn(
            engine(graph, model, store),
            ServeConfig {
                max_batch: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let client = handle.client();
        let metrics = handle.metrics();
        // An update for a vertex outside the graph fails inside the engine.
        client.submit(GraphUpdate::update_feature(VertexId(n + 7), vec![0.0; 6]));
        // The scheduler stops; later submissions observe the closed queue.
        let mut closed = false;
        for _ in 0..200 {
            match client.submit(GraphUpdate::add_edge(VertexId(0), VertexId(1))) {
                Submission::Closed => {
                    closed = true;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        assert!(closed, "submissions must observe the stopped scheduler");
        assert!(matches!(handle.shutdown(), Err(ServeError::Engine(_))));
        assert_eq!(metrics.engine_errors(), 1);
    }

    #[test]
    fn shed_policy_rejects_when_the_queue_is_full() {
        // Build a client over a queue with no consumer: capacity 2, shed.
        let metrics = Arc::new(ServeMetrics::new());
        let (tx, _rx) = mpsc::channel();
        let counter = || vec![Arc::new(AtomicU64::new(0))];
        let partitioning = Partitioning::from_assignment(vec![PartitionId(0); 2], 1).unwrap();
        let client = UpdateClient::new(
            vec![tx],
            vec![Arc::new(AtomicUsize::new(0))],
            vec![Arc::new(AtomicBool::new(true))],
            counter(),
            counter(),
            Arc::new(AtomicU64::new(0)),
            Arc::new(partitioning),
            Arc::clone(&metrics),
            BackpressurePolicy::Shed,
            2,
        );
        let u = || GraphUpdate::add_edge(VertexId(0), VertexId(1));
        assert!(matches!(
            client.submit(u()),
            Submission::Enqueued { seq: 1 }
        ));
        assert!(matches!(
            client.submit(u()),
            Submission::Enqueued { seq: 2 }
        ));
        assert_eq!(client.submit(u()), Submission::Shed);
        assert_eq!(client.submit(u()), Submission::Shed);
        assert_eq!(metrics.shed(), 2);
        assert_eq!(metrics.enqueued(), 2);
    }

    #[test]
    fn builder_validates_and_clamps() {
        assert!(matches!(
            ServeConfig::builder().queue_capacity(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServeConfig::builder().max_batch(0).build(),
            Err(ServeError::InvalidConfig(_))
        ));
        let config = ServeConfig::builder()
            .max_delay(Duration::from_secs(3600))
            .policy(BackpressurePolicy::Shed)
            .record_batches(true)
            .build()
            .unwrap();
        assert_eq!(config.max_delay, ServeConfig::MAX_DELAY, "delay is clamped");
        assert_eq!(config.policy, BackpressurePolicy::Shed);
        assert!(config.record_batches);
        assert_eq!(
            ServeConfig::builder().build().unwrap(),
            ServeConfig::default()
        );
        let depth = |builder: ServeConfigBuilder| builder.build().unwrap().max_inflight;
        assert_eq!(ServeConfig::default().max_inflight, 1, "serial by default");
        assert_eq!(depth(ServeConfig::builder().concurrent_admission(0)), 1);
        assert_eq!(depth(ServeConfig::builder().concurrent_admission(4)), 4);
    }

    #[test]
    fn submissions_after_shutdown_are_closed() {
        let (graph, model, store, _) = bootstrap(13);
        let handle = spawn(engine(graph, model, store), ServeConfig::default()).unwrap();
        let client = handle.client();
        handle.shutdown().unwrap();
        assert_eq!(
            client.submit(GraphUpdate::add_edge(VertexId(0), VertexId(1))),
            Submission::Closed
        );
    }

    #[test]
    fn time_window_flushes_without_further_traffic() {
        let (graph, model, store, updates) = bootstrap(15);
        let handle = spawn(
            engine(graph, model, store),
            ServeConfig {
                max_batch: 1000, // size window never closes
                max_delay: Duration::from_millis(5),
                ..Default::default()
            },
        )
        .unwrap();
        let client = handle.client();
        client.submit(updates[0].clone());
        let metrics = handle.metrics();
        let mut applied = 0;
        for _ in 0..500 {
            applied = metrics.applied();
            if applied == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(applied, 1, "time window must flush the lone update");
        assert!(metrics.report().max_visibility_lag >= Duration::from_millis(4));
        handle.shutdown().unwrap();
    }

    #[test]
    fn serving_handle_does_not_pin_the_bootstrap_epoch() {
        let (graph, model, store, updates) = bootstrap(17);
        let handle = spawn(engine(graph, model, store), ServeConfig::default()).unwrap();
        let (snapshot, index) = {
            let running = &handle.shards[0];
            let mut index = running.index.as_ref().map(VersionedIndex::reader).unwrap();
            let mut snapshots = running.snapshots.reader();
            assert_eq!(snapshots.epoch(), 0);
            (
                Arc::downgrade(snapshots.snapshot()),
                Arc::downgrade(index.index()),
            )
        };
        // Two publications with the handle alive and no query service held:
        // the second reclaims the epoch-0 buffers for reuse.
        let client = handle.client();
        for update in updates.into_iter().take(2) {
            client.submit(update);
            handle.flush().unwrap();
        }
        assert_eq!(handle.query_service().epoch(), 2);
        assert!(
            snapshot.upgrade().is_none(),
            "epoch-0 snapshot still pinned"
        );
        assert!(index.upgrade().is_none(), "epoch-0 index still pinned");
        handle.shutdown().unwrap();
    }
}
