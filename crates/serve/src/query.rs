//! Read-side query API over published epoch snapshots.
//!
//! A [`QueryService`] is a per-thread handle: it owns cached
//! [`SnapshotReader`]s (and, when the session maintains one, cached
//! [`IndexReader`]s), so the hot path of every query is one atomic epoch
//! check plus reads against an immutable snapshot — no locks shared with the
//! engine, no blocking on in-flight propagation. Every response is stamped
//! with the epoch it was served at and the **staleness** at read time: how
//! many accepted updates were not yet visible in that epoch.
//!
//! # The top-k request surface
//!
//! Similarity lookups go through one validated entry point:
//! [`QueryService::top_k`] executes a [`TopKRequest`], which names the
//! query vector, `k`, a [`ReadMode`] — [`ReadMode::Exact`] returns the true
//! top-k, visiting the session's IVF clusters (see [`crate::index`]) in
//! bound order and stopping once no unvisited row can enter;
//! [`ReadMode::Approx`] probes a fixed number of clusters — and an
//! optional epoch floor. Malformed requests
//! (`k == 0`, zero probes, a non-finite query component, a query of the
//! wrong width, an approximate read against a session serving without an
//! index) fail up front with
//! [`ServeError::InvalidQuery`]; an unmet epoch floor fails with
//! [`ServeError::StaleRead`]. Approximate reads score candidates from the
//! same snapshot table the exact scan reads, so every returned score is
//! bit-identical to the exact scan's — approximation affects *which* rows
//! are considered, never their scores.
//!
//! # Sharded sessions
//!
//! The service owns one reader per part of its session. Against a session
//! of more than one part ([`crate::spawn_sharded`]) epochs form a **vector
//! clock**: each shard publishes its own epoch sequence. A point read
//! resolves the owning shard from the partitioning and is stamped with that
//! shard's scalar epoch (plus [`Stamped::shard`]); a whole-graph read such
//! as [`QueryService::top_k`] touches every shard and is stamped with the
//! *minimum* epoch across shards plus the full per-shard vector in
//! [`Stamped::epochs`]. Staleness for whole-graph reads sums the per-shard
//! backlogs, **deduplicated** by logical update: a cross-shard edge update
//! is delivered to both endpoint owners, and the duplicate (secondary)
//! deliveries pending at their shards are subtracted so one not-yet-visible
//! update counts once. A one-part session's stamps carry neither a shard
//! nor an epoch vector.

use crate::index::{IndexReader, TopKIndex};
use crate::metrics::ServeMetrics;
use crate::scheduler::ServeError;
use crate::versioned::{EpochSnapshot, SnapshotReader};
use ripple_graph::partition::Partitioning;
use ripple_graph::{PartitionId, VertexId};
use ripple_tensor::ops::score_rows_into;
use ripple_tensor::{vector, Matrix};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A query response together with its consistency stamp.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamped<T> {
    /// The response payload.
    pub value: T,
    /// Epoch of the snapshot that served this query. For a sharded
    /// whole-graph read this is the minimum epoch across the shards read.
    pub epoch: u64,
    /// Accepted raw updates reflected in that snapshot (summed across
    /// shards for a sharded whole-graph read).
    pub applied_seq: u64,
    /// Accepted updates not yet visible at read time (enqueued − applied;
    /// summed across shards for a sharded whole-graph read, counting each
    /// logical update once even when it routed to two shards).
    pub staleness: u64,
    /// The engine's topology epoch (update batches absorbed by its CSR
    /// topology snapshot) behind the serving snapshot — lets callers see
    /// how fresh the *structure* behind the answer is, independently of the
    /// embedding epoch. Minimum across shards for a whole-graph read.
    pub topology_epoch: u64,
    /// The shard that served a point read against a sharded session;
    /// `None` for one-part sessions and for whole-graph reads.
    pub shard: Option<PartitionId>,
    /// The per-shard epoch vector of a whole-graph read against a sharded
    /// session (`epochs[p]` is shard `p`'s epoch at read time); `None` for
    /// one-part sessions and point reads.
    pub epochs: Option<Vec<u64>>,
}

impl<T> Stamped<T> {
    /// Maps the payload, keeping the stamp.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Stamped<U> {
        Stamped {
            value: f(self.value),
            epoch: self.epoch,
            applied_seq: self.applied_seq,
            staleness: self.staleness,
            topology_epoch: self.topology_epoch,
            shard: self.shard,
            epochs: self.epochs,
        }
    }
}

fn stamp<T>(
    value: T,
    snap: &EpochSnapshot,
    submitted: u64,
    shard: Option<PartitionId>,
) -> Stamped<T> {
    Stamped {
        value,
        epoch: snap.epoch(),
        applied_seq: snap.applied_seq(),
        staleness: submitted.saturating_sub(snap.applied_seq()),
        topology_epoch: snap.topology_epoch(),
        shard,
        epochs: None,
    }
}

/// How a [`TopKRequest`] trades recall for scan cost.
///
/// Marked `#[non_exhaustive]`: future read modes (e.g. a re-ranked or
/// quantised path) may be added without a breaking change, so match with a
/// wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReadMode {
    /// The true top-k of the snapshot, identical bit for bit to scoring
    /// every row. Clusters of the session's IVF index are visited in
    /// descending order of an upper bound on their members' scores, and
    /// the read stops once its k-th best score beats the next bound — so
    /// it scores a fraction of `|V|` when the bounds separate, and every
    /// row when they do not. Without an index that describes the
    /// snapshot's own epoch (no index, an epoch skew, a non-finite bound)
    /// it scans every row, `O(|V|)`.
    Exact,
    /// Probe the `nprobe` clusters of the session's IVF index whose
    /// centroids best match the query, scoring only their postings —
    /// sublinear when `nprobe` covers a fraction of the clusters. Scores
    /// are read from the snapshot table, so they are bit-identical to
    /// [`ReadMode::Exact`] for every returned vertex; only recall is
    /// approximate. `nprobe` clamps to the cluster count, so
    /// `usize::MAX` probes everything (and must then match the exact scan).
    Approx {
        /// How many clusters to probe (must be non-zero).
        nprobe: usize,
    },
}

/// A validated top-k similarity request, executed by
/// [`QueryService::top_k`].
///
/// Built fluently — `TopKRequest::new(query, k)` is an exact read, and the
/// builder methods opt into approximation or freshness floors:
///
/// ```
/// use ripple_serve::{ReadMode, TopKRequest};
///
/// let request = TopKRequest::new(vec![1.0, 0.0, 0.5], 10)
///     .approx(4)
///     .min_epoch(2);
/// assert_eq!(request.mode, ReadMode::Approx { nprobe: 4 });
/// ```
///
/// Marked `#[non_exhaustive]` so future knobs (filters, re-ranking) extend
/// the struct without breaking callers; construct via [`TopKRequest::new`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TopKRequest {
    /// The query vector; its width must match the final-layer embedding
    /// width and every component must be finite, or the request fails with
    /// [`ServeError::InvalidQuery`].
    pub query: Vec<f32>,
    /// How many results to return (must be non-zero; clamps to `|V|`).
    pub k: usize,
    /// Exact scan or IVF probe; defaults to [`ReadMode::Exact`].
    pub mode: ReadMode,
    /// Freshness floor: the read fails with [`ServeError::StaleRead`]
    /// unless it is served at an epoch `>=` this (for a sharded session,
    /// unless *every* shard has reached it). `None` accepts any epoch.
    pub min_epoch: Option<u64>,
}

impl TopKRequest {
    /// An exact top-`k` request for `query`, with no freshness floor.
    pub fn new(query: Vec<f32>, k: usize) -> TopKRequest {
        TopKRequest {
            query,
            k,
            mode: ReadMode::Exact,
            min_epoch: None,
        }
    }

    /// Switches to the approximate index path, probing `nprobe` clusters.
    pub fn approx(mut self, nprobe: usize) -> TopKRequest {
        self.mode = ReadMode::Approx { nprobe };
        self
    }

    /// Switches (back) to the exact path.
    pub fn exact(mut self) -> TopKRequest {
        self.mode = ReadMode::Exact;
        self
    }

    /// Requires the read to be served at epoch `epoch` or newer.
    pub fn min_epoch(mut self, epoch: u64) -> TopKRequest {
        self.min_epoch = Some(epoch);
        self
    }
}

/// Who owns which row in a session of more than one part, built once per
/// session and shared by every [`QueryService`] it hands out.
#[derive(Debug)]
pub(crate) struct Owners {
    /// The partitioning point reads route by.
    partitioning: Arc<Partitioning>,
    /// Each part's owned vertex ids, ascending, indexed by [`PartitionId`]
    /// — the exact scan's id list per part.
    owned: Vec<Vec<u32>>,
}

impl Owners {
    /// The owners under `partitioning`, or `None` at one part: there every
    /// row is the one part's, and reads carry no shard stamps.
    pub(crate) fn of(partitioning: &Arc<Partitioning>) -> Option<Arc<Owners>> {
        if partitioning.num_parts() == 1 {
            return None;
        }
        let mut owned = vec![Vec::new(); partitioning.num_parts()];
        for (v, part) in partitioning.assignment().iter().enumerate() {
            owned[part.index()].push(v as u32);
        }
        Some(Arc::new(Owners {
            partitioning: Arc::clone(partitioning),
            owned,
        }))
    }
}

/// Per-thread query handle over the latest published snapshot(s).
#[derive(Debug, Clone)]
pub struct QueryService {
    /// One reader per part, indexed by [`PartitionId`].
    readers: Vec<SnapshotReader>,
    /// One IVF index reader per part (each covering that part's owned
    /// rows), or `None` when the session serves without an index.
    indexes: Option<Vec<IndexReader>>,
    /// Per-part accepted-update counters, indexed like `readers`.
    submitted: Vec<Arc<AtomicU64>>,
    /// Per-part counts of *secondary* (duplicate) deliveries of cross-shard
    /// edge updates, used to dedup merged staleness.
    secondary_submitted: Vec<Arc<AtomicU64>>,
    /// `None` at one part.
    owners: Option<Arc<Owners>>,
    metrics: Arc<ServeMetrics>,
}

impl QueryService {
    pub(crate) fn new(
        readers: Vec<SnapshotReader>,
        indexes: Option<Vec<IndexReader>>,
        submitted: Vec<Arc<AtomicU64>>,
        secondary_submitted: Vec<Arc<AtomicU64>>,
        owners: Option<Arc<Owners>>,
        metrics: Arc<ServeMetrics>,
    ) -> Self {
        debug_assert_eq!(readers.len(), submitted.len());
        debug_assert_eq!(readers.len(), secondary_submitted.len());
        if let Some(indexes) = &indexes {
            debug_assert_eq!(readers.len(), indexes.len());
        }
        QueryService {
            readers,
            indexes,
            submitted,
            secondary_submitted,
            owners,
            metrics,
        }
    }

    /// The owning part's snapshot, submitted counter and (sharded) id for
    /// `v`; `None` if `v` is outside the partitioned id space.
    fn point_view(
        &mut self,
        v: VertexId,
    ) -> Option<(Arc<EpochSnapshot>, u64, Option<PartitionId>)> {
        let shard = match &self.owners {
            Some(owners) => Some(*owners.partitioning.assignment().get(v.index())?),
            None => None,
        };
        let p = shard.map_or(0, PartitionId::index);
        let pending = self.submitted[p].load(Ordering::Relaxed);
        Some((Arc::clone(self.readers[p].snapshot()), pending, shard))
    }

    /// The epoch this handle currently serves (refreshing first). For a
    /// sharded session this is the minimum epoch across shards — the epoch
    /// every shard has reached.
    pub fn epoch(&mut self) -> u64 {
        let epochs = self.readers.iter_mut().map(SnapshotReader::epoch);
        epochs.min().unwrap_or(0)
    }

    /// The per-shard epoch vector (refreshing first); a one-part session
    /// reports one entry.
    pub fn epoch_vector(&mut self) -> Vec<u64> {
        self.readers.iter_mut().map(SnapshotReader::epoch).collect()
    }

    /// The per-shard epochs of the session's IVF index (refreshing first),
    /// shaped like [`QueryService::epoch_vector`]; `None` for a session
    /// serving without an index. An exact read prunes on a shard only when
    /// its index epoch equals its snapshot epoch.
    pub fn index_epochs(&mut self) -> Option<Vec<u64>> {
        let indexes = self.indexes.as_mut()?;
        Some(indexes.iter_mut().map(IndexReader::epoch).collect())
    }

    /// The final-layer embedding of `v`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownVertex`] if `v` is outside the served
    /// vertex space.
    pub fn read_embedding(&mut self, v: VertexId) -> crate::Result<Stamped<Vec<f32>>> {
        let start = Instant::now();
        let (snapshot, submitted, shard) =
            self.point_view(v).ok_or(ServeError::UnknownVertex(v))?;
        let table = snapshot.table();
        if v.index() >= table.rows() {
            return Err(ServeError::UnknownVertex(v));
        }
        let value = table.row(v.index()).to_vec();
        let stamped = stamp(value, &snapshot, submitted, shard);
        self.metrics.record_read(start.elapsed());
        Ok(stamped)
    }

    /// The predicted class label of `v` (argmax of its final-layer
    /// embedding).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownVertex`] if `v` is outside the served
    /// vertex space.
    pub fn read_label(&mut self, v: VertexId) -> crate::Result<Stamped<usize>> {
        let start = Instant::now();
        let (snapshot, submitted, shard) =
            self.point_view(v).ok_or(ServeError::UnknownVertex(v))?;
        let table = snapshot.table();
        if v.index() >= table.rows() {
            return Err(ServeError::UnknownVertex(v));
        }
        let label = vector::argmax(table.row(v.index())).unwrap_or(0);
        let stamped = stamp(label, &snapshot, submitted, shard);
        self.metrics.record_read(start.elapsed());
        Ok(stamped)
    }

    /// Executes a validated top-k similarity request (see [`TopKRequest`]).
    ///
    /// [`ReadMode::Exact`] returns what scoring every row of the snapshot
    /// would, visiting index clusters best bound first and stopping once no
    /// unvisited row can enter; [`ReadMode::Approx`] probes the session's
    /// IVF index and scores only the matched postings, from the same
    /// snapshot — so every returned score is bit-identical to the exact
    /// read's. Ties break towards the smaller vertex id, so results are
    /// deterministic. Against a sharded session every vertex is scored from
    /// its owning shard's snapshot (an exact read prunes per shard into one
    /// shared selector), and the stamp carries the per-shard epoch vector
    /// ([`Stamped::epochs`]) with [`Stamped::epoch`] set to its minimum.
    ///
    /// Every mode scores its rows through one scan: the lane-parallel
    /// [`ripple_tensor::ops::score_rows_into`] kernel over stack-buffered id
    /// chunks, feeding a streaming selector that keeps the best `k` in a
    /// heap — `O(rows · dim)` scoring plus `O(rows · log k)` selection, with
    /// no per-row allocation. Exact reads count into
    /// [`ServeMetrics::exact_pruned_reads`] or
    /// [`ServeMetrics::exact_full_scans`], and their rows into
    /// [`ServeMetrics::exact_rows_scored`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidQuery`] — `k == 0`, `nprobe == 0`, a query
    ///   component that is NaN or infinite, the query width does not match
    ///   the embedding width, or an approximate read against a session
    ///   spawned with [`crate::ServeConfigBuilder::no_index`].
    /// * [`ServeError::StaleRead`] — the serving epoch (every shard's, for
    ///   a sharded session) has not reached [`TopKRequest::min_epoch`].
    pub fn top_k(&mut self, request: &TopKRequest) -> crate::Result<Stamped<Vec<(VertexId, f32)>>> {
        if request.k == 0 {
            return Err(ServeError::InvalidQuery(
                "top-k requests need k > 0".to_string(),
            ));
        }
        if let Some(bad) = request.query.iter().find(|x| !x.is_finite()) {
            return Err(ServeError::InvalidQuery(format!(
                "query components must be finite, got {bad}"
            )));
        }
        match request.mode {
            ReadMode::Approx { nprobe: 0 } => {
                return Err(ServeError::InvalidQuery(
                    "approximate top-k requests need nprobe > 0".to_string(),
                ));
            }
            ReadMode::Exact | ReadMode::Approx { .. } => {}
        }
        let stamped = self.top_k_impl(&request.query, request.k, request.mode)?;
        if let Some(floor) = request.min_epoch {
            if stamped.epoch < floor {
                return Err(ServeError::StaleRead {
                    floor,
                    epoch: stamped.epoch,
                });
            }
        }
        Ok(stamped)
    }

    /// The top-k engine behind [`QueryService::top_k`], which has already
    /// checked `k > 0` and `nprobe > 0`.
    fn top_k_impl(
        &mut self,
        query: &[f32],
        k: usize,
        mode: ReadMode,
    ) -> crate::Result<Stamped<Vec<(VertexId, f32)>>> {
        let start = Instant::now();
        let no_index = || {
            ServeError::InvalidQuery(
                "approximate top-k against a session serving without an index".to_string(),
            )
        };
        let width_mismatch = |want: usize, got: usize| {
            ServeError::InvalidQuery(format!(
                "query width {got} does not match embedding width {want}"
            ))
        };
        let snapshots: Vec<Arc<EpochSnapshot>> = self
            .readers
            .iter_mut()
            .map(|r| Arc::clone(r.snapshot()))
            .collect();
        let width = snapshots[0].table().cols();
        if width != query.len() {
            return Err(width_mismatch(width, query.len()));
        }
        let mut top = TopK::new(k.min(snapshots[0].table().rows()));
        // Exact reads only: whether every shard pruned, and rows scored.
        let mut exact = None;
        match mode {
            // Score each vertex against its owning shard's snapshot — only
            // the owner's rows are authoritative. Each shard prunes by its
            // own index into the one shared selector: a kept row from any
            // shard is a valid floor for all.
            ReadMode::Exact => {
                let (mut pruned, mut scored) = (true, 0);
                for (p, snapshot) in snapshots.iter().enumerate() {
                    let table = snapshot.table();
                    let index = self.indexes.as_mut().map(|list| &**list[p].index());
                    let epoch = snapshot.epoch();
                    let (shard_pruned, rows) = match &self.owners {
                        None => {
                            let rows = table.rows();
                            let ids = 0..rows as u32;
                            scan_exact(table, epoch, index, ids, rows, query, &mut top)?
                        }
                        Some(owners) => {
                            let ids = &owners.owned[p];
                            let covered = ids.partition_point(|&v| (v as usize) < table.rows());
                            let ids = ids.iter().copied();
                            scan_exact(table, epoch, index, ids, covered, query, &mut top)?
                        }
                    };
                    pruned &= shard_pruned;
                    scored += rows;
                }
                exact = Some((pruned, scored));
            }
            ReadMode::Approx { nprobe } => {
                let indexes = self.indexes.as_mut().ok_or_else(no_index)?;
                // Each shard's index covers exactly its owned rows, so the
                // merged candidate set is duplicate-free and scoring stays
                // owner-authoritative. Cluster-grouped order as returned:
                // the selector's (score desc, id asc) order is total, so
                // input order is free.
                for (snapshot, index) in snapshots.iter().zip(indexes.iter_mut()) {
                    let candidates = index.index().candidates(query, nprobe);
                    scan(snapshot.table(), candidates, query, &mut top)?;
                }
            }
        }
        let epochs: Vec<u64> = snapshots.iter().map(|s| s.epoch()).collect();
        // Dedup the merged backlog: an edge update owned by two shards is
        // pending at both, but it is one logical update — subtract the
        // pending *secondary* deliveries per shard.
        let counters = self.submitted.iter().zip(&self.secondary_submitted);
        let staleness: u64 = snapshots
            .iter()
            .zip(counters)
            .map(|(s, (sub, sec))| {
                let pending = sub.load(Ordering::Relaxed).saturating_sub(s.applied_seq());
                let pending_secondary = sec
                    .load(Ordering::Relaxed)
                    .saturating_sub(s.applied_secondary());
                pending.saturating_sub(pending_secondary)
            })
            .sum();
        let stamped = Stamped {
            value: top.into_sorted(),
            epoch: epochs.iter().copied().min().unwrap_or(0),
            applied_seq: snapshots.iter().map(|s| s.applied_seq()).sum(),
            staleness,
            topology_epoch: snapshots
                .iter()
                .map(|s| s.topology_epoch())
                .min()
                .unwrap_or(0),
            shard: None,
            epochs: self.owners.is_some().then_some(epochs),
        };
        self.metrics.record_read(start.elapsed());
        if let Some((pruned, rows)) = exact {
            self.metrics.record_exact_read(pruned, rows);
        }
        Ok(stamped)
    }
}

/// Ids per call of the row-scoring kernel: the id and score buffers live on
/// the stack (2 KiB together), and a call is long enough to amortise its
/// shape and bounds checks.
const SCAN_CHUNK: usize = 256;

/// Ids per block of the row-scoring kernel's widest tier (AVX2: 8 lanes);
/// a call on a multiple of it runs no scalar id tail.
const KERNEL_BLOCK: usize = 8;

/// Scores the rows `ids` of `table` against `query` and offers each to
/// `top`; returns how many rows it scored. Ids past the table's end are
/// skipped: the index is published before the store, so it may know rows
/// the snapshot does not yet hold, which costs recall only.
fn scan(
    table: &Matrix,
    ids: impl IntoIterator<Item = u32>,
    query: &[f32],
    top: &mut TopK,
) -> crate::Result<u64> {
    let rows = table.rows();
    let mut scanner = Scanner::new(table, query, top);
    let mut ids = ids.into_iter().filter(|&v| (v as usize) < rows);
    loop {
        // `zip` polls the free slots first, so no id is drawn and dropped.
        let free = &mut scanner.ids[scanner.len..];
        let filled = free
            .iter_mut()
            .zip(&mut ids)
            .map(|(slot, id)| *slot = id)
            .count();
        scanner.len += filled;
        if scanner.len < SCAN_CHUNK {
            return scanner.finish();
        }
        scanner.flush()?;
    }
}

/// One snapshot's share of an exact read: returns whether it pruned and how
/// many rows it scored. When `index` vouches for the snapshot (see
/// [`TopKIndex::exact_bounds`]; `covered` is the number of `ids` inside the
/// table), clusters are visited best bound first and the visit stops as
/// soon as `top` holds `k` rows whose worst score is *strictly* above the
/// next bound: every unvisited row scores at most that bound, so none of
/// them could enter, and an equal score could still win its tie by id.
/// Otherwise every id in `ids` is scanned.
fn scan_exact(
    table: &Matrix,
    epoch: u64,
    index: Option<&TopKIndex>,
    ids: impl IntoIterator<Item = u32>,
    covered: usize,
    query: &[f32],
    top: &mut TopK,
) -> crate::Result<(bool, u64)> {
    let plan = index.and_then(|index| {
        let bounds = index.exact_bounds(query, epoch, table.rows(), covered)?;
        Some((index, bounds))
    });
    let Some((index, bounds)) = plan else {
        return Ok((false, scan(table, ids, query, top)?));
    };
    // A max-heap pops clusters best bound first; reads that stop early pay
    // for the pops they make, not for a full sort.
    let mut order: BinaryHeap<Visit> = bounds
        .into_iter()
        .map(|(bound, cluster)| Visit { bound, cluster })
        .collect();
    let mut scanner = Scanner::new(table, query, top);
    while let Some(Visit { bound, cluster }) = order.pop() {
        // Score the queued whole kernel blocks first, so the floor lags by
        // fewer than KERNEL_BLOCK rows; offering those can only raise it,
        // so stopping on the lagging floor is safe.
        scanner.flush_blocks()?;
        if scanner
            .top
            .floor()
            .is_some_and(|worst| f64::from(worst) > bound)
        {
            break;
        }
        scanner.extend(&index.postings()[cluster as usize])?;
    }
    Ok((true, scanner.finish()?))
}

/// One cluster on the pruned exact path; the max-heap order pops the
/// highest bound first, ties to the lower cluster index.
struct Visit {
    bound: f64,
    cluster: u32,
}

impl Ord for Visit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then(other.cluster.cmp(&self.cluster))
    }
}

impl PartialOrd for Visit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Visit {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Visit {}

/// Feeds row ids to the scoring kernel in [`SCAN_CHUNK`]-id stack chunks
/// and offers every score to a [`TopK`], counting the rows scored.
struct Scanner<'a> {
    table: &'a Matrix,
    query: &'a [f32],
    top: &'a mut TopK,
    ids: [u32; SCAN_CHUNK],
    scores: [f32; SCAN_CHUNK],
    len: usize,
    scored: u64,
}

impl<'a> Scanner<'a> {
    fn new(table: &'a Matrix, query: &'a [f32], top: &'a mut TopK) -> Scanner<'a> {
        Scanner {
            table,
            query,
            top,
            ids: [0; SCAN_CHUNK],
            scores: [0.0; SCAN_CHUNK],
            len: 0,
            scored: 0,
        }
    }

    /// Queues a run of ids, copied into the chunk in bulk.
    fn extend(&mut self, mut ids: &[u32]) -> crate::Result<()> {
        while !ids.is_empty() {
            let take = (SCAN_CHUNK - self.len).min(ids.len());
            self.ids[self.len..self.len + take].copy_from_slice(&ids[..take]);
            self.len += take;
            ids = &ids[take..];
            if self.len == SCAN_CHUNK {
                self.flush()?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> crate::Result<()> {
        self.score_queued(self.len)
    }

    /// Scores the queued ids in whole [`KERNEL_BLOCK`]s — no scalar tail —
    /// and keeps the rest queued.
    fn flush_blocks(&mut self) -> crate::Result<()> {
        self.score_queued(self.len - self.len % KERNEL_BLOCK)
    }

    /// Scores the first `n` queued ids and shifts the rest to the front.
    fn score_queued(&mut self, n: usize) -> crate::Result<()> {
        if n == 0 {
            return Ok(());
        }
        let ids = &self.ids[..n];
        let scores = &mut self.scores[..n];
        score_rows_into(
            self.table.as_slice(),
            self.table.cols(),
            ids,
            self.query,
            scores,
        )
        .map_err(|e| ServeError::InvalidQuery(e.to_string()))?;
        for (&score, &id) in scores.iter().zip(ids) {
            self.top.offer(score, id);
        }
        self.ids.copy_within(n..self.len, 0);
        self.scored += n as u64;
        self.len -= n;
        Ok(())
    }

    /// Scores what is still queued; returns the rows scored in total.
    fn finish(mut self) -> crate::Result<u64> {
        self.flush()?;
        Ok(self.scored)
    }
}

/// One scored row under the read order: a *smaller* `Ranked` is a better
/// answer — higher score by `total_cmp`, then smaller id. `top_k` rejects
/// non-finite queries, so a NaN score needs a non-finite embedding; should
/// one appear, `total_cmp` still orders it deterministically.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    score: f32,
    id: u32,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ranked {}

/// Streaming top-k selector: keeps the best `k` rows offered so far in a
/// max-heap whose top is the worst kept row, so a row that does not beat it
/// costs one comparison. The order is total, so the result depends only on
/// the multiset of rows offered, never on their order.
struct TopK {
    k: usize,
    heap: BinaryHeap<Ranked>,
}

impl TopK {
    fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k),
        }
    }

    #[inline]
    fn offer(&mut self, score: f32, id: u32) {
        let row = Ranked { score, id };
        if self.heap.len() < self.k {
            self.heap.push(row);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if row < *worst {
                *worst = row;
            }
        }
    }

    /// The worst kept score, once `k` rows are kept: a row scoring strictly
    /// below it can no longer enter.
    fn floor(&self) -> Option<f32> {
        if self.heap.len() < self.k {
            return None;
        }
        self.heap.peek().map(|worst| worst.score)
    }

    /// The kept rows, best first.
    fn into_sorted(self) -> Vec<(VertexId, f32)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|r| (VertexId(r.id), r.score))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexMaintainer, IndexParams};
    use crate::versioned::VersionedStore;
    use ripple_gnn::{Aggregator, EmbeddingStore, GnnModel, LayerKind};

    /// A one-part service over `reader`, with `submitted` accepted updates.
    fn single(
        reader: SnapshotReader,
        index: Option<IndexReader>,
        submitted: Arc<AtomicU64>,
        metrics: Arc<ServeMetrics>,
    ) -> QueryService {
        let secondary = Arc::new(AtomicU64::new(0));
        let index = index.map(|i| vec![i]);
        let submitted = vec![submitted];
        QueryService::new(
            vec![reader],
            index,
            submitted,
            vec![secondary],
            None,
            metrics,
        )
    }

    fn service(store: &EmbeddingStore, submitted: u64) -> (QueryService, crate::SnapshotPublisher) {
        let (publisher, reader) = VersionedStore::bootstrap(store);
        let (_maintainer, index) = IndexMaintainer::bootstrap(store, None, IndexParams::default());
        let counter = Arc::new(AtomicU64::new(submitted));
        let metrics = Arc::new(ServeMetrics::new());
        (single(reader, Some(index), counter, metrics), publisher)
    }

    fn store() -> EmbeddingStore {
        let model = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[4, 8, 3], 0).unwrap();
        let mut s = EmbeddingStore::zeroed(&model, 4);
        s.set_embedding(2, VertexId(0), &[0.0, 1.0, 0.0]).unwrap();
        s.set_embedding(2, VertexId(1), &[2.0, 0.0, 0.0]).unwrap();
        s.set_embedding(2, VertexId(2), &[1.0, 1.0, 1.0]).unwrap();
        s.set_embedding(2, VertexId(3), &[2.0, 0.0, 0.0]).unwrap();
        s
    }

    #[test]
    fn point_reads_are_stamped_and_reject_unknown_vertices() {
        let (mut q, _publisher) = service(&store(), 7);
        let e = q.read_embedding(VertexId(0)).unwrap();
        assert_eq!(e.value, vec![0.0, 1.0, 0.0]);
        assert_eq!(e.epoch, 0);
        assert_eq!(e.applied_seq, 0);
        assert_eq!(e.staleness, 7, "7 accepted updates not yet visible");
        assert_eq!(e.shard, None);
        assert_eq!(e.epochs, None);
        let l = q.read_label(VertexId(0)).unwrap();
        assert_eq!(l.value, 1);
        assert_eq!(q.epoch(), 0);
        assert_eq!(q.epoch_vector(), vec![0]);
        // Out-of-range vertices are a typed error, not a panic.
        assert!(matches!(
            q.read_embedding(VertexId(99)),
            Err(ServeError::UnknownVertex(VertexId(99)))
        ));
        assert!(matches!(
            q.read_label(VertexId(99)),
            Err(ServeError::UnknownVertex(VertexId(99)))
        ));
    }

    #[test]
    fn read_label_matches_the_store_argmax_including_ties() {
        let mut base = store();
        // Vertex 0 ties its two largest components, vertex 2 all three.
        base.set_embedding(2, VertexId(0), &[0.5, 3.0, 3.0])
            .unwrap();
        let (mut q, _publisher) = service(&base, 0);
        for v in (0..base.num_vertices()).map(|v| VertexId(v as u32)) {
            assert_eq!(
                q.read_label(v).unwrap().value,
                base.predicted_label(v),
                "label of {v:?}"
            );
        }
    }

    #[test]
    fn top_k_ranks_by_dot_product_with_deterministic_ties() {
        let (mut q, _publisher) = service(&store(), 0);
        let top = q.top_k(&TopKRequest::new(vec![1.0, 0.0, 0.0], 3)).unwrap();
        assert_eq!(top.value.len(), 3);
        // Vertices 1 and 3 tie at 2.0; the smaller id wins.
        assert_eq!(top.value[0], (VertexId(1), 2.0));
        assert_eq!(top.value[1], (VertexId(3), 2.0));
        assert_eq!(top.value[2], (VertexId(2), 1.0));
        // k larger than |V| clamps.
        let all = q.top_k(&TopKRequest::new(vec![1.0, 0.0, 0.0], 10)).unwrap();
        assert_eq!(all.value.len(), 4);
    }

    #[test]
    fn malformed_requests_fail_with_invalid_query() {
        let (mut q, _publisher) = service(&store(), 0);
        assert!(matches!(
            q.top_k(&TopKRequest::new(vec![1.0, 0.0, 0.0], 0)),
            Err(ServeError::InvalidQuery(_))
        ));
        assert!(matches!(
            q.top_k(&TopKRequest::new(vec![1.0, 0.0], 2)),
            Err(ServeError::InvalidQuery(_))
        ));
        assert!(matches!(
            q.top_k(&TopKRequest::new(vec![1.0, 0.0, 0.0], 2).approx(0)),
            Err(ServeError::InvalidQuery(_))
        ));
        // Approximate reads against an index-less session are rejected too.
        let (publisher, reader) = VersionedStore::bootstrap(&store());
        let mut bare = single(
            reader,
            None,
            Arc::new(AtomicU64::new(0)),
            Arc::new(ServeMetrics::new()),
        );
        assert!(matches!(
            bare.top_k(&TopKRequest::new(vec![1.0, 0.0, 0.0], 2).approx(1)),
            Err(ServeError::InvalidQuery(_))
        ));
        drop(publisher);
    }

    #[test]
    fn full_probe_approx_matches_exact_with_identical_scores() {
        let (mut q, _publisher) = service(&store(), 0);
        let request = TopKRequest::new(vec![0.3, -1.0, 0.7], 4);
        let exact = q.top_k(&request).unwrap();
        let approx = q.top_k(&request.clone().approx(usize::MAX)).unwrap();
        assert_eq!(exact.value, approx.value);
        assert_eq!(exact.epoch, approx.epoch);
    }

    #[test]
    fn min_epoch_floors_fail_as_stale_until_published() {
        let base = store();
        let (mut q, mut publisher) = service(&base, 1);
        let request = TopKRequest::new(vec![1.0, 0.0, 0.0], 2).min_epoch(1);
        assert!(matches!(
            q.top_k(&request),
            Err(ServeError::StaleRead { floor: 1, epoch: 0 })
        ));
        publisher.publish(&base, 1, 0);
        let top = q.top_k(&request).unwrap();
        assert_eq!(top.epoch, 1);
    }

    #[test]
    fn queries_follow_published_epochs() {
        let base = store();
        let (mut q, mut publisher) = service(&base, 3);
        let mut updated = base.clone();
        updated
            .set_embedding(2, VertexId(0), &[9.0, 0.0, 0.0])
            .unwrap();
        publisher.publish(&updated, 3, 2);
        let e = q.read_embedding(VertexId(0)).unwrap();
        assert_eq!(e.epoch, 1);
        assert_eq!(e.applied_seq, 3);
        assert_eq!(e.staleness, 0);
        assert_eq!(e.topology_epoch, 2);
        assert_eq!(e.value[0], 9.0);
        let l = q.read_label(VertexId(0)).unwrap();
        assert_eq!(l.value, 0);
    }

    #[test]
    fn map_preserves_the_stamp() {
        let stamped = Stamped {
            value: vec![1.0f32, 2.0],
            epoch: 4,
            applied_seq: 9,
            staleness: 1,
            topology_epoch: 3,
            shard: Some(PartitionId(1)),
            epochs: Some(vec![4, 6]),
        };
        let len = stamped.map(|v| v.len());
        assert_eq!(len.value, 2);
        assert_eq!(len.epoch, 4);
        assert_eq!(len.applied_seq, 9);
        assert_eq!(len.staleness, 1);
        assert_eq!(len.topology_epoch, 3);
        assert_eq!(len.shard, Some(PartitionId(1)));
        assert_eq!(len.epochs, Some(vec![4, 6]));
    }

    /// A two-shard harness over [`store`]: shard 0 owns vertices 0–1,
    /// shard 1 owns 2–3.
    fn sharded_service(
        submitted: [u64; 2],
        secondary: [u64; 2],
    ) -> (
        QueryService,
        crate::SnapshotPublisher,
        crate::SnapshotPublisher,
    ) {
        let base = store();
        let (publisher0, reader0) = VersionedStore::bootstrap(&base);
        let (publisher1, reader1) = VersionedStore::bootstrap(&base);
        let assignment = vec![
            PartitionId(0),
            PartitionId(0),
            PartitionId(1),
            PartitionId(1),
        ];
        let partitioning = Arc::new(Partitioning::from_assignment(assignment.clone(), 2).unwrap());
        let indexes = (0..2)
            .map(|p| {
                let owned: Vec<bool> = assignment.iter().map(|a| a.index() == p).collect();
                IndexMaintainer::bootstrap(&base, Some(owned), IndexParams::default()).1
            })
            .collect();
        let q = QueryService::new(
            vec![reader0, reader1],
            Some(indexes),
            submitted
                .iter()
                .map(|&s| Arc::new(AtomicU64::new(s)))
                .collect(),
            secondary
                .iter()
                .map(|&s| Arc::new(AtomicU64::new(s)))
                .collect(),
            Owners::of(&partitioning),
            Arc::new(ServeMetrics::new()),
        );
        (q, publisher0, publisher1)
    }

    #[test]
    fn sharded_reads_resolve_the_owning_shard_and_merge_epoch_vectors() {
        // Each shard's store is authoritative only for its owned rows.
        let (mut q, mut publisher0, publisher1) = sharded_service([5, 2], [0, 0]);

        // Shard 0 publishes twice; shard 1 stays at its bootstrap epoch.
        let mut updated = store();
        updated
            .set_embedding(2, VertexId(0), &[9.0, 0.0, 0.0])
            .unwrap();
        publisher0.publish(&updated, 3, 1);
        publisher0.publish(&updated, 5, 2);

        let e = q.read_embedding(VertexId(0)).unwrap();
        assert_eq!(e.value[0], 9.0);
        assert_eq!(e.shard, Some(PartitionId(0)));
        assert_eq!(e.epoch, 2, "point reads use the owning shard's epoch");
        assert_eq!(e.staleness, 0);
        let e = q.read_embedding(VertexId(2)).unwrap();
        assert_eq!(e.shard, Some(PartitionId(1)));
        assert_eq!(e.epoch, 0);
        assert_eq!(e.staleness, 2, "shard 1 has 2 accepted updates pending");
        // Out of the partitioned id space: a typed error, not a panic.
        assert!(matches!(
            q.read_embedding(VertexId(99)),
            Err(ServeError::UnknownVertex(VertexId(99)))
        ));

        // The session epoch is the slowest shard; the vector shows both.
        assert_eq!(q.epoch(), 0);
        assert_eq!(q.epoch_vector(), vec![2, 0]);

        // Whole-graph reads score every vertex from its owner and stamp the
        // epoch vector (vertex 0's new value comes from shard 0's epoch 2).
        let top = q.top_k(&TopKRequest::new(vec![1.0, 0.0, 0.0], 1)).unwrap();
        assert_eq!(top.value[0], (VertexId(0), 9.0));
        assert_eq!(top.epoch, 0);
        assert_eq!(top.epochs, Some(vec![2, 0]));
        assert_eq!(top.shard, None);
        assert_eq!(top.applied_seq, 5, "applied sums across shards");
        assert_eq!(top.staleness, 2, "per-shard backlogs sum");

        // A floor neither shard reached is stale; the reached one is not.
        assert!(matches!(
            q.top_k(&TopKRequest::new(vec![1.0, 0.0, 0.0], 1).min_epoch(1)),
            Err(ServeError::StaleRead { floor: 1, epoch: 0 })
        ));
        drop(publisher1);
    }

    #[test]
    fn merged_staleness_counts_cross_shard_updates_once() {
        // One logical edge update fanned out to both owners: each shard's
        // counter sees one pending update (shard 1's marked secondary), but
        // the merged read must report ONE not-yet-visible update, not two.
        let (mut q, publisher0, publisher1) = sharded_service([1, 1], [0, 1]);
        let top = q.top_k(&TopKRequest::new(vec![1.0, 0.0, 0.0], 1)).unwrap();
        assert_eq!(
            top.staleness, 1,
            "duplicate secondary delivery must not double-count"
        );
        drop((publisher0, publisher1));
    }

    #[test]
    fn sharded_full_probe_approx_merges_owner_candidates_exactly() {
        let (mut q, publisher0, publisher1) = sharded_service([0, 0], [0, 0]);
        let request = TopKRequest::new(vec![0.5, 0.5, -0.25], 4);
        let exact = q.top_k(&request).unwrap();
        let approx = q.top_k(&request.clone().approx(usize::MAX)).unwrap();
        assert_eq!(exact.value, approx.value);
        // Both shards hold the same store, so the per-shard owned-id scans
        // must rank exactly like the unsharded scan.
        let (mut single, _publisher) = service(&store(), 0);
        assert_eq!(exact.value, single.top_k(&request).unwrap().value);
        drop((publisher0, publisher1));
    }

    #[test]
    fn non_finite_queries_are_rejected_at_the_door() {
        let (mut q, _publisher) = service(&store(), 0);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let request = TopKRequest::new(vec![1.0, bad, 0.0], 2);
            for request in [request.clone(), request.approx(1)] {
                assert!(
                    matches!(q.top_k(&request), Err(ServeError::InvalidQuery(_))),
                    "query component {bad} must be rejected"
                );
            }
        }
    }

    /// The selection `top_k` ran before the streaming selector — collect
    /// every `(score, id)`, partially select the best `k`, sort them — kept
    /// as the selector's oracle.
    fn select_oracle(mut scored: Vec<(f32, u32)>, k: usize) -> Vec<(VertexId, f32)> {
        let k = k.min(scored.len());
        let order = |a: &(f32, u32), b: &(f32, u32)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
        if k < scored.len() {
            scored.select_nth_unstable_by(k - 1, order);
            scored.truncate(k);
        }
        scored.sort_unstable_by(order);
        scored.into_iter().map(|(s, v)| (VertexId(v), s)).collect()
    }

    /// Score bits, so `-0.0` vs `0.0` and NaN compare exactly.
    fn bits(ranked: &[(VertexId, f32)]) -> Vec<(VertexId, u32)> {
        ranked.iter().map(|&(v, s)| (v, s.to_bits())).collect()
    }

    /// `0..n` in a seeded Fisher–Yates order.
    fn shuffled(n: u32, seed: u64) -> Vec<u32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut ids: Vec<u32> = (0..n).collect();
        for i in (1..ids.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ids.swap(i, (state % (i as u64 + 1)) as usize);
        }
        ids
    }

    /// Scores of the exact oracle: `vector::dot` per row, as `top_k`
    /// computed them before the row-scoring kernel.
    fn dot_scores(table: &Matrix, query: &[f32]) -> Vec<(f32, u32)> {
        (0..table.rows())
            .map(|v| (ripple_tensor::vector::dot(table.row(v), query), v as u32))
            .collect()
    }

    #[test]
    fn selector_matches_the_collect_select_sort_oracle() {
        let n = 600;
        // Repeated values, both zeros, infinities and NaN between random
        // scores, so ties and total_cmp's edge cases all reach the heap.
        let palette = [
            1.5f32,
            -0.0,
            0.0,
            -2.25,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let random = ripple_tensor::init::uniform(1, n, -3.0, 3.0, 5);
        let scores: Vec<f32> = (0..n)
            .map(|v| match v % 3 {
                0 => palette[v / 3 % palette.len()],
                _ => random.row(0)[v],
            })
            .collect();
        let scored: Vec<(f32, u32)> = scores
            .iter()
            .enumerate()
            .map(|(v, &s)| (s, v as u32))
            .collect();
        for k in [1, 10, n - 1, n, n + 5] {
            let mut top = TopK::new(k);
            for id in shuffled(n as u32, k as u64) {
                top.offer(scores[id as usize], id);
            }
            assert_eq!(
                bits(&top.into_sorted()),
                bits(&select_oracle(scored.clone(), k)),
                "k = {k}"
            );
        }
    }

    #[test]
    fn scan_matches_the_oracle_across_chunk_boundaries_and_id_orders() {
        let n = 3 * SCAN_CHUNK + 37;
        let dim = 5;
        // All-equal rows tie everywhere, so ids alone decide — across chunk
        // boundaries. In the random table some rows are all-zero: against
        // this all-negative query every product is -0.0, so they score -0.0
        // exactly as `vector::dot` does.
        let equal = Matrix::filled(n, dim, 0.5);
        let mut random = ripple_tensor::init::uniform(n, dim, -1.0, 1.0, 3);
        for v in (0..n).step_by(97) {
            random.row_mut(v).fill(0.0);
        }
        let query = [-0.25f32, -1.0, -0.5, -0.125, -2.0];
        for table in [&equal, &random] {
            let scored = dot_scores(table, &query);
            for k in [
                1,
                10,
                SCAN_CHUNK - 1,
                SCAN_CHUNK,
                SCAN_CHUNK + 1,
                n - 1,
                n,
                n + 5,
            ] {
                let want = bits(&select_oracle(scored.clone(), k));
                let mut top = TopK::new(k);
                scan(table, 0..n as u32, &query, &mut top).unwrap();
                assert_eq!(bits(&top.into_sorted()), want, "ascending ids, k = {k}");
                // Shuffled, with ids past the table's end (skipped).
                let mut top = TopK::new(k);
                scan(table, shuffled(n as u32 + 40, k as u64), &query, &mut top).unwrap();
                assert_eq!(bits(&top.into_sorted()), want, "shuffled ids, k = {k}");
            }
        }
    }

    #[test]
    fn exact_reads_prune_only_on_an_index_of_the_snapshot_epoch() {
        let base = store();
        let (publisher, reader) = VersionedStore::bootstrap(&base);
        let (_maintainer, index) = IndexMaintainer::bootstrap(&base, None, IndexParams::default());
        let metrics = Arc::new(ServeMetrics::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut q = single(
            reader.clone(),
            Some(index),
            Arc::clone(&counter),
            Arc::clone(&metrics),
        );
        let request = TopKRequest::new(vec![1.0, 0.0, 0.0], 2);
        let paired = q.top_k(&request).unwrap();
        assert_eq!(
            (metrics.exact_pruned_reads(), metrics.exact_full_scans()),
            (1, 0)
        );
        assert!(metrics.exact_rows_scored() <= 4);

        // An index-less session always scans every row.
        let mut bare = single(reader, None, counter, Arc::clone(&metrics));
        assert_eq!(bare.top_k(&request).unwrap().value, paired.value);
        assert_eq!(
            (metrics.exact_pruned_reads(), metrics.exact_full_scans()),
            (1, 1)
        );
        assert_eq!(bare.index_epochs(), None);

        // The store moves to epoch 1 while the index stays at 0.
        let mut publisher = publisher;
        publisher.publish(&base, 0, 0);
        assert_eq!(q.epoch_vector(), vec![1]);
        assert_eq!(q.index_epochs(), Some(vec![0]));
        assert_eq!(q.top_k(&request).unwrap().value, paired.value);
        assert_eq!(
            (metrics.exact_pruned_reads(), metrics.exact_full_scans()),
            (1, 2)
        );
        assert!(metrics.exact_rows_scored() >= 8, "two full scans of 4 rows");
        // Approximate reads count into neither.
        q.top_k(&request.clone().approx(1)).unwrap();
        assert_eq!(
            metrics.report().exact_pruned_reads + metrics.report().exact_full_scans,
            3
        );
    }

    #[test]
    fn a_nan_row_in_a_low_bound_cluster_reads_the_same_pruned_and_full() {
        // Final-layer rows 3 wide: a 35-row blob left of the origin, 5 rows
        // right of it. Vertex 3 turns NaN, and the publication that indexes
        // it also splits the left blob, recomputing every radius.
        let n = 40;
        let model = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[4, 8, 3], 0).unwrap();
        let mut base = EmbeddingStore::zeroed(&model, n);
        for v in 0..n {
            let (x, y) = ((v % 5) as f32 * 0.1, (v / 5) as f32 * 0.1);
            let row = if v < 35 {
                [-10.0 - x, y, 0.5]
            } else {
                [10.0 + x, y, 0.5]
            };
            base.set_embedding(2, VertexId(v as u32), &row).unwrap();
        }
        let params = IndexParams {
            clusters: 2,
            split_factor: 1.5,
            ..IndexParams::default()
        };
        let (mut publisher, reader) = VersionedStore::bootstrap(&base);
        let (mut maintainer, index) = IndexMaintainer::bootstrap(&base, None, params);
        let mut poisoned = base.clone();
        poisoned
            .set_embedding(2, VertexId(3), &[f32::NAN; 3])
            .unwrap();
        maintainer.publish(&poisoned, Some(&[VertexId(3)]));
        publisher.publish(&poisoned, 1, 0);
        assert!(maintainer.stats().splits >= 1);

        let metrics = Arc::new(ServeMetrics::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut pruned = single(
            reader.clone(),
            Some(index),
            Arc::clone(&counter),
            Arc::clone(&metrics),
        );
        let mut full = single(reader, None, counter, Arc::new(ServeMetrics::new()));
        // Whichever side holds the NaN row, one of these queries makes its
        // cluster the low-bound one a pruned read would skip.
        for query in [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
        ] {
            for k in [1, 3, n] {
                let request = TopKRequest::new(query.to_vec(), k);
                let want = full.top_k(&request).unwrap().value;
                assert_eq!(want[0].0, VertexId(3), "a NaN score ranks first");
                let got = pruned.top_k(&request).unwrap().value;
                assert_eq!(bits(&got), bits(&want), "query {query:?}, k = {k}");
            }
        }
        assert_eq!(
            metrics.exact_pruned_reads(),
            0,
            "a +inf radius has no bound"
        );
    }

    #[test]
    fn full_rank_read_of_a_20k_row_table_is_fast_and_exact() {
        let n = 20_000;
        let model = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[4, 8, 3], 0).unwrap();
        let mut base = EmbeddingStore::zeroed(&model, n);
        *base.embeddings_mut(2) = ripple_tensor::init::uniform(n, 3, -1.0, 1.0, 11);
        let (publisher, reader) = VersionedStore::bootstrap(&base);
        let mut q = single(
            reader,
            None,
            Arc::new(AtomicU64::new(0)),
            Arc::new(ServeMetrics::new()),
        );
        let query = vec![0.3, -0.7, 0.2];
        let start = Instant::now();
        let all = q.top_k(&TopKRequest::new(query.clone(), n)).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "a k = |V| read took {elapsed:?}"
        );
        let oracle = select_oracle(dot_scores(base.embeddings(2), &query), n);
        assert_eq!(bits(&all.value), bits(&oracle));
        drop(publisher);
    }
}
