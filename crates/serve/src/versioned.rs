//! Epoch-versioned snapshots of the served final-layer table behind an
//! `Arc` swap.
//!
//! The serving layer separates one **publisher** (the scheduler thread, which
//! owns the engine) from many **readers** (query threads). After every
//! committed batch the publisher refreshes a snapshot of what readers read —
//! the engine's **final-layer embedding table** `H^L` — and publishes it
//! under the next epoch number; readers resolve queries against whichever
//! published snapshot their handle currently caches and never observe a
//! half-propagated table.
//!
//! # What is published
//!
//! Every layer's embeddings and raw aggregates are engine state (checkpoints
//! and recovery serialise them); reads only ever index `H^L`, so an
//! [`EpochSnapshot`] is that one [`Matrix`] plus its epoch stamps. While
//! readers lag by at most one epoch, memory is the engine's store plus at
//! most **three** final tables: the current epoch, the retired double
//! buffer, and the retired epoch a slow reader still holds (its
//! replacement is a fresh copy). Each older epoch a reader pins keeps one
//! more table alive.
//!
//! # Read path
//!
//! [`SnapshotReader::snapshot`] is **lock-free in steady state**: it performs
//! one atomic epoch load and, only when a newer epoch was published since the
//! last call, re-clones the current `Arc` under a mutex whose critical
//! section is a pointer swap (the publisher never holds it while the engine
//! propagates). Readers therefore never block on the engine, and a reader
//! that does nothing keeps serving its cached epoch indefinitely.
//!
//! # Publish path (double buffering + dirty rows)
//!
//! Publishing epoch `n+1` retires the epoch-`n` snapshot. The publisher keeps
//! the retired `Arc`; by the time epoch `n+2` is published, steady-state
//! readers have moved off epoch `n`, so [`Arc::try_unwrap`] reclaims its
//! table. When the caller supplies the batch's **dirty rows** (the engines
//! track them per batch), the reclaimed table — exactly two epochs stale —
//! is refreshed by copying only the final-layer rows of the last two dirty
//! sets: O(affected) instead of the O(|V|·D) full-table
//! [`Matrix::copy_from`] memcpy (which reuses the buffer's capacity).
//! A slow reader still holding the old epoch, a publication without a dirty
//! set, or a table whose shape no longer matches the engine's falls back to
//! the full refresh/copy for that publication.
//! [`SnapshotPublisher::buffer_stats`] reports rows copied per epoch.

use ripple_gnn::EmbeddingStore;
use ripple_graph::VertexId;
use ripple_tensor::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One published, immutable snapshot of the served final-layer table.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    applied_seq: u64,
    applied_secondary: u64,
    topology_epoch: u64,
    table: Matrix,
}

impl EpochSnapshot {
    /// The epoch this snapshot was published at (0 = the bootstrap store).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of accepted raw updates reflected in this snapshot, counting
    /// updates that coalescing merged or cancelled before the engine saw
    /// them.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Of [`EpochSnapshot::applied_seq`], how many were **secondary** route
    /// copies: the second delivery of a cross-shard edge update that fanned
    /// out to both endpoint owners. Always 0 for one-part sessions.
    /// Merged whole-graph reads subtract the secondary backlog so one
    /// logical update pending at two owners counts once in their staleness
    /// stamp.
    pub fn applied_secondary(&self) -> u64 {
        self.applied_secondary
    }

    /// The engine's topology epoch (update batches absorbed by its CSR
    /// topology snapshot) as of this publication — published next to the
    /// embedding epoch so queries can expose topology staleness.
    pub fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    /// The final-layer embedding table `H^L` as of this epoch (one row per
    /// vertex): everything a read serves.
    pub fn table(&self) -> &Matrix {
        &self.table
    }
}

/// Double-buffering and dirty-row effectiveness counters of a
/// [`SnapshotPublisher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Publications that reclaimed the retired double buffer.
    pub reclaimed: u64,
    /// Publications that fell back to a fresh full-table clone (a reader
    /// still held the retired snapshot, or one of the first publications).
    pub copied: u64,
    /// Final-table rows copied across all publications (dirty-row refreshes
    /// count their two dirty sets, full refreshes and clones every row).
    pub rows_copied: u64,
    /// Reclaimed publications that refreshed via dirty rows instead of the
    /// full-table copy.
    pub dirty_refreshes: u64,
}

/// Shared state between the publisher and every reader handle.
#[derive(Debug)]
pub struct VersionedStore {
    /// Mirror of `current`'s epoch, so readers detect staleness of their
    /// cached handle with a single atomic load.
    epoch: AtomicU64,
    /// The latest published snapshot. The mutex guards only the `Arc` clone
    /// / swap (a pointer operation), never the table contents, so a panic
    /// cannot leave it half-written and a poisoned lock is still read.
    current: Mutex<Arc<EpochSnapshot>>,
}

impl VersionedStore {
    /// Publishes the final-layer table of `bootstrap` as epoch 0 and returns
    /// the (unique) publisher plus a first reader handle.
    pub fn bootstrap(bootstrap: &EmbeddingStore) -> (SnapshotPublisher, SnapshotReader) {
        VersionedStore::bootstrap_at(bootstrap, 0, 0, 0, 0)
    }

    /// [`VersionedStore::bootstrap`] with explicit counter stamps — the
    /// recovery continuation: a session restored from a checkpoint plus WAL
    /// replay resumes its epoch sequence where the crashed process left off
    /// instead of restarting at 0, preserving epoch monotonicity for readers
    /// that outlive the crash.
    pub fn bootstrap_at(
        bootstrap: &EmbeddingStore,
        epoch: u64,
        applied_seq: u64,
        applied_secondary: u64,
        topology_epoch: u64,
    ) -> (SnapshotPublisher, SnapshotReader) {
        let shared = Arc::new(VersionedStore {
            epoch: AtomicU64::new(epoch),
            current: Mutex::new(Arc::new(EpochSnapshot {
                epoch,
                applied_seq,
                applied_secondary,
                topology_epoch,
                table: bootstrap.embeddings(bootstrap.num_layers()).clone(),
            })),
        });
        let reader = shared.reader();
        let publisher = SnapshotPublisher {
            shared,
            retired: None,
            prev_dirty: None,
            stats: BufferStats::default(),
        };
        (publisher, reader)
    }

    /// A new reader handle starting at the current epoch; session handles
    /// mint readers here so that holding one never pins an old epoch.
    pub(crate) fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader {
            shared: Arc::clone(self),
            cached: self.current(),
        }
    }

    /// The latest published snapshot (a pointer clone under the mutex).
    fn current(&self) -> Arc<EpochSnapshot> {
        self.current
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// The single writer side: publishes new epochs, recycling retired buffers.
#[derive(Debug)]
pub struct SnapshotPublisher {
    shared: Arc<VersionedStore>,
    /// The snapshot retired by the previous publication, kept so its table
    /// can be reclaimed once every reader has moved on.
    retired: Option<Arc<EpochSnapshot>>,
    /// The dirty rows of the previous publication (`None` when that
    /// publication had no dirty set). The retired buffer is two epochs
    /// stale, so refreshing it needs the union of the last two dirty sets.
    prev_dirty: Option<Vec<VertexId>>,
    stats: BufferStats,
}

impl SnapshotPublisher {
    /// Publishes the final-layer table of `store` as the next epoch,
    /// stamped with `applied_seq` accepted raw updates and the engine's
    /// `topology_epoch`, and returns the new epoch number. Equivalent to
    /// [`SnapshotPublisher::publish_rows`] without a dirty set (the refresh
    /// copies the full table).
    pub fn publish(
        &mut self,
        store: &EmbeddingStore,
        applied_seq: u64,
        topology_epoch: u64,
    ) -> u64 {
        self.publish_rows(store, applied_seq, topology_epoch, None)
    }

    /// Publishes the final-layer table of `store` as the next epoch.
    /// `dirty` names the store rows changed since the previous publication
    /// (sorted or not — only membership matters); `None` means unknown.
    ///
    /// Steady state performs no allocation: the table retired two
    /// publications ago is reclaimed and — when this and the previous
    /// publication both carried dirty sets — refreshed by copying only
    /// those final-layer rows, making epoch publication O(affected) instead
    /// of O(|V|·D). Without dirty sets, or when the reclaimed table's shape
    /// differs from the store's (the vertex space grew), it is refreshed
    /// with the full-table [`Matrix::copy_from`]; only when a reader still
    /// holds the retired snapshot does this fall back to a fresh clone.
    pub fn publish_rows(
        &mut self,
        store: &EmbeddingStore,
        applied_seq: u64,
        topology_epoch: u64,
        dirty: Option<&[VertexId]>,
    ) -> u64 {
        self.publish_stamped(store, applied_seq, 0, topology_epoch, dirty)
    }

    /// [`SnapshotPublisher::publish_rows`] with an explicit
    /// [`EpochSnapshot::applied_secondary`] count — used by shard workers,
    /// which receive the second copy of cross-shard edge updates and must
    /// report how many of their applied updates were such duplicates.
    pub fn publish_stamped(
        &mut self,
        store: &EmbeddingStore,
        applied_seq: u64,
        applied_secondary: u64,
        topology_epoch: u64,
        dirty: Option<&[VertexId]>,
    ) -> u64 {
        let epoch = self.shared.epoch.load(Ordering::Relaxed) + 1;
        let fresh = store.embeddings(store.num_layers());
        let snapshot = match self.retired.take().map(Arc::try_unwrap) {
            Some(Ok(mut reusable)) => {
                // The reclaimed table missed the previous publication's
                // changes and this one's; both dirty sets must be known to
                // take the O(affected) path — and the path only pays off
                // while the union is sparse. Past half the table, per-row
                // copies (random order, overlaps copied twice) lose to the
                // contiguous full-table memcpy, so dense epochs fall back,
                // as does a table whose shape no longer matches the store.
                match (dirty, &self.prev_dirty) {
                    (Some(d), Some(p))
                        if reusable.table.shape() == fresh.shape()
                            && p.len() + d.len() <= fresh.rows() / 2 =>
                    {
                        for v in p.iter().chain(d).map(|v| v.index()) {
                            reusable.table.row_mut(v).copy_from_slice(fresh.row(v));
                        }
                        self.stats.rows_copied += (p.len() + d.len()) as u64;
                        self.stats.dirty_refreshes += 1;
                    }
                    _ => {
                        reusable.table.copy_from(fresh);
                        self.stats.rows_copied += fresh.rows() as u64;
                    }
                }
                reusable.epoch = epoch;
                reusable.applied_seq = applied_seq;
                reusable.applied_secondary = applied_secondary;
                reusable.topology_epoch = topology_epoch;
                self.stats.reclaimed += 1;
                Arc::new(reusable)
            }
            still_shared => {
                // A reader still holds the retired snapshot (or this is one
                // of the first two publications): release our reference and
                // pay for one full copy.
                drop(still_shared);
                self.stats.copied += 1;
                self.stats.rows_copied += fresh.rows() as u64;
                Arc::new(EpochSnapshot {
                    epoch,
                    applied_seq,
                    applied_secondary,
                    topology_epoch,
                    table: fresh.clone(),
                })
            }
        };
        // Remember this publication's dirty set for the next reclaim,
        // reusing the buffer capacity.
        match (dirty, &mut self.prev_dirty) {
            (Some(d), Some(buf)) => {
                buf.clear();
                buf.extend_from_slice(d);
            }
            (Some(d), slot @ None) => *slot = Some(d.to_vec()),
            (None, slot) => *slot = None,
        }
        let previous = {
            let mut current = self
                .shared
                .current
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *current, snapshot)
        };
        // Readers check this counter first; Release pairs with their Acquire
        // load so the swapped pointer is visible once the epoch is.
        self.shared.epoch.store(epoch, Ordering::Release);
        self.retired = Some(previous);
        epoch
    }

    /// The epoch of the most recent publication (0 before any).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Double-buffering and dirty-row effectiveness counters: reclaims vs.
    /// full clones, and rows copied per epoch.
    pub fn buffer_stats(&self) -> BufferStats {
        self.stats
    }

    /// A new reader handle starting at the current epoch.
    pub fn reader(&self) -> SnapshotReader {
        self.shared.reader()
    }
}

/// A reader's cached handle onto the latest published snapshot.
///
/// Cheap to clone (two `Arc` clones); every reader thread owns its handle
/// and refreshes it lazily on access.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    shared: Arc<VersionedStore>,
    cached: Arc<EpochSnapshot>,
}

impl SnapshotReader {
    /// The freshest published snapshot.
    ///
    /// Hot path: one atomic load; the cached `Arc` is returned untouched
    /// while no newer epoch exists. When one does, the handle re-clones the
    /// current snapshot under the pointer-swap mutex — it never waits for
    /// the engine, which publishes only between batches.
    pub fn snapshot(&mut self) -> &Arc<EpochSnapshot> {
        if self.shared.epoch.load(Ordering::Acquire) != self.cached.epoch {
            self.cached = self.shared.current();
        }
        &self.cached
    }

    /// The snapshot this handle currently caches, without refreshing.
    pub fn cached(&self) -> &Arc<EpochSnapshot> {
        &self.cached
    }

    /// The shared state, from which [`VersionedStore::reader`] mints handles.
    pub(crate) fn shared(&self) -> &Arc<VersionedStore> {
        &self.shared
    }

    /// Refreshes and returns the current epoch.
    pub fn epoch(&mut self) -> u64 {
        self.snapshot().epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_gnn::{Aggregator, GnnModel, LayerKind};
    use ripple_graph::VertexId;

    fn model() -> GnnModel {
        GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[4, 8, 3], 0).unwrap()
    }

    fn sized(vertices: usize, value: f32) -> EmbeddingStore {
        let mut s = EmbeddingStore::zeroed(&model(), vertices);
        s.set_embedding(2, VertexId(1), &[value, 0.0, 0.0]).unwrap();
        s
    }

    fn store(value: f32) -> EmbeddingStore {
        sized(6, value)
    }

    #[test]
    fn bootstrap_is_epoch_zero() {
        let (publisher, mut reader) = VersionedStore::bootstrap(&store(1.0));
        assert_eq!(publisher.epoch(), 0);
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.snapshot().applied_seq(), 0);
        assert_eq!(reader.snapshot().topology_epoch(), 0);
        assert_eq!(reader.snapshot().table().row(1)[0], 1.0);
    }

    #[test]
    fn publish_advances_epoch_and_readers_refresh_lazily() {
        let (mut publisher, mut reader) = VersionedStore::bootstrap(&store(1.0));
        let mut stale = reader.clone();
        assert_eq!(publisher.publish(&store(2.0), 5, 1), 1);
        assert_eq!(publisher.publish(&store(3.0), 9, 2), 2);

        // A reader that refreshes sees the latest epoch…
        let snap = reader.snapshot();
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.applied_seq(), 9);
        assert_eq!(snap.topology_epoch(), 2);
        assert_eq!(snap.table().row(1)[0], 3.0);

        // …while a handle that never refreshes keeps serving its cache.
        assert_eq!(stale.cached().epoch(), 0);
        assert_eq!(stale.cached().table().row(1)[0], 1.0);
        assert_eq!(stale.epoch(), 2);
    }

    #[test]
    fn steady_state_publication_reclaims_the_double_buffer() {
        let (mut publisher, mut reader) = VersionedStore::bootstrap(&store(0.0));
        for i in 0..10 {
            publisher.publish(&store(i as f32), i, i);
            // The only reader promptly moves to the new epoch, freeing the
            // retired snapshot for reuse.
            reader.snapshot();
        }
        let BufferStats {
            reclaimed, copied, ..
        } = publisher.buffer_stats();
        assert_eq!(reclaimed + copied, 10);
        assert!(
            reclaimed >= 7,
            "steady-state publishing should reuse retired buffers, got {reclaimed} reclaims / {copied} copies"
        );
    }

    #[test]
    fn dirty_row_publication_copies_only_affected_rows() {
        let (mut publisher, mut reader) = VersionedStore::bootstrap(&store(0.0));
        let mut source = store(0.0);
        let mut expected_rows = 0u64;
        for i in 1..=10u64 {
            // One row changes per "batch".
            let v = VertexId((i % 4) as u32);
            source.set_embedding(2, v, &[i as f32, 0.0, 0.0]).unwrap();
            let stats_before = publisher.buffer_stats();
            publisher.publish_rows(&source, i, i, Some(&[v]));
            reader.snapshot();
            let stats = publisher.buffer_stats();
            if stats.dirty_refreshes > stats_before.dirty_refreshes {
                // A dirty refresh copies the union of the last two dirty
                // sets: two single-row sets here.
                expected_rows += 2;
            } else {
                expected_rows += source.num_vertices() as u64;
            }
            assert_eq!(stats.rows_copied, expected_rows);
            // The published snapshot is complete regardless of refresh path.
            assert!(
                reader.snapshot().table() == source.embeddings(2),
                "epoch {i} diverged"
            );
        }
        let stats = publisher.buffer_stats();
        assert!(
            stats.dirty_refreshes >= 7,
            "steady state should refresh via dirty rows, got {stats:?}"
        );
        // Dirty publication is O(affected): far fewer rows copied than 10
        // full 6-vertex refreshes.
        assert!(stats.rows_copied < 10 * 6);
    }

    #[test]
    fn dirty_refresh_touches_only_the_given_rows() {
        let (mut publisher, mut reader) = VersionedStore::bootstrap(&store(0.0));
        // Two publications with empty dirty sets prime the double buffer.
        publisher.publish_rows(&store(0.0), 1, 1, Some(&[]));
        reader.snapshot();
        publisher.publish_rows(&store(0.0), 2, 2, Some(&[]));
        reader.snapshot();
        // The next reclaim refreshes rows {1} ∪ {} of the epoch-1 table.
        // Row 4 changes in the source but is in neither dirty set, so a
        // refresh that copied it would be a full copy in disguise.
        let mut source = store(7.0);
        source.set_embedding(2, VertexId(4), &[9.0; 3]).unwrap();
        let before = publisher.buffer_stats();
        publisher.publish_rows(&source, 3, 3, Some(&[VertexId(1)]));
        let stats = publisher.buffer_stats();
        assert_eq!(stats.dirty_refreshes, before.dirty_refreshes + 1);
        assert_eq!(stats.rows_copied, before.rows_copied + 1);
        let snap = reader.snapshot();
        assert_eq!(snap.table().row(1), &[7.0, 0.0, 0.0]);
        assert_eq!(snap.table().row(4), &[0.0; 3], "row 4 was not dirty");
    }

    #[test]
    fn shape_mismatch_refreshes_the_whole_table() {
        // (b) of the read-surface checks: a publication whose store has more
        // vertices than the reclaimed table, even with a sparse dirty set,
        // takes the full copy instead of panicking on a missing row.
        let (mut publisher, mut reader) = VersionedStore::bootstrap(&sized(6, 0.0));
        publisher.publish_rows(&sized(6, 1.0), 1, 1, Some(&[VertexId(1)]));
        reader.snapshot();
        publisher.publish_rows(&sized(6, 2.0), 2, 2, Some(&[VertexId(1)]));
        reader.snapshot();
        let mut grown = sized(20, 3.0);
        grown.set_embedding(2, VertexId(17), &[5.0; 3]).unwrap();
        let before = publisher.buffer_stats();
        publisher.publish_rows(&grown, 3, 3, Some(&[VertexId(17)]));
        let stats = publisher.buffer_stats();
        assert_eq!(stats.reclaimed, before.reclaimed + 1);
        assert_eq!(stats.dirty_refreshes, before.dirty_refreshes);
        assert_eq!(stats.rows_copied, before.rows_copied + 20);
        assert!(reader.snapshot().table() == grown.embeddings(2));
        // A narrower model's table (same rows, other width) also converges.
        let narrow = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[4, 2], 0).unwrap();
        let other = EmbeddingStore::zeroed(&narrow, 20);
        publisher.publish_rows(&other, 4, 4, Some(&[VertexId(0)]));
        reader.snapshot();
        publisher.publish_rows(&other, 5, 5, Some(&[VertexId(0)]));
        assert!(reader.snapshot().table() == other.embeddings(1));
    }

    #[test]
    fn published_table_is_the_final_layer_only() {
        // (c) Memory guard: a served epoch is `(n, final_dim)`, far smaller
        // than the engine's full store of every layer plus its aggregates.
        let source = sized(50, 1.0);
        let (mut publisher, mut reader) = VersionedStore::bootstrap(&source);
        publisher.publish(&source, 1, 1);
        let snap = reader.snapshot();
        assert_eq!(snap.table().shape(), (50, 3));
        assert!(
            snap.table().heap_bytes() < source.memory_bytes(),
            "{} B published vs {} B engine store",
            snap.table().heap_bytes(),
            source.memory_bytes()
        );
    }

    #[test]
    fn missing_dirty_set_falls_back_to_full_refresh() {
        let (mut publisher, mut reader) = VersionedStore::bootstrap(&store(0.0));
        for i in 1..=4u64 {
            // Alternate between known and unknown dirty sets; correctness
            // must not depend on the path taken.
            let dirty: Option<&[VertexId]> = if i % 2 == 0 { Some(&[]) } else { None };
            publisher.publish_rows(&store(i as f32), i, i, dirty);
            assert_eq!(reader.snapshot().table().row(1)[0], i as f32);
        }
        // A publication after a `None` never dirty-refreshes (the reclaimed
        // buffer's staleness is unknown), so every reclaim was a full copy.
        assert_eq!(publisher.buffer_stats().dirty_refreshes, 0);
    }

    #[test]
    fn slow_reader_forces_a_copy_but_keeps_its_snapshot_valid() {
        let (mut publisher, reader) = VersionedStore::bootstrap(&store(0.0));
        let hold = reader.clone(); // never refreshes, pins epoch 0
        for i in 0..5 {
            publisher.publish(&store(i as f32), i, i);
        }
        assert_eq!(hold.cached().epoch(), 0);
        assert_eq!(hold.cached().table().row(1)[0], 0.0);
        assert!(publisher.buffer_stats().copied >= 1);
    }

    #[test]
    fn publisher_spawns_fresh_readers_at_the_current_epoch() {
        let (mut publisher, reader) = VersionedStore::bootstrap(&store(0.0));
        publisher.publish(&store(4.0), 2, 1);
        let mut fresh = publisher.reader();
        assert_eq!(fresh.epoch(), 1);
        assert_eq!(fresh.snapshot().topology_epoch(), 1);
        assert_eq!(fresh.snapshot().table().row(1)[0], 4.0);
        // Minting from the shared state skips the epoch `reader` caches.
        let minted = reader.shared().reader();
        assert_eq!(reader.cached().epoch(), 0);
        assert_eq!(minted.cached().epoch(), 1);
    }
}
