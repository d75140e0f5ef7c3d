//! The per-layer half: a shadow commit path assembled from each layer's
//! public functions, replaying the windows the traced tier recorded.
//!
//! Nothing inside the program is instrumented. Instead the traced run takes
//! the coalesced batches the tier logged (`record_batches(true)`) and pushes
//! them, in order and on one thread, through the same sequence of public
//! layer calls the scheduler makes — `Footprint::for_batch` →
//! `WalWriter::append_unsynced` → `sync` → `RippleEngine::process_batch` (or
//! `process_windows` for an admitted group) → `IndexMaintainer::publish` →
//! `SnapshotPublisher::publish_rows` → `write_checkpoint_ref` at the cadence
//! — with a span around each call. The shadow's final store must equal the
//! tier's bit for bit, and the shadow's stage times must add up to the
//! tier's burst times (`bench.trace_coverage`); together that is what
//! licenses reading the shadow's stage times as the tier's.
//!
//! Rounds are replayed a few at a time, right after the tier finished them,
//! so the two times being compared are sampled a second or two apart and the
//! machine's slow drift cancels in their ratio.

use crate::stats::lower_decile;
use crate::trace::{SpanId, Trace};
use crate::workloads::WorkloadSpec;
use ripple_core::{Footprint, RippleEngine};
use ripple_gnn::layer_wise::reevaluate_slice_into;
use ripple_graph::{CsrSnapshot, GraphView, UpdateBatch, VertexId};
use ripple_serve::durability::{
    encode_frame, write_checkpoint_ref, CheckpointRef, WalFrame, WalWriter,
};
use ripple_serve::index::IndexMaintainer;
use ripple_serve::{
    AdmissionController, DurabilityConfig, FailPoints, FlushRecord, IndexParams, IndexReader,
    SnapshotPublisher, SnapshotReader, StagedWindow, VersionedStore,
};
use ripple_tensor::{ops, Matrix, Scratch};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The stages on the commit path; their per-round sum is what
/// `bench.trace_coverage` compares with the tier's burst time.
pub const COMMIT_STAGES: [&str; 8] = [
    "admission.footprint",
    "durability.wal_append",
    "durability.wal_sync",
    "engine.process_batch",
    "engine.process_windows",
    "index.publish",
    "versioned.publish",
    "durability.checkpoint",
];

/// Named sums of one round: stage nanoseconds under the span names, counts
/// under `n.*`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundAcc(BTreeMap<&'static str, f64>);

impl RoundAcc {
    fn add(&mut self, name: &'static str, amount: f64) {
        *self.0.entry(name).or_insert(0.0) += amount;
    }

    /// The sum recorded under `name` (0 if none).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Σ commit-path stage time of the round, ns.
    pub fn commit_ns(&self) -> f64 {
        COMMIT_STAGES.iter().map(|s| self.get(s)).sum()
    }
}

/// Times `$body` as a span and adds its duration to the round's sums.
macro_rules! stage {
    ($self:ident, $name:expr, $parent:expr, $seq:expr, $body:expr) => {{
        let id = $self.trace.open($name, $parent, $seq);
        let out = $body;
        let ns = $self.trace.close(id);
        $self.acc.add($name, ns as f64);
        out
    }};
}

/// Commit bookkeeping of a staged window (what the scheduler keeps in its
/// own `WindowCommit`).
#[derive(Debug)]
struct Staged {
    batch: UpdateBatch,
    raw: u64,
    epoch: u64,
    applied_seq: u64,
    topology_epoch: u64,
}

/// The WAL frame of one window, as the scheduler assembles it (the batch is
/// cloned there too).
fn wal_frame(
    window_seq: u64,
    epoch: u64,
    applied_seq: u64,
    topology_epoch: u64,
    raw: u64,
    batch: &UpdateBatch,
) -> WalFrame {
    WalFrame {
        window_seq,
        epoch,
        applied_seq,
        applied_secondary: 0,
        topology_epoch,
        raw,
        batch: batch.clone(),
        halos: Vec::new(),
        halo_sources: Vec::new(),
    }
}

/// The shadow commit path and its trace.
pub struct Shadow {
    engine: RippleEngine,
    /// Admission workloads commit through `process_windows`, which returns
    /// no `BatchStats`; this serial replica processes the same windows one
    /// by one (off the commit path) to supply them.
    stats_engine: Option<RippleEngine>,
    index: IndexMaintainer,
    publisher: SnapshotPublisher,
    /// The bootstrap readers, never refreshed: a `ServeHandle` keeps the same
    /// two for its lifetime, and what a reader pins decides whether the
    /// publishers can reclaim a retired buffer or must clone.
    _bootstrap_readers: (SnapshotReader, IndexReader),
    wal: Option<WalWriter>,
    durability: Option<DurabilityConfig>,
    admission: Option<AdmissionController<Staged>>,
    /// A topology snapshot of its own for the `graph` layer probes.
    topo: CsrSnapshot,
    compact_ns: u64,
    /// Clusters the workload's approximate reads probe.
    nprobe: usize,
    applied_seq: u64,
    window_seq: u64,
    round_span: Option<SpanId>,
    acc: RoundAcc,
    /// Dirty-row sets of the most recent windows: the frontiers the kernel
    /// probes run on.
    recent_dirty: VecDeque<Vec<VertexId>>,
    /// Per-round sums, one entry per replayed round.
    pub rounds: Vec<RoundAcc>,
    /// Every span recorded.
    pub trace: Trace,
    /// Time `IndexMaintainer::bootstrap` took, ms.
    pub index_bootstrap_ms: f64,
    /// Footprint conflicts the shadow's admission saw.
    pub conflicts: u64,
    /// Windows that joined a non-empty group.
    pub merged: u64,
    /// Windows committed from groups of two or more.
    pub admitted_concurrent: u64,
    /// Checkpoints written and their total bytes.
    pub checkpoints: u64,
    /// Bytes of the checkpoints written.
    pub checkpoint_bytes: u64,
}

impl Shadow {
    /// A shadow of a session bootstrapped from `engine` with the workload's
    /// own configuration; `wal_dir` is used iff the workload is durable.
    pub fn new(spec: &WorkloadSpec, engine: RippleEngine, wal_dir: &Path) -> Result<Self, String> {
        let started = Instant::now();
        let (index, index_reader) =
            IndexMaintainer::bootstrap(engine.store(), None, IndexParams::default());
        let index_bootstrap_ms = started.elapsed().as_secs_f64() * 1e3;
        let (publisher, reader) = VersionedStore::bootstrap(engine.store());
        let durability = spec.checkpoint_every.map(|every| {
            DurabilityConfig::new(wal_dir)
                .fsync(ripple_serve::FsyncPolicy::Always)
                .checkpoint_every(every)
        });
        let wal = match &durability {
            Some(d) => Some(
                WalWriter::open(&d.dir, 1, d.segment_bytes, d.fsync, FailPoints::new())
                    .map_err(|e| format!("shadow WAL: {e}"))?,
            ),
            None => None,
        };
        Ok(Shadow {
            stats_engine: spec.admission.map(|_| engine.clone()),
            topo: CsrSnapshot::from_dynamic(engine.graph()),
            admission: spec.admission.map(AdmissionController::new),
            engine,
            index,
            publisher,
            _bootstrap_readers: (reader, index_reader),
            wal,
            durability,
            compact_ns: 0,
            nprobe: spec.reads.nprobe,
            applied_seq: 0,
            window_seq: 0,
            round_span: None,
            acc: RoundAcc::default(),
            recent_dirty: VecDeque::new(),
            rounds: Vec::new(),
            trace: Trace::default(),
            index_bootstrap_ms,
            conflicts: 0,
            merged: 0,
            admitted_concurrent: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
        })
    }

    /// The shadow engine (its store is what the gate compares bit for bit).
    pub fn engine(&self) -> &RippleEngine {
        &self.engine
    }

    /// Replays one round's recorded windows, `windows_per_burst` at a time
    /// (a burst ends in the tier's `flush()`, which commits whatever
    /// admission still holds), then runs the round's off-path probes.
    pub fn replay_round(
        &mut self,
        records: &[FlushRecord],
        windows_per_burst: usize,
    ) -> Result<(), String> {
        self.acc = RoundAcc::default();
        self.round_span = Some(self.trace.open("shadow.round", None, 0));
        for burst in records.chunks(windows_per_burst) {
            for record in burst {
                if self.admission.is_some() {
                    self.stage_window(record)?;
                } else {
                    self.commit_serial(record)?;
                }
            }
            if self.admission.is_some() {
                self.drain_staged()?;
            }
        }
        if let Some(span) = self.round_span.take() {
            self.trace.close(span);
        }
        self.round_probes(records)?;
        self.rounds.push(std::mem::take(&mut self.acc));
        Ok(())
    }

    fn note_window(&mut self, record: &FlushRecord) -> Result<(), String> {
        self.window_seq += 1;
        if self.window_seq != record.window_seq {
            return Err(format!(
                "shadow window {} met recorded window {}",
                self.window_seq, record.window_seq
            ));
        }
        self.acc.add("n.windows", 1.0);
        self.acc.add("n.raw", record.raw as f64);
        self.acc.add("n.batch", record.batch.len() as f64);
        Ok(())
    }

    /// Publishes one window's share of the store: index first, store second,
    /// exactly as the scheduler orders them.
    fn publish(
        &mut self,
        parent: Option<SpanId>,
        seq: u64,
        dirty: &[VertexId],
        applied_seq: u64,
        topology_epoch: u64,
        expect_epoch: u64,
    ) -> Result<(), String> {
        self.acc.add("n.dirty_rows", dirty.len() as f64);
        let store = self.engine.store();
        let index = &mut self.index;
        stage!(
            self,
            "index.publish",
            parent,
            seq,
            index.publish(store, Some(dirty))
        );
        let publisher = &mut self.publisher;
        let epoch = stage!(
            self,
            "versioned.publish",
            parent,
            seq,
            publisher.publish_rows(store, applied_seq, topology_epoch, Some(dirty))
        );
        if epoch != expect_epoch {
            return Err(format!(
                "shadow published epoch {epoch}, the tier recorded {expect_epoch}"
            ));
        }
        if self.recent_dirty.len() == 8 {
            self.recent_dirty.pop_front();
        }
        self.recent_dirty.push_back(dirty.to_vec());
        Ok(())
    }

    fn checkpoint(&mut self, parent: Option<SpanId>, seq: u64, epoch: u64) -> Result<(), String> {
        let Some(d) = self.durability.clone() else {
            return Ok(());
        };
        let ckpt = CheckpointRef {
            window_seq: seq,
            epoch,
            applied_seq: self.applied_seq,
            applied_secondary: 0,
            topology_epoch: self.engine.topology_epoch(),
            graph: self.engine.graph(),
            store: self.engine.store(),
            halo_watermarks: &[],
        };
        stage!(
            self,
            "durability.checkpoint",
            parent,
            seq,
            write_checkpoint_ref(&d.dir, &ckpt, d.fsync, &d.fail_points)
        )
        .map_err(|e| format!("shadow checkpoint: {e}"))?;
        self.checkpoints += 1;
        self.acc.add("n.checkpoints", 1.0);
        let path = d.dir.join(format!("ckpt-{seq:020}.bin"));
        self.checkpoint_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
        Ok(())
    }

    fn add_batch_stats(&mut self, stats: &ripple_core::BatchStats) {
        self.acc
            .add("ns.engine.update", stats.update_time.as_nanos() as f64);
        self.acc.add(
            "ns.engine.propagate",
            stats.propagate_time.as_nanos() as f64,
        );
        self.acc.add("n.tree", stats.propagation_tree_size as f64);
        self.acc
            .add("n.affected_final", stats.affected_final as f64);
        self.acc.add("n.aggregate_ops", stats.aggregate_ops as f64);
    }

    /// The serial commit path: `UpdateScheduler::flush` call for call.
    fn commit_serial(&mut self, record: &FlushRecord) -> Result<(), String> {
        self.note_window(record)?;
        let seq = record.window_seq;
        let window = Some(self.trace.open("shadow.window", self.round_span, seq));
        let ran_engine = !record.batch.is_empty();
        if self.wal.is_some() {
            let staged = Staged {
                batch: record.batch.clone(),
                raw: record.raw,
                epoch: self.publisher.epoch() + 1,
                applied_seq: self.applied_seq + record.raw,
                topology_epoch: self.engine.topology_epoch() + u64::from(ran_engine),
            };
            self.wal_append(window, seq, &staged)?;
            self.wal_sync(window, seq)?;
        }
        if ran_engine {
            let engine = &mut self.engine;
            let stats = stage!(
                self,
                "engine.process_batch",
                window,
                seq,
                engine.process_batch(&record.batch)
            )
            .map_err(|e| format!("shadow engine: {e}"))?;
            self.add_batch_stats(&stats);
        }
        self.applied_seq += record.raw;
        let dirty = if ran_engine {
            self.engine.dirty_rows().to_vec()
        } else {
            Vec::new()
        };
        let topology_epoch = self.engine.topology_epoch();
        self.publish(
            window,
            seq,
            &dirty,
            self.applied_seq,
            topology_epoch,
            record.epoch,
        )?;
        if let Some(every) = self.durability.as_ref().map(|d| d.checkpoint_every) {
            if every > 0 && seq.is_multiple_of(every) {
                self.checkpoint(window, seq, record.epoch)?;
            }
        }
        if let Some(window) = window {
            self.trace.close(window);
        }
        Ok(())
    }

    fn wal_append(
        &mut self,
        parent: Option<SpanId>,
        seq: u64,
        staged: &Staged,
    ) -> Result<(), String> {
        // Frame assembly (it clones the batch, as the scheduler does) is
        // part of the append stage.
        let id = self.trace.open("durability.wal_append", parent, seq);
        let frame = wal_frame(
            seq,
            staged.epoch,
            staged.applied_seq,
            staged.topology_epoch,
            staged.raw,
            &staged.batch,
        );
        let result = self
            .wal
            .as_mut()
            .expect("wal_append is only called with a WAL")
            .append_unsynced(&frame);
        let ns = self.trace.close(id);
        self.acc.add("durability.wal_append", ns as f64);
        result.map_err(|e| format!("shadow WAL append: {e}"))
    }

    fn wal_sync(&mut self, parent: Option<SpanId>, seq: u64) -> Result<(), String> {
        let wal = self
            .wal
            .as_mut()
            .expect("wal_sync is only called with a WAL");
        stage!(self, "durability.wal_sync", parent, seq, wal.sync())
            .map_err(|e| format!("shadow WAL sync: {e}"))?;
        self.acc.add("n.syncs", 1.0);
        Ok(())
    }

    fn footprint(&mut self, parent: Option<SpanId>, seq: u64, batch: &UpdateBatch) -> Footprint {
        let engine = &self.engine;
        let footprint = stage!(
            self,
            "admission.footprint",
            parent,
            seq,
            Footprint::for_batch(engine.graph(), engine.model(), batch)
        );
        self.acc
            .add("n.footprint_vertices", footprint.writes().len() as f64);
        footprint
    }

    fn controller(&self) -> &AdmissionController<Staged> {
        self.admission.as_ref().expect("admission workload")
    }

    /// `UpdateScheduler::stage_window` followed by `absorb`'s drain-if-full,
    /// call for call.
    fn stage_window(&mut self, record: &FlushRecord) -> Result<(), String> {
        let seq = record.window_seq;
        let window = Some(self.trace.open("shadow.window", self.round_span, seq));
        let mut footprint = self.footprint(window, seq, &record.batch);
        let conflicted = !self.controller().admits(&footprint);
        if conflicted {
            self.conflicts += 1;
        }
        if conflicted || self.controller().is_full() {
            self.drain_staged()?;
            if conflicted {
                // The drained group's edges can extend this window's cone.
                footprint = self.footprint(window, seq, &record.batch);
            }
        }
        let (base_epoch, base_applied, base_topology) = match self.controller().last() {
            Some(w) => (
                w.payload.epoch,
                w.payload.applied_seq,
                w.payload.topology_epoch,
            ),
            None => (
                self.publisher.epoch(),
                self.applied_seq,
                self.engine.topology_epoch(),
            ),
        };
        self.note_window(record)?;
        let staged = Staged {
            epoch: base_epoch + 1,
            applied_seq: base_applied + record.raw,
            topology_epoch: base_topology + u64::from(!record.batch.is_empty()),
            batch: record.batch.clone(),
            raw: record.raw,
        };
        if staged.epoch != record.epoch {
            return Err(format!(
                "shadow predicted epoch {}, the tier recorded {}",
                staged.epoch, record.epoch
            ));
        }
        if self.wal.is_some() {
            self.wal_append(window, seq, &staged)?;
        }
        let controller = self.admission.as_mut().expect("admission workload");
        controller.reserve(StagedWindow::pending(seq, footprint, staged));
        let full = controller.is_full();
        if let Some(window) = window {
            self.trace.close(window);
        }
        if full {
            self.drain_staged()?;
        }
        Ok(())
    }

    /// `UpdateScheduler::drain_staged`, call for call.
    fn drain_staged(&mut self) -> Result<(), String> {
        let mut group = match self.admission.as_mut() {
            Some(controller) if !controller.is_empty() => controller.take_group(),
            _ => return Ok(()),
        };
        let first_seq = group.first().map_or(0, StagedWindow::seq);
        let last_seq = group.last().map_or(0, StagedWindow::seq);
        let span = Some(self.trace.open("shadow.group", self.round_span, first_seq));
        if self.wal.is_some() {
            self.wal_sync(span, first_seq)?;
        }
        let batches: Vec<UpdateBatch> = group
            .iter_mut()
            .map(|w| std::mem::replace(&mut w.payload.batch, UpdateBatch::new()))
            .collect();
        let engine = &mut self.engine;
        let merged_dirty = stage!(
            self,
            "engine.process_windows",
            span,
            first_seq,
            engine.process_windows(&batches)
        )
        .map_err(|e| format!("shadow engine: {e}"))?;
        if let Some(replica) = &mut self.stats_engine {
            // Off the commit path: the serial replica's BatchStats.
            let mut all = Vec::new();
            for batch in batches.iter().filter(|b| !b.is_empty()) {
                all.push(
                    replica
                        .process_batch(batch)
                        .map_err(|e| format!("shadow stats engine: {e}"))?,
                );
            }
            for stats in &all {
                self.add_batch_stats(stats);
            }
        }
        let mut scratch = Vec::new();
        let mut epoch = self.publisher.epoch();
        for (window, batch) in group.iter_mut().zip(&batches) {
            self.applied_seq = window.payload.applied_seq;
            scratch.clear();
            window
                .footprint()
                .intersect_sorted_into(&merged_dirty, &mut scratch);
            let dirty: &[VertexId] = if batch.is_empty() { &[] } else { &scratch };
            epoch = window.payload.epoch;
            self.publish(
                span,
                window.seq(),
                dirty,
                window.payload.applied_seq,
                window.payload.topology_epoch,
                epoch,
            )?;
            window.commit();
        }
        if group.len() >= 2 {
            self.admitted_concurrent += group.len() as u64;
            self.merged += group.len() as u64 - 1;
        }
        if let Some(every) = self.durability.as_ref().map(|d| d.checkpoint_every) {
            if every > 0 && last_seq / every > first_seq.saturating_sub(1) / every {
                self.checkpoint(span, last_seq, epoch)?;
            }
        }
        if let Some(span) = span {
            self.trace.close(span);
        }
        Ok(())
    }

    /// Off-path probes of one round, on the windows just replayed:
    /// `encode_frame`, the `graph` layer's snapshot apply/compact, and the
    /// read path's `SnapshotReader::snapshot` and `TopKIndex::candidates`.
    fn round_probes(&mut self, records: &[FlushRecord]) -> Result<(), String> {
        let probes = Some(self.trace.open("probe.round", None, 0));
        if self.wal.is_some() {
            for record in records {
                let frame = wal_frame(
                    record.window_seq,
                    record.epoch,
                    record.applied_seq,
                    record.topology_epoch,
                    record.raw,
                    &record.batch,
                );
                let bytes = stage!(
                    self,
                    "durability.encode",
                    probes,
                    record.window_seq,
                    encode_frame(&frame)
                );
                self.acc.add("n.wal_bytes", bytes.len() as f64);
            }
        }
        for record in records.iter().filter(|r| !r.batch.is_empty()) {
            let topo = &mut self.topo;
            stage!(self, "graph.snapshot_apply", probes, record.window_seq, {
                for update in record.batch.iter() {
                    topo.apply(update)
                        .map_err(|e| format!("shadow topology: {e}"))?;
                }
                topo.advance_epoch();
            });
            let started = Instant::now();
            if self.topo.maybe_compact() {
                self.compact_ns += started.elapsed().as_nanos() as u64;
            }
            self.acc.add("n.topo_updates", record.batch.len() as f64);
        }
        // Fresh reader handles, dropped with the probes: like the tier's read
        // block they must not pin this epoch across the next round's writes.
        let mut reader = self.publisher.reader();
        stage!(self, "versioned.snapshot_load", probes, 0, {
            for _ in 0..1024 {
                black_box(reader.snapshot());
            }
        });
        let store = self.engine.store();
        let table = store.embeddings(store.num_layers());
        let index = self.index.reader().index().clone();
        let step = (table.rows() / 16).max(1);
        let nprobe = self.nprobe;
        let mut candidates = 0usize;
        let mut queries = 0usize;
        stage!(self, "index.candidates", probes, 0, {
            for v in (0..table.rows()).step_by(step).take(16) {
                candidates += black_box(index.candidates(table.row(v), nprobe)).len();
                queries += 1;
            }
        });
        self.acc.add("n.candidates", candidates as f64);
        self.acc.add("n.candidate_queries", queries as f64);
        if let Some(probes) = probes {
            self.trace.close(probes);
        }
        Ok(())
    }

    /// Tenth percentile over `rounds` (the estimator of the end-to-end timings)
    /// of `Σ names ÷ per` within a round; rounds where `per` is 0 are
    /// skipped, and the result is 0 if none is left.
    pub fn per(rounds: &[RoundAcc], names: &[&str], per: &str) -> f64 {
        lower_decile(
            &rounds
                .iter()
                .filter(|r| r.get(per) > 0.0)
                .map(|r| names.iter().map(|n| r.get(n)).sum::<f64>() / r.get(per))
                .collect::<Vec<_>>(),
        )
    }

    /// The `graph` layer's counters: `(compactions, compact_ms, overlay_rows)`.
    pub fn topology_counters(&self) -> (u64, f64, usize) {
        (
            self.topo.compaction_stats().compactions,
            self.compact_ns as f64 / 1e6,
            self.topo.overlay_rows(),
        )
    }

    /// Clusters of the shadow's live index.
    pub fn index_clusters(&self) -> usize {
        self.index.reader().index().num_clusters()
    }

    /// Double-buffering counters of the shadow publisher.
    pub fn buffer_stats(&self) -> ripple_serve::BufferStats {
        self.publisher.buffer_stats()
    }

    /// Kernel probes on shapes and frontiers taken from the recorded
    /// windows (the dirty-row sets of the last few): `gnn` re-evaluation
    /// per hop and raw aggregation, `tensor` GEMM, row-matmul, gather and
    /// axpy. Returns `(metric name, value)` pairs.
    pub fn kernel_probes(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        const REPS: usize = 5;
        let parent = Some(self.trace.open("probe.kernels", None, 0));
        let mut frontier: Vec<VertexId> = self.recent_dirty.iter().flatten().copied().collect();
        frontier.sort_unstable();
        frontier.dedup();
        if frontier.is_empty() {
            frontier.push(VertexId(0));
        }
        let engine = &self.engine;
        let (model, store, topo) = (engine.model(), engine.store(), engine.topology());
        let mut out = Vec::new();
        let mut scratch = Scratch::new();

        const HOP_NAMES: [&str; 3] = [
            "gnn.reevaluate_ns_per_vertex_h1",
            "gnn.reevaluate_ns_per_vertex_h2",
            "gnn.reevaluate_ns_per_vertex_h3",
        ];
        for (hop, name) in HOP_NAMES.iter().enumerate().map(|(i, n)| (i + 1, n)) {
            if hop > model.num_layers() {
                out.push((*name, 0.0));
                continue;
            }
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let (result, ns) = self.trace.time("gnn.reevaluate", parent, hop as u64, || {
                    reevaluate_slice_into(topo, model, store, hop, &frontier, &mut scratch)
                });
                result.map_err(|e| format!("reevaluate probe: {e}"))?;
                black_box(&scratch.out);
                best = best.min(ns as f64);
            }
            out.push((*name, best / frontier.len() as f64));
        }

        // Raw aggregation of the frontier's in-neighbourhoods at hop 1.
        let table = store.embeddings(0);
        let mut row = vec![0.0f32; table.cols()];
        let edges: usize = frontier.iter().map(|&v| topo.in_degree(v)).sum();
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let ((), ns) = self.trace.time("gnn.raw_aggregate", parent, 0, || {
                for &v in &frontier {
                    model.aggregator().raw_aggregate_into(
                        table,
                        topo.in_neighbors(v),
                        topo.in_weights(v),
                        &mut row,
                    );
                    black_box(&row);
                }
            });
            best = best.min(ns as f64);
        }
        out.push(("gnn.aggregate_ns_per_edge", best / edges.max(1) as f64));

        // Dense kernels at the model's widest layer: frontier × k times k × n.
        let dims = model.dims();
        let (k, n) = dims
            .windows(2)
            .map(|w| (w[0], w[1]))
            .max_by_key(|(k, n)| k * n)
            .expect("a model has at least one layer");
        let m = frontier.len();
        let weights = Matrix::from_flat(k, n, (0..k * n).map(|i| (i % 7) as f32 * 0.1).collect())
            .expect("k·n values");
        let lhs: Vec<f32> = (0..m * k).map(|i| (i % 5) as f32 * 0.2).collect();
        let mut product = vec![0.0f32; m * n];
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let (result, ns) = self.trace.time("tensor.gemm_block", parent, 0, || {
                ops::gemm_block_into(&lhs, m, &weights, &mut product)
            });
            result.map_err(|e| format!("gemm probe: {e}"))?;
            black_box(&product);
            best = best.min(ns as f64);
        }
        out.push(("tensor.gemm_gflops", (2 * m * k * n) as f64 / best));

        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let ((), ns) = self.trace.time("tensor.row_matmul", parent, 0, || {
                for r in 0..m.min(256) {
                    ops::row_matmul_into(&lhs[r * k..(r + 1) * k], &weights, &mut product[..n])
                        .expect("row widths match the weight matrix");
                }
            });
            black_box(&product);
            best = best.min(ns as f64);
        }
        out.push(("tensor.row_matmul_ns", best / m.min(256) as f64));

        // Scattered gather of the frontier's rows from the widest table.
        let widest = (0..=model.num_layers())
            .map(|l| store.embeddings(l))
            .max_by_key(|t| t.cols())
            .expect("a store has at least the feature table");
        let indices: Vec<usize> = frontier.iter().map(|v| v.index()).collect();
        let mut gathered = Matrix::zeros(0, 0);
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let (result, ns) = self.trace.time("tensor.gather_rows", parent, 0, || {
                ops::gather_rows_into(widest, &indices, &mut gathered)
            });
            result.map_err(|e| format!("gather probe: {e}"))?;
            black_box(&gathered);
            best = best.min(ns as f64);
        }
        // Computed bytes: the rows read, not what the caches actually moved.
        out.push((
            "tensor.gather_gbps",
            (indices.len() * widest.cols() * 4) as f64 / best,
        ));

        let mut acc = vec![0.0f32; widest.cols()];
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let ((), ns) = self.trace.time("tensor.axpy", parent, 0, || {
                for &i in &indices {
                    ripple_tensor::axpy(&mut acc, 0.5, widest.row(i));
                }
            });
            black_box(&acc);
            best = best.min(ns as f64);
        }
        out.push(("tensor.axpy_ns_per_row", best / indices.len() as f64));

        if let Some(parent) = parent {
            self.trace.close(parent);
        }
        Ok(out)
    }
}
