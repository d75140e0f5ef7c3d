//! Shared serving counters, updated lock-free from every thread.
//!
//! One [`ServeMetrics`] instance is shared (via `Arc`) between the update
//! clients, the scheduler thread and every [`crate::QueryService`] handle.
//! All fields are relaxed atomics — the counters are monotonic and only read
//! for reporting, so no ordering beyond atomicity is needed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Lock-free counters describing a serving session.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    enqueued: AtomicU64,
    shed: AtomicU64,
    coalesced: AtomicU64,
    applied: AtomicU64,
    batches: AtomicU64,
    epochs: AtomicU64,
    engine_errors: AtomicU64,
    admitted_concurrent: AtomicU64,
    conflicts: AtomicU64,
    merged: AtomicU64,
    serialized: AtomicU64,
    lag_nanos_sum: AtomicU64,
    lag_nanos_max: AtomicU64,
    lag_count: AtomicU64,
    reads: AtomicU64,
    read_nanos_sum: AtomicU64,
    exact_pruned_reads: AtomicU64,
    exact_full_scans: AtomicU64,
    exact_rows_scored: AtomicU64,
}

impl ServeMetrics {
    /// A fresh, all-zero metrics block.
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    pub(crate) fn record_enqueued(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_coalesced(&self, n: u64) {
        self.coalesced.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_flush(&self, raw_applied: u64, ran_engine: bool) {
        self.applied.fetch_add(raw_applied, Ordering::Relaxed);
        if ran_engine {
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
        self.epochs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_engine_error(&self) {
        self.engine_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one committed admission group of `windows` windows. Groups
    /// of two or more executed concurrently (one merged engine pass); every
    /// window beyond a group's first rode along as a merge.
    pub(crate) fn record_admission_group(&self, windows: u64) {
        if windows >= 2 {
            self.admitted_concurrent
                .fetch_add(windows, Ordering::Relaxed);
            self.merged.fetch_add(windows - 1, Ordering::Relaxed);
        }
    }

    /// Records one footprint conflict: a closing window intersected the
    /// in-flight reservation set and forced the staged group to commit
    /// ahead of it (the window was serialized behind the group).
    pub(crate) fn record_conflict(&self) {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
        self.serialized.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one update's enqueue→published-epoch visibility lag.
    pub(crate) fn record_visibility_lag(&self, lag: Duration) {
        let nanos = lag.as_nanos().min(u64::MAX as u128) as u64;
        self.lag_nanos_sum.fetch_add(nanos, Ordering::Relaxed);
        self.lag_nanos_max.fetch_max(nanos, Ordering::Relaxed);
        self.lag_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one served read and its latency.
    pub(crate) fn record_read(&self, latency: Duration) {
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_nanos_sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one exact top-k read: whether every shard it read pruned by
    /// its index, and how many rows it scored in total.
    pub(crate) fn record_exact_read(&self, pruned: bool, rows_scored: u64) {
        let path = if pruned {
            &self.exact_pruned_reads
        } else {
            &self.exact_full_scans
        };
        path.fetch_add(1, Ordering::Relaxed);
        self.exact_rows_scored
            .fetch_add(rows_scored, Ordering::Relaxed);
    }

    /// Raw updates accepted into the queue so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Updates rejected by the [`crate::BackpressurePolicy::Shed`] policy.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Updates removed by window coalescing (merged feature rewrites and
    /// cancelled add/delete churn) before the engine saw them.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Raw updates covered by published epochs (counts coalesced-away ones).
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Non-empty batches handed to the engine.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Epochs published.
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Engine failures observed by the scheduler (the engine is poisoned
    /// after the first).
    pub fn engine_errors(&self) -> u64 {
        self.engine_errors.load(Ordering::Relaxed)
    }

    /// Windows committed inside admission groups of size >= 2 (on the
    /// sharded tier: windows that shared a group fsync).
    pub fn admitted_concurrent(&self) -> u64 {
        self.admitted_concurrent.load(Ordering::Relaxed)
    }

    /// Footprint conflicts detected by the admission controller. Always 0
    /// on the sharded tier, whose windows stage without a footprint.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }

    /// Windows that joined an already non-empty staged group (executed in
    /// the group's single merged engine pass; on the sharded tier, still
    /// executed one by one behind the group's fsync).
    pub fn merged(&self) -> u64 {
        self.merged.load(Ordering::Relaxed)
    }

    /// Windows deferred behind a conflicting in-flight group (the group
    /// committed first; the window staged alone afterwards). Always 0 on
    /// the sharded tier.
    pub fn serialized(&self) -> u64 {
        self.serialized.load(Ordering::Relaxed)
    }

    /// Reads served by all query handles.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Exact top-k reads that pruned clusters by their index bounds on every
    /// shard they read.
    pub fn exact_pruned_reads(&self) -> u64 {
        self.exact_pruned_reads.load(Ordering::Relaxed)
    }

    /// Exact top-k reads that scanned every row of at least one shard,
    /// because no index could vouch for its snapshot.
    pub fn exact_full_scans(&self) -> u64 {
        self.exact_full_scans.load(Ordering::Relaxed)
    }

    /// Rows scored by exact top-k reads, pruned and full alike. Divided by
    /// the exact reads times `|V|`, this is the exact scan fraction.
    pub fn exact_rows_scored(&self) -> u64 {
        self.exact_rows_scored.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn report(&self) -> MetricsReport {
        let lag_count = self.lag_count.load(Ordering::Relaxed);
        let reads = self.reads.load(Ordering::Relaxed);
        MetricsReport {
            enqueued: self.enqueued(),
            shed: self.shed(),
            coalesced: self.coalesced(),
            applied: self.applied(),
            batches: self.batches(),
            epochs: self.epochs(),
            engine_errors: self.engine_errors(),
            admitted_concurrent: self.admitted_concurrent(),
            conflicts: self.conflicts(),
            merged: self.merged(),
            serialized: self.serialized(),
            reads,
            mean_read_latency: mean_duration(self.read_nanos_sum.load(Ordering::Relaxed), reads),
            mean_visibility_lag: mean_duration(
                self.lag_nanos_sum.load(Ordering::Relaxed),
                lag_count,
            ),
            max_visibility_lag: Duration::from_nanos(self.lag_nanos_max.load(Ordering::Relaxed)),
            exact_pruned_reads: self.exact_pruned_reads(),
            exact_full_scans: self.exact_full_scans(),
            exact_rows_scored: self.exact_rows_scored(),
        }
    }
}

fn mean_duration(nanos_sum: u64, count: u64) -> Duration {
    nanos_sum
        .checked_div(count)
        .map_or(Duration::ZERO, Duration::from_nanos)
}

/// Plain-data snapshot of [`ServeMetrics`], for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// Raw updates accepted into the queue.
    pub enqueued: u64,
    /// Updates rejected under the shed policy.
    pub shed: u64,
    /// Updates removed by window coalescing.
    pub coalesced: u64,
    /// Raw updates covered by published epochs.
    pub applied: u64,
    /// Non-empty batches handed to the engine.
    pub batches: u64,
    /// Epochs published.
    pub epochs: u64,
    /// Engine failures observed by the scheduler.
    pub engine_errors: u64,
    /// Windows committed inside admission groups of size >= 2 (on the
    /// sharded tier: windows that shared a group fsync).
    pub admitted_concurrent: u64,
    /// Footprint conflicts detected by the admission controller (always 0
    /// on the sharded tier, whose windows stage without a footprint).
    pub conflicts: u64,
    /// Windows merged into an already non-empty staged group.
    pub merged: u64,
    /// Windows serialized behind a conflicting in-flight group (always 0
    /// on the sharded tier).
    pub serialized: u64,
    /// Reads served.
    pub reads: u64,
    /// Mean read latency across all served reads.
    pub mean_read_latency: Duration,
    /// Mean enqueue→published-epoch lag across applied updates.
    pub mean_visibility_lag: Duration,
    /// Worst enqueue→published-epoch lag.
    pub max_visibility_lag: Duration,
    /// Exact top-k reads that pruned by index bounds on every shard.
    pub exact_pruned_reads: u64,
    /// Exact top-k reads that fully scanned at least one shard.
    pub exact_full_scans: u64,
    /// Rows scored by exact top-k reads.
    pub exact_rows_scored: u64,
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "enqueued={} shed={} coalesced={} applied={} batches={} epochs={} errors={} \
             admitted_concurrent={} conflicts={} merged={} serialized={} \
             reads={} mean_read={:.3}ms mean_lag={:.3}ms max_lag={:.3}ms \
             exact_pruned={} exact_full={} exact_rows={}",
            self.enqueued,
            self.shed,
            self.coalesced,
            self.applied,
            self.batches,
            self.epochs,
            self.engine_errors,
            self.admitted_concurrent,
            self.conflicts,
            self.merged,
            self.serialized,
            self.reads,
            self.mean_read_latency.as_secs_f64() * 1e3,
            self.mean_visibility_lag.as_secs_f64() * 1e3,
            self.max_visibility_lag.as_secs_f64() * 1e3,
            self.exact_pruned_reads,
            self.exact_full_scans,
            self.exact_rows_scored,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_report() {
        let m = ServeMetrics::new();
        m.record_enqueued();
        m.record_enqueued();
        m.record_shed();
        m.record_coalesced(2);
        m.record_flush(2, true);
        m.record_flush(1, false);
        m.record_engine_error();
        m.record_admission_group(3);
        m.record_admission_group(1);
        m.record_conflict();
        m.record_visibility_lag(Duration::from_millis(2));
        m.record_visibility_lag(Duration::from_millis(4));
        m.record_read(Duration::from_micros(10));
        m.record_exact_read(true, 40);
        m.record_exact_read(false, 100);
        m.record_exact_read(true, 2);

        let r = m.report();
        assert_eq!(r.enqueued, 2);
        assert_eq!(r.shed, 1);
        assert_eq!(r.coalesced, 2);
        assert_eq!(r.applied, 3);
        assert_eq!(r.batches, 1);
        assert_eq!(r.epochs, 2);
        assert_eq!(r.engine_errors, 1);
        assert_eq!(
            r.admitted_concurrent, 3,
            "singleton groups are not concurrent"
        );
        assert_eq!(r.merged, 2);
        assert_eq!(r.conflicts, 1);
        assert_eq!(r.serialized, 1);
        assert_eq!(r.reads, 1);
        assert_eq!(r.mean_visibility_lag, Duration::from_millis(3));
        assert_eq!(r.max_visibility_lag, Duration::from_millis(4));
        assert!(r.mean_read_latency >= Duration::from_micros(10));
        let line = r.to_string();
        assert!(line.contains("epochs=2"));
        assert!(line.contains("mean_lag"));
        assert_eq!(r.exact_pruned_reads, 2);
        assert_eq!(r.exact_full_scans, 1);
        assert_eq!(r.exact_rows_scored, 142);
        assert!(line.contains("exact_pruned=2 exact_full=1 exact_rows=142"));
    }

    #[test]
    fn empty_report_has_zero_means() {
        let r = ServeMetrics::new().report();
        assert_eq!(r.mean_read_latency, Duration::ZERO);
        assert_eq!(r.mean_visibility_lag, Duration::ZERO);
    }
}
