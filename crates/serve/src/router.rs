//! The router client of the sharded serving tier: hash-routes updates to
//! their owning shards' queues.
//!
//! A [`ShardRouter`] is the sharded counterpart of [`crate::UpdateClient`].
//! It routes by [`Partitioning::update_owners`]: feature updates go to the
//! owner of the rewritten vertex; edge updates go to the owner of **both**
//! endpoints (once, when one shard owns both) — each owner applies the
//! topology change to its halo-restricted graph, and only the source's owner
//! emits the resulting value deltas. An id beyond the partitioned space is
//! routed by hash, so its owner's pipeline refuses it before logging it,
//! exactly like the single-engine tier does.
//!
//! Shard queues are unbounded (halo sends between workers must never
//! block), so producer backpressure lives here: every shard carries a depth
//! counter, and a submission first clears [`ServeConfig::queue_capacity`]
//! on *every* route — blocking or shedding per the configured policy —
//! before enqueueing anywhere. A cross-shard edge update is therefore
//! accepted by all of its owners or by none.

use crate::metrics::ServeMetrics;
use crate::pipeline::Msg;
use crate::scheduler::{BackpressurePolicy, QueuedUpdate, Submission};
use ripple_graph::partition::Partitioning;
use ripple_graph::GraphUpdate;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(doc)]
use crate::scheduler::ServeConfig;

/// How long a blocked submission sleeps between depth re-checks.
const BLOCK_BACKOFF: Duration = Duration::from_micros(50);

/// Cloneable producer handle hash-routing updates into a sharded session.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    txs: Vec<Sender<Msg>>,
    depths: Vec<Arc<AtomicUsize>>,
    alive: Vec<Arc<AtomicBool>>,
    /// Per-shard accepted-update counters (an update counts at every shard
    /// it routes to — the staleness denominator of that shard's reads).
    submitted: Vec<Arc<AtomicU64>>,
    /// Per-shard count of **secondary** route copies: the second delivery
    /// of a cross-shard edge update. Merged reads subtract these so one
    /// logical update pending at both owners counts once in their
    /// deduplicated staleness.
    secondary_submitted: Vec<Arc<AtomicU64>>,
    /// Raw accepted submissions across the tier (each counted once).
    total_submitted: Arc<AtomicU64>,
    partitioning: Arc<Partitioning>,
    metrics: Arc<ServeMetrics>,
    policy: BackpressurePolicy,
    queue_capacity: usize,
}

impl ShardRouter {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        txs: Vec<Sender<Msg>>,
        depths: Vec<Arc<AtomicUsize>>,
        alive: Vec<Arc<AtomicBool>>,
        submitted: Vec<Arc<AtomicU64>>,
        secondary_submitted: Vec<Arc<AtomicU64>>,
        total_submitted: Arc<AtomicU64>,
        partitioning: Arc<Partitioning>,
        metrics: Arc<ServeMetrics>,
        policy: BackpressurePolicy,
        queue_capacity: usize,
    ) -> Self {
        ShardRouter {
            txs,
            depths,
            alive,
            submitted,
            secondary_submitted,
            total_submitted,
            partitioning,
            metrics,
            policy,
            queue_capacity,
        }
    }

    /// Number of shards this router fans out over.
    pub fn num_shards(&self) -> usize {
        self.txs.len()
    }

    /// Submits one update, honouring the configured backpressure policy
    /// across every shard it routes to.
    pub fn submit(&self, update: GraphUpdate) -> Submission {
        let (first, second) = self.partitioning.update_owners(&update);
        let targets = [Some(first), second];
        // Clear backpressure on every route before enqueueing anywhere, so
        // a cross-shard update is accepted by all owners or by none.
        for part in targets.iter().flatten() {
            let i = part.index();
            match self.policy {
                BackpressurePolicy::Shed => {
                    if !self.alive[i].load(Ordering::Acquire) {
                        return Submission::Closed;
                    }
                    if self.depths[i].load(Ordering::Acquire) >= self.queue_capacity {
                        self.metrics.record_shed();
                        return Submission::Shed;
                    }
                }
                BackpressurePolicy::Block => loop {
                    if !self.alive[i].load(Ordering::Acquire) {
                        return Submission::Closed;
                    }
                    if self.depths[i].load(Ordering::Acquire) < self.queue_capacity {
                        break;
                    }
                    std::thread::sleep(BLOCK_BACKOFF);
                },
            }
        }
        let enqueued = Instant::now();
        for (route, part) in targets.iter().flatten().enumerate() {
            let i = part.index();
            // The second route of an edge update is the duplicate delivery;
            // mark it so flushes and staleness stamps can dedup by logical
            // update.
            let secondary = route == 1;
            let queued = QueuedUpdate {
                update: update.clone(),
                enqueued,
                secondary,
            };
            // Count the slot before sending: the worker decrements as it
            // dequeues, and the counter must never underflow.
            self.depths[i].fetch_add(1, Ordering::AcqRel);
            if self.txs[i].send(Msg::Update(queued)).is_err() {
                self.depths[i].fetch_sub(1, Ordering::AcqRel);
                return Submission::Closed;
            }
            self.submitted[i].fetch_add(1, Ordering::Relaxed);
            if secondary {
                self.secondary_submitted[i].fetch_add(1, Ordering::Relaxed);
            }
            self.metrics.record_enqueued();
        }
        let seq = self.total_submitted.fetch_add(1, Ordering::Relaxed) + 1;
        Submission::Enqueued { seq }
    }

    /// Submits every update of a batch in order; stops at the first
    /// non-enqueued outcome and returns it together with the number of
    /// accepted updates.
    pub fn submit_all<I: IntoIterator<Item = GraphUpdate>>(
        &self,
        updates: I,
    ) -> (usize, Submission) {
        let mut accepted = 0;
        let mut last = Submission::Enqueued { seq: 0 };
        for update in updates {
            last = self.submit(update);
            match last {
                Submission::Enqueued { .. } => accepted += 1,
                _ => return (accepted, last),
            }
        }
        (accepted, last)
    }
}
