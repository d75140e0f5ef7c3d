//! The producer handle of a serving session: routes each update to the
//! queues of the parts that own it.
//!
//! An [`UpdateClient`] routes by [`Partitioning::update_owners`]: feature
//! updates go to the owner of the rewritten vertex; edge updates go to the
//! owner of **both** endpoints (once, when one part owns both) — each owner
//! applies the topology change to its halo-restricted graph, and only the
//! source's owner emits the resulting value deltas. An id beyond the
//! partitioned space is routed by hash, so its owner's pipeline refuses it
//! before logging it. At one part every update has one route.
//!
//! Part queues are unbounded (halo sends between parts must never block),
//! so producer backpressure lives here: every part carries a depth counter,
//! and a submission first clears [`ServeConfig::queue_capacity`] on *every*
//! route — blocking or shedding per the configured policy — before
//! enqueueing anywhere. A cross-shard edge update is therefore accepted by
//! all of its owners or by none.

use crate::metrics::ServeMetrics;
use crate::pipeline::Msg;
use crate::scheduler::{BackpressurePolicy, QueuedUpdate, Submission};
use ripple_graph::partition::Partitioning;
use ripple_graph::{GraphUpdate, PartitionId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(doc)]
use crate::scheduler::ServeConfig;

/// How long a blocked submission sleeps between depth re-checks.
const BLOCK_BACKOFF: Duration = Duration::from_micros(50);

/// Cloneable producer handle submitting updates into a serving session.
#[derive(Debug, Clone)]
pub struct UpdateClient {
    txs: Vec<Sender<Msg>>,
    depths: Vec<Arc<AtomicUsize>>,
    alive: Vec<Arc<AtomicBool>>,
    /// Per-part accepted-update counters (an update counts at every part
    /// it routes to — the staleness denominator of that part's reads).
    submitted: Vec<Arc<AtomicU64>>,
    /// Per-part count of **secondary** route copies: the second delivery
    /// of a cross-shard edge update. Merged reads subtract these so one
    /// logical update pending at both owners counts once in their
    /// deduplicated staleness.
    secondary_submitted: Vec<Arc<AtomicU64>>,
    /// Raw accepted submissions across the session (each counted once).
    total_submitted: Arc<AtomicU64>,
    partitioning: Arc<Partitioning>,
    metrics: Arc<ServeMetrics>,
    policy: BackpressurePolicy,
    queue_capacity: usize,
}

impl UpdateClient {
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
        UpdateClient {
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

    /// Submits one update, honouring the configured backpressure policy
    /// across every part it routes to.
    pub fn submit(&self, update: GraphUpdate) -> Submission {
        let (first, second) = self.partitioning.update_owners(&update);
        // Clear backpressure on every route before enqueueing anywhere, so
        // a cross-shard update is accepted by all owners or by none.
        for part in std::iter::once(first).chain(second) {
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
        // The second route of an edge update is the duplicate delivery; it
        // takes the update itself, the first route a copy.
        let sent = match second {
            Some(second) => {
                self.enqueue(first, update.clone(), enqueued, false)
                    && self.enqueue(second, update, enqueued, true)
            }
            None => self.enqueue(first, update, enqueued, false),
        };
        if !sent {
            return Submission::Closed;
        }
        let seq = self.total_submitted.fetch_add(1, Ordering::Relaxed) + 1;
        Submission::Enqueued { seq }
    }

    /// Sends one route's copy of an update to `part`'s queue; `false` once
    /// that part has stopped. A `secondary` copy is marked so flushes and
    /// staleness stamps can dedup by logical update.
    fn enqueue(
        &self,
        part: PartitionId,
        update: GraphUpdate,
        enqueued: Instant,
        secondary: bool,
    ) -> bool {
        let i = part.index();
        let queued = QueuedUpdate {
            update,
            enqueued,
            secondary,
        };
        // Count the slot before sending: the worker decrements as it
        // dequeues, and the counter must never underflow.
        self.depths[i].fetch_add(1, Ordering::AcqRel);
        if self.txs[i].send(Msg::Update(queued)).is_err() {
            self.depths[i].fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        self.submitted[i].fetch_add(1, Ordering::Relaxed);
        if secondary {
            self.secondary_submitted[i].fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.record_enqueued();
        true
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
