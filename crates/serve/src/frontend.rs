//! The topology-agnostic serving frontend.
//!
//! [`ServeFrontend`] is the one contract every serving session satisfies,
//! whether one engine processes the whole graph ([`crate::spawn`] →
//! [`ServeHandle`]) or a hash-partitioned tier of shard engines serves it
//! ([`crate::spawn_sharded`] → [`ShardedServeHandle`]). Examples and the
//! consistency suites are written against this trait and run unchanged on
//! either topology; only bootstrap picks the shape.
//!
//! The trait's surface is deliberately the intersection that both
//! topologies satisfy with identical semantics:
//!
//! * [`ServeFrontend::client`] yields a [`ServeClient`] — the write path —
//!   which either feeds one scheduler queue or hash-routes across shard
//!   queues; producers observe the same [`Submission`] outcomes either way.
//! * [`ServeFrontend::query_service`] yields a [`crate::QueryService`]
//!   whose stamps degrade gracefully: single-engine responses carry a
//!   scalar epoch, sharded responses add the owning shard (point reads) or
//!   the per-shard epoch vector (whole-graph reads).
//! * [`ServeFrontend::quiesce`] is the portable drain: for one engine it is
//!   a flush; for a sharded tier it loops flush rounds until no cross-shard
//!   delta is in flight.

use crate::index::IndexStats;
use crate::metrics::ServeMetrics;
use crate::query::QueryService;
use crate::router::ShardRouter;
use crate::scheduler::{FlushLog, ServeError, ServeHandle, Submission, UpdateClient};
use crate::shard::{ShardedEngines, ShardedServeHandle};
use ripple_graph::GraphUpdate;
use std::sync::Arc;

/// The write path of a serving session: a single-queue client or a
/// hash-routing shard client, behind one `submit` surface.
#[derive(Debug, Clone)]
pub enum ServeClient {
    /// Producer handle of a single-engine session.
    Single(UpdateClient),
    /// Hash-routing producer handle of a sharded session.
    Sharded(ShardRouter),
}

impl ServeClient {
    /// Submits one update, honouring the session's backpressure policy.
    pub fn submit(&self, update: GraphUpdate) -> Submission {
        match self {
            ServeClient::Single(client) => client.submit(update),
            ServeClient::Sharded(router) => router.submit(update),
        }
    }

    /// Submits every update of a batch in order; stops at the first
    /// non-enqueued outcome and returns it together with the number of
    /// accepted updates.
    pub fn submit_all<I: IntoIterator<Item = GraphUpdate>>(
        &self,
        updates: I,
    ) -> (usize, Submission) {
        match self {
            ServeClient::Single(client) => client.submit_all(updates),
            ServeClient::Sharded(router) => router.submit_all(updates),
        }
    }
}

/// A running serving session, single-engine or sharded.
///
/// Implemented by [`ServeHandle`] (one [`ripple_core::StreamingEngine`]
/// behind one scheduler) and [`ShardedServeHandle`] (one
/// [`ripple_core::ShardEngine`] per partition). See the [module
/// docs](self) for the design rationale; every method documents any
/// topology-specific nuance.
pub trait ServeFrontend {
    /// What [`ServeFrontend::shutdown`] recovers: the engine itself for a
    /// single-engine session, the gathered shard engines for a sharded one.
    type Engine;

    /// A new producer handle (cheap; every writer thread should own one).
    fn client(&self) -> ServeClient;

    /// A new query handle (cheap; every reader thread should own one).
    fn query_service(&self) -> QueryService;

    /// The session's shared metrics. Sharded sessions aggregate across
    /// shards — e.g. an edge update owned by two shards counts twice in
    /// both `enqueued` and `applied`, keeping the two in balance.
    fn metrics(&self) -> Arc<ServeMetrics>;

    /// Forces the pending window(s) closed and returns the published epoch
    /// — the minimum per-shard epoch for a sharded session, whose
    /// cross-shard deltas may still be in flight afterwards. `None` once
    /// the session has stopped.
    fn flush(&self) -> Option<u64>;

    /// Flushes until the session is fully drained: every accepted update
    /// applied *and* (sharded) no cross-shard delta in flight.
    ///
    /// # Errors
    ///
    /// The session's typed terminal failure once it has stopped abnormally:
    /// [`ServeError::Engine`] / [`ServeError::Wal`] /
    /// [`ServeError::SchedulerPanicked`] for a single-engine session,
    /// [`ServeError::ShardFailed`] naming the failed shard for a sharded
    /// one.
    fn quiesce(&self) -> crate::Result<u64>;

    /// The flush logs recorded under [`crate::ServeConfig::record_batches`]:
    /// one per shard (indexed by partition), one total for a single-engine
    /// session, empty when recording is off.
    fn flush_logs(&self) -> Vec<FlushLog>;

    /// Number of engine shards serving this session (1 when unsharded).
    fn num_shards(&self) -> usize;

    /// Maintenance counters of the session's IVF top-k index (summed across
    /// shards), or `None` when the session was spawned with
    /// [`crate::ServeConfigBuilder::no_index`].
    fn index_stats(&self) -> Option<IndexStats>;

    /// Stops the session and recovers the engine state with every accepted
    /// update applied (sharded sessions quiesce first).
    ///
    /// # Errors
    ///
    /// Returns the error that poisoned the session, if any.
    fn shutdown(self) -> Result<Self::Engine, ServeError>
    where
        Self: Sized;
}

impl<E> ServeFrontend for ServeHandle<E> {
    type Engine = E;

    fn client(&self) -> ServeClient {
        ServeClient::Single(ServeHandle::client(self))
    }

    fn query_service(&self) -> QueryService {
        ServeHandle::query_service(self)
    }

    fn metrics(&self) -> Arc<ServeMetrics> {
        ServeHandle::metrics(self)
    }

    fn flush(&self) -> Option<u64> {
        ServeHandle::flush(self)
    }

    fn quiesce(&self) -> crate::Result<u64> {
        // One queue, one engine: a flush *is* a full drain — every update
        // accepted before it is absorbed first (FIFO), and there is no
        // cross-shard traffic.
        ServeHandle::flush(self)
            .ok_or_else(|| ServeHandle::failure(self).unwrap_or(ServeError::SchedulerPanicked))
    }

    fn flush_logs(&self) -> Vec<FlushLog> {
        ServeHandle::flush_log(self).into_iter().collect()
    }

    fn num_shards(&self) -> usize {
        1
    }

    fn index_stats(&self) -> Option<IndexStats> {
        ServeHandle::index_stats(self)
    }

    fn shutdown(self) -> Result<E, ServeError> {
        ServeHandle::shutdown(self)
    }
}

impl ServeFrontend for ShardedServeHandle {
    type Engine = ShardedEngines;

    fn client(&self) -> ServeClient {
        ServeClient::Sharded(ShardedServeHandle::client(self))
    }

    fn query_service(&self) -> QueryService {
        ShardedServeHandle::query_service(self)
    }

    fn metrics(&self) -> Arc<ServeMetrics> {
        ShardedServeHandle::metrics(self)
    }

    fn flush(&self) -> Option<u64> {
        ShardedServeHandle::flush(self)
    }

    fn quiesce(&self) -> crate::Result<u64> {
        ShardedServeHandle::quiesce(self)
    }

    fn flush_logs(&self) -> Vec<FlushLog> {
        ShardedServeHandle::flush_logs(self)
    }

    fn num_shards(&self) -> usize {
        ShardedServeHandle::num_shards(self)
    }

    fn index_stats(&self) -> Option<IndexStats> {
        ShardedServeHandle::index_stats(self)
    }

    fn shutdown(self) -> Result<ShardedEngines, ServeError> {
        ShardedServeHandle::shutdown(self)
    }
}
