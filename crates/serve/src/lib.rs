//! Online serving for the Ripple incremental engine.
//!
//! The engines in `ripple-core` keep embeddings fresh under streamed graph
//! updates, but they own their store exclusively — nothing can *query* while
//! a batch propagates. This crate adds the read/update separation a serving
//! deployment needs:
//!
//! * [`VersionedStore`] — epoch-versioned snapshots of the engine's
//!   final-layer embedding table (all that reads serve) behind an `Arc`
//!   swap. Readers hold a cheap cached [`SnapshotReader`] handle whose hot
//!   path is **one atomic load**; the publisher double-buffers so
//!   steady-state epoch publication reuses the retired snapshot's table
//!   instead of allocating a copy.
//! * [`spawn`] — an MPSC update queue with size- and time-window
//!   coalescing, same-edge churn dedup and bounded-queue backpressure
//!   ([`BackpressurePolicy::Block`] or [`BackpressurePolicy::Shed`]),
//!   driving a [`ripple_core::RippleEngine`] on a dedicated scheduler
//!   thread and publishing a new epoch after each flushed batch.
//! * [`QueryService`] — point embedding lookups, predicted labels and
//!   batched top-k by embedding dot product, each stamped with the epoch and
//!   staleness (updates enqueued but not yet visible) it was served at.
//!   Top-k goes through a validated [`TopKRequest`]: [`ReadMode::Exact`]
//!   returns the true top-k, pruning clusters by the IVF index's bounds,
//!   and [`ReadMode::Approx`] probes a fixed number of clusters.
//! * An **epoch-repaired IVF index** ([`index`]) — k-means coarse centroids
//!   over final-layer embeddings with per-cluster postings lists, published
//!   behind the same `Arc`-swap discipline as the store. Each flush repairs
//!   only the rows the engine dirtied (plus lazy split/merge of imbalanced
//!   clusters), so approximate top-k stays sublinear while following every
//!   epoch; [`IndexStats`] counts repairs vs rebuilds.
//! * [`ServeMetrics`] — lock-free counters of reads, applied updates,
//!   epochs and update-visibility lag, shared by the scheduler and every
//!   query handle.
//! * A **sharded serving tier** behind the same API — [`spawn_sharded`]
//!   hash-partitions the graph into [`ripple_core::ShardEngine`]s, each on
//!   its own scheduler thread with its own epoch sequence; the
//!   [`UpdateClient`] hash-routes updates and the shards exchange halo
//!   delta messages like the distributed engine's halo stubs. It is the
//!   same session as [`spawn`]'s, which is one shard with no halos: both
//!   return a [`ServeHandle`], so examples and consistency suites run
//!   unchanged against either.
//!
//! # Example
//!
//! ```
//! use ripple_core::{RippleConfig, RippleEngine};
//! use ripple_gnn::{layer_wise::full_inference, Workload};
//! use ripple_graph::synth::DatasetSpec;
//! use ripple_graph::{GraphUpdate, VertexId};
//! use ripple_serve::{spawn, ServeConfig};
//!
//! let graph = DatasetSpec::custom(100, 4.0, 8, 4).generate(1).unwrap();
//! let model = Workload::GcS.build_model(8, 16, 4, 2, 7).unwrap();
//! let store = full_inference(&graph, &model).unwrap();
//! let engine = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
//!
//! let handle = spawn(engine, ServeConfig::default()).unwrap();
//! let client = handle.client();
//! let mut queries = handle.query_service();
//!
//! client.submit(GraphUpdate::add_edge(VertexId(3), VertexId(10)));
//! handle.flush(); // force the window closed (normally size/time-triggered)
//!
//! let label = queries.read_label(VertexId(10)).unwrap();
//! assert!(label.epoch >= 1);
//! handle.shutdown().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod durability;
pub mod index;
pub mod metrics;
mod pipeline;
pub mod query;
pub mod router;
pub mod scheduler;
pub mod shard;
pub mod versioned;

pub use admission::{AdmissionController, StagedWindow, WindowState};
pub use durability::{
    DurabilityConfig, FailPoints, FsyncPolicy, RecoveryReport, FP_AFTER_PUBLISH, FP_CKPT_MID,
    FP_WAL_AFTER_APPEND, FP_WAL_BEFORE_APPEND, FP_WAL_TORN_APPEND,
};
pub use index::{IndexParams, IndexReader, IndexStats, TopKIndex};
pub use metrics::{MetricsReport, ServeMetrics};
pub use query::{QueryService, ReadMode, Stamped, TopKRequest};
pub use router::UpdateClient;
pub use scheduler::{
    BackpressurePolicy, FlushLog, FlushRecord, ServeConfig, ServeConfigBuilder, ServeError,
    Submission,
};
pub use shard::{spawn, spawn_sharded, ServeHandle, ShardedEngines};
pub use versioned::{
    BufferStats, EpochSnapshot, SnapshotPublisher, SnapshotReader, VersionedStore,
};

/// Re-export of the partition id shards and query stamps are keyed by.
pub use ripple_graph::PartitionId;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
