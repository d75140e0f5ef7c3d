//! The Ripple incremental streaming-GNN inference engine (paper §4).
//!
//! Ripple treats vertices as first-class entities that own their embeddings
//! and propagate changes strictly *forward* through the graph. When a batch
//! of updates arrives:
//!
//! 1. the **update** operator applies the topology/feature changes at hop 0
//!    and deposits *delta messages* into the hop-1 mailboxes of the affected
//!    sinks (`m = α·h_new − α·h_old`, so that the old contribution is undone
//!    and the new one applied in a single scaled add);
//! 2. the **propagate** operator then runs hop by hop: each affected vertex
//!    *applies* the messages accumulated in its hop-`l` mailbox to its stored
//!    raw aggregate, recomputes its hop-`l` embedding through the layer's
//!    `Update` function, and *computes* fresh delta messages for its
//!    out-neighbours' hop-`l+1` mailboxes.
//!
//! Compared with the layer-wise recompute baseline, the aggregation work per
//! affected vertex drops from `k` (its full in-degree) to `2·k'` (twice the
//! number of in-neighbours that actually changed), which is where all of the
//! paper's speed-ups come from. The computation is exact for every linear
//! aggregation function — verified against full re-inference by this crate's
//! tests and property tests.
//!
//! # Example
//!
//! ```
//! use ripple_core::{RippleEngine, RippleConfig};
//! use ripple_gnn::{Workload, layer_wise};
//! use ripple_graph::{GraphUpdate, UpdateBatch, VertexId};
//! use ripple_graph::synth::DatasetSpec;
//!
//! // Bootstrap: generate a graph and pre-compute all embeddings.
//! let graph = DatasetSpec::custom(200, 5.0, 8, 4).generate(1).unwrap();
//! let model = Workload::GcS.build_model(8, 16, 4, 2, 7).unwrap();
//! let store = layer_wise::full_inference(&graph, &model).unwrap();
//!
//! // Stream a batch of updates through the incremental engine.
//! let mut engine = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
//! let batch = UpdateBatch::from_updates(vec![
//!     GraphUpdate::add_edge(VertexId(3), VertexId(10)),
//!     GraphUpdate::update_feature(VertexId(5), vec![0.5; 8]),
//! ]);
//! let stats = engine.process_batch(&batch).unwrap();
//! assert_eq!(stats.batch_size, 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod engine;
pub mod error;
pub mod footprint;
pub mod mailbox;
pub mod message;
pub mod metrics;
mod parallel;
pub mod shard;

pub use batch::{StreamRunner, StreamingEngine};
pub use engine::{evaluate_frontier_into, RippleConfig, RippleEngine};
pub use error::RippleError;
pub use footprint::Footprint;
pub use mailbox::{HopMail, MailboxSet};
pub use message::{DeltaMessage, HaloStubs};
pub use metrics::StreamSummary;
/// Re-export of the worker pool, which now lives at the bottom of the
/// compute stack so batched inference can shard over it too.
pub use ripple_tensor::{pool, Scratch, WorkerPool};
pub use shard::ShardEngine;

/// Re-export of the per-batch statistics shared with the recompute baselines.
pub use ripple_gnn::recompute::BatchStats;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RippleError>;
