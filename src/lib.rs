//! Facade crate for the Ripple reproduction.
//!
//! Re-exports the public API of the workspace crates under one roof and
//! provides the [`experiments`] module used by the `fig*`/`table*` harness
//! binaries (one per table/figure of the paper's evaluation) and by the
//! runnable examples.
//!
//! # Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`tensor`] | `ripple-tensor` | dense matrices, vector ops, initialisers |
//! | [`graph`] | `ripple-graph` | dynamic graphs, synthetic datasets, update streams, partitioners |
//! | [`gnn`] | `ripple-gnn` | GNN models, aggregators, layer-wise/vertex-wise inference, RC baselines |
//! | [`core`] | `ripple-core` | the Ripple incremental engine, mailboxes, metrics |
//! | [`dist`] | `ripple-dist` | distributed (BSP, simulated-network) Ripple and RC |
//! | [`serve`] | `ripple-serve` | online serving: versioned snapshots, update-coalescing scheduler, sharded tier |
//!
//! # Quickstart
//!
//! ```
//! use ripple::prelude::*;
//!
//! // 1. Generate a small synthetic graph and bootstrap all embeddings.
//! let graph = DatasetSpec::custom(300, 5.0, 16, 4).generate(7).unwrap();
//! let model = Workload::GcS.build_model(16, 32, 4, 2, 1).unwrap();
//! let store = full_inference(&graph, &model).unwrap();
//!
//! // 2. Stream updates through the incremental engine.
//! let mut engine = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
//! let batch = UpdateBatch::from_updates(vec![
//!     GraphUpdate::add_edge(VertexId(1), VertexId(2)),
//! ]);
//! let stats = engine.process_batch(&batch).unwrap();
//! println!("refreshed {} vertices", stats.affected_final);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ripple_core as core;
pub use ripple_dist as dist;
pub use ripple_gnn as gnn;
pub use ripple_graph as graph;
pub use ripple_serve as serve;
pub use ripple_tensor as tensor;

pub mod experiments;

/// The most commonly used items, re-exported for `use ripple::prelude::*`.
pub mod prelude {
    pub use ripple_core::{
        BatchStats, RippleConfig, RippleEngine, StreamRunner, StreamSummary, StreamingEngine,
        WorkerPool,
    };
    pub use ripple_dist::{
        DistBatchStats, DistRecomputeEngine, DistRippleEngine, DistSummary, NetworkModel,
    };
    pub use ripple_gnn::layer_wise::full_inference;
    pub use ripple_gnn::recompute::{RecomputeConfig, RecomputeEngine};
    pub use ripple_gnn::{Aggregator, EmbeddingStore, GnnModel, LayerKind, Workload};
    pub use ripple_graph::partition::{
        BfsPartitioner, HashPartitioner, LdgPartitioner, Partitioner, Partitioning,
    };
    pub use ripple_graph::stream::{build_stream, StreamConfig, StreamPlan};
    pub use ripple_graph::synth::DatasetSpec;
    pub use ripple_graph::{
        CsrGraph, CsrSnapshot, DynamicGraph, GraphUpdate, GraphView, UpdateBatch, VertexId,
    };
    pub use ripple_serve::{
        spawn as spawn_serve, spawn_sharded, BackpressurePolicy, FlushLog, IndexParams, IndexStats,
        QueryService, ReadMode, ServeConfig, ServeError, ServeHandle, ServeMetrics, ShardedEngines,
        Stamped, Submission, TopKRequest, UpdateClient,
    };
}
