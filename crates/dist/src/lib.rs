//! Distributed Ripple and recompute engines over a simulated network
//! (paper §5, Figs 12–13).
//!
//! The paper's distributed deployment partitions the graph across workers
//! (METIS there, [`ripple_graph::partition`] here), gives each worker the
//! edges incident to its own vertices plus stubs for the boundary ("halo")
//! vertices DistDGL-style, and runs inference as a sequence of **BSP
//! supersteps**: one superstep per GNN hop, each consisting of a
//! communication phase (ship the messages produced by the previous compute
//! phase) and a compute phase (apply mailboxes, re-evaluate layers).
//!
//! Real sockets would add nothing to the reproduction — the quantities the
//! paper reports are *bytes on the wire* and *simulated network time* — so
//! this crate executes every worker in one process and routes anything that
//! crosses a partition boundary through a byte-accounted [`NetworkModel`]:
//!
//! * [`DistRippleEngine`] — **push-based**: each worker is a
//!   [`ripple_core::ShardEngine`] with its own halo-restricted graph and
//!   store, running the single-machine engine's update operator and hop
//!   loop; [`ripple_core::ShardEngine::process_lockstep`] runs all of them
//!   through each hop together. A vertex whose embedding changed sends
//!   [`ripple_core::DeltaMessage`]s to its remote out-neighbours' mailboxes,
//!   pre-accumulated per (source worker, target) stub exactly as the halo
//!   machinery prescribes. Communication scales with the *changed*
//!   in-neighbours `k'` of each affected vertex.
//! * [`DistRecomputeEngine`] — **pull-based** (DistDGL/RC-style): a worker
//!   recomputing an affected vertex has no change tracking, so every
//!   superstep it must fetch the previous-hop embeddings of **all** remote
//!   in-neighbours of its affected vertices. Communication scales with the
//!   full in-degree `k` — the gap behind the paper's ~70× communication
//!   reduction (Fig 12c).
//!
//! Both engines are exact: their [`gather_store`]d embeddings match
//! single-machine full inference within floating-point accumulation
//! tolerance, for any partitioning and any partition count.
//!
//! # Example
//!
//! ```
//! use ripple_dist::{DistRippleEngine, NetworkModel};
//! use ripple_gnn::{layer_wise::full_inference, Workload};
//! use ripple_graph::partition::{LdgPartitioner, Partitioner};
//! use ripple_graph::stream::{build_stream, StreamConfig};
//! use ripple_graph::synth::DatasetSpec;
//!
//! let full = DatasetSpec::custom(300, 5.0, 8, 4).generate(3).unwrap();
//! let plan = build_stream(&full, &StreamConfig { total_updates: 30, ..Default::default() })
//!     .unwrap();
//! let model = Workload::GcS.build_model(8, 16, 4, 2, 1).unwrap();
//! let store = full_inference(&plan.snapshot, &model).unwrap();
//! let partitioning = LdgPartitioner::new().partition(&plan.snapshot, 4).unwrap();
//!
//! let mut engine = DistRippleEngine::new(
//!     &plan.snapshot,
//!     model,
//!     &store,
//!     partitioning,
//!     NetworkModel::ten_gbe(),
//! )
//! .unwrap();
//! for batch in plan.batches(10) {
//!     let stats = engine.process_batch(&batch).unwrap();
//!     println!("{} bytes across the wire", stats.comm.bytes);
//! }
//! let fresh = engine.gather_store();
//! assert_eq!(fresh.num_layers(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod error;
mod network;
mod recompute;
mod stats;
mod worker;

pub use engine::DistRippleEngine;
pub use error::DistError;
pub use network::{CommStats, NetworkModel};
pub use recompute::DistRecomputeEngine;
pub use stats::{DistBatchStats, DistSummary};
pub use worker::gather_store;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DistError>;
