//! Shared fixtures for the Criterion benchmark harness.
//!
//! Each bench target regenerates (a scaled-down version of) one of the
//! paper's tables/figures or micro-benchmarks one of the core primitives.
//! The fixtures here keep graph sizes small enough for Criterion's repeated
//! sampling while preserving the relative ordering of the strategies.

use ripple_core::{RippleConfig, RippleEngine};
use ripple_gnn::layer_wise::full_inference;
use ripple_gnn::recompute::{RecomputeConfig, RecomputeEngine};
use ripple_gnn::{EmbeddingStore, GnnModel, Workload};
use ripple_graph::stream::{build_stream, StreamConfig};
use ripple_graph::synth::DatasetSpec;
use ripple_graph::{DynamicGraph, UpdateBatch};

/// A bootstrapped benchmark scenario: snapshot, model, embeddings and a
/// pre-batched update stream.
pub struct BenchScenario {
    /// Initial snapshot graph.
    pub snapshot: DynamicGraph,
    /// Model under test.
    pub model: GnnModel,
    /// Bootstrap embeddings of the snapshot.
    pub store: EmbeddingStore,
    /// Update batches to replay.
    pub batches: Vec<UpdateBatch>,
}

impl BenchScenario {
    /// Builds a scenario over a power-law graph.
    ///
    /// # Panics
    ///
    /// Panics on generation/inference failures (benchmarks treat these as
    /// fatal).
    pub fn new(
        num_vertices: usize,
        avg_in_degree: f64,
        feature_dim: usize,
        workload: Workload,
        num_layers: usize,
        batch_size: usize,
        num_batches: usize,
    ) -> Self {
        let spec = DatasetSpec::custom(num_vertices, avg_in_degree, feature_dim, 8);
        let full = spec
            .generate_weighted(42, workload.needs_edge_weights())
            .expect("dataset");
        let plan = build_stream(
            &full,
            &StreamConfig {
                holdout_fraction: 0.1,
                total_updates: batch_size * num_batches,
                seed: 7,
            },
        )
        .expect("stream");
        let model = workload
            .build_model(feature_dim, 32, 8, num_layers, 3)
            .expect("model");
        let store = full_inference(&plan.snapshot, &model).expect("bootstrap");
        let batches = plan.batches(batch_size);
        BenchScenario {
            snapshot: plan.snapshot,
            model,
            store,
            batches,
        }
    }

    /// A fresh Ripple engine over this scenario's bootstrap state.
    pub fn ripple_engine(&self) -> RippleEngine {
        RippleEngine::new(
            self.snapshot.clone(),
            self.model.clone(),
            self.store.clone(),
            RippleConfig::default(),
        )
        .expect("ripple engine")
    }

    /// A fresh recompute engine (RC or DRC-style) over this scenario's
    /// bootstrap state.
    pub fn recompute_engine(&self, config: RecomputeConfig) -> RecomputeEngine {
        RecomputeEngine::new(
            self.snapshot.clone(),
            self.model.clone(),
            self.store.clone(),
            config,
        )
        .expect("recompute engine")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_and_engines_process_batches() {
        let scenario = BenchScenario::new(200, 4.0, 8, Workload::GcS, 2, 10, 2);
        assert_eq!(scenario.batches.len(), 2);
        let mut ripple = scenario.ripple_engine();
        let mut rc = scenario.recompute_engine(RecomputeConfig::rc());
        ripple.process_batch(&scenario.batches[0]).unwrap();
        rc.process_batch(&scenario.batches[0]).unwrap();
    }
}
