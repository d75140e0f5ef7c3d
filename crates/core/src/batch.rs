//! Uniform driver for streaming-inference strategies.
//!
//! The evaluation compares several strategies (Ripple, RC, DRC-style,
//! vertex-wise) over identical update streams. [`StreamingEngine`] gives them
//! one interface and [`StreamRunner`] replays a stream of batches through any
//! of them, collecting the per-batch statistics that the experiment harness
//! consumes.

use crate::engine::RippleEngine;
use crate::metrics::StreamSummary;
use crate::{Result, RippleError};
use ripple_gnn::recompute::{vertex_wise_recompute_batch, BatchStats, RecomputeEngine};
use ripple_gnn::{EmbeddingStore, GnnModel};
use ripple_graph::{DynamicGraph, UpdateBatch};

/// A strategy that consumes update batches and keeps predictions fresh.
pub trait StreamingEngine {
    /// Applies one batch of updates and refreshes all affected embeddings.
    ///
    /// # Errors
    ///
    /// Implementations return an error if an update is invalid for the
    /// current graph state or an internal computation fails.
    fn process_batch(&mut self, batch: &UpdateBatch) -> Result<BatchStats>;

    /// Short strategy name used in reports ("ripple", "rc", "drc", "dnc").
    fn strategy_name(&self) -> &'static str;

    /// The embedding store holding the current predictions.
    fn current_store(&self) -> &EmbeddingStore;

    /// The current graph (after all processed batches).
    fn current_graph(&self) -> &DynamicGraph;
}

impl<T: StreamingEngine + ?Sized> StreamingEngine for Box<T> {
    fn process_batch(&mut self, batch: &UpdateBatch) -> Result<BatchStats> {
        (**self).process_batch(batch)
    }

    fn strategy_name(&self) -> &'static str {
        (**self).strategy_name()
    }

    fn current_store(&self) -> &EmbeddingStore {
        (**self).current_store()
    }

    fn current_graph(&self) -> &DynamicGraph {
        (**self).current_graph()
    }
}

impl StreamingEngine for RippleEngine {
    fn process_batch(&mut self, batch: &UpdateBatch) -> Result<BatchStats> {
        RippleEngine::process_batch(self, batch)
    }

    fn strategy_name(&self) -> &'static str {
        "ripple"
    }

    fn current_store(&self) -> &EmbeddingStore {
        self.store()
    }

    fn current_graph(&self) -> &DynamicGraph {
        self.graph()
    }
}

impl StreamingEngine for RecomputeEngine {
    fn process_batch(&mut self, batch: &UpdateBatch) -> Result<BatchStats> {
        RecomputeEngine::process_batch(self, batch).map_err(RippleError::from)
    }

    fn strategy_name(&self) -> &'static str {
        // The engine's config decides whether it behaves like RC or DRC; the
        // runner lets callers override the label, so a single name here is
        // only the default.
        "rc"
    }

    fn current_store(&self) -> &EmbeddingStore {
        self.store()
    }

    fn current_graph(&self) -> &DynamicGraph {
        self.graph()
    }
}

/// The vertex-wise (DNC-style) strategy wrapped as a [`StreamingEngine`].
///
/// Kept separate from the layer-wise engines because its per-batch cost grows
/// with the product of in-degrees across hops; the Fig 8 experiment is the
/// only place it is used.
#[derive(Debug, Clone)]
pub struct VertexWiseEngine {
    graph: DynamicGraph,
    model: GnnModel,
    store: EmbeddingStore,
}

impl VertexWiseEngine {
    /// Creates the vertex-wise strategy from bootstrapped state.
    pub fn new(graph: DynamicGraph, model: GnnModel, store: EmbeddingStore) -> Self {
        VertexWiseEngine {
            graph,
            model,
            store,
        }
    }
}

impl StreamingEngine for VertexWiseEngine {
    fn process_batch(&mut self, batch: &UpdateBatch) -> Result<BatchStats> {
        vertex_wise_recompute_batch(&mut self.graph, &self.model, &mut self.store, batch)
            .map_err(RippleError::from)
    }

    fn strategy_name(&self) -> &'static str {
        "dnc"
    }

    fn current_store(&self) -> &EmbeddingStore {
        &self.store
    }

    fn current_graph(&self) -> &DynamicGraph {
        &self.graph
    }
}

/// Replays a stream of batches through a [`StreamingEngine`], collecting
/// per-batch statistics and a summary.
#[derive(Debug, Default)]
pub struct StreamRunner {
    per_batch: Vec<BatchStats>,
}

impl StreamRunner {
    /// Creates an empty runner.
    pub fn new() -> Self {
        StreamRunner {
            per_batch: Vec::new(),
        }
    }

    /// Processes every batch in order through `engine`, recording statistics.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first engine error.
    pub fn run<E: StreamingEngine + ?Sized>(
        &mut self,
        engine: &mut E,
        batches: &[UpdateBatch],
    ) -> Result<()> {
        self.per_batch.reserve(batches.len());
        for batch in batches {
            let stats = engine.process_batch(batch)?;
            self.per_batch.push(stats);
        }
        Ok(())
    }

    /// Per-batch statistics recorded so far.
    pub fn batch_stats(&self) -> &[BatchStats] {
        &self.per_batch
    }

    /// Builds a summary with the given strategy label.
    pub fn summary(&self, strategy: impl Into<String>) -> StreamSummary {
        StreamSummary::from_stats(strategy, &self.per_batch)
    }

    /// Convenience: run a stream through an engine and return the summary in
    /// one call.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error.
    pub fn run_to_summary<E: StreamingEngine + ?Sized>(
        engine: &mut E,
        batches: &[UpdateBatch],
        strategy: impl Into<String>,
    ) -> Result<StreamSummary> {
        let mut runner = StreamRunner::new();
        runner.run(engine, batches)?;
        Ok(runner.summary(strategy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RippleConfig;
    use ripple_gnn::layer_wise::full_inference;
    use ripple_gnn::recompute::RecomputeConfig;
    use ripple_gnn::Workload;
    use ripple_graph::stream::{build_stream, StreamConfig};
    use ripple_graph::synth::DatasetSpec;

    fn setup() -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<UpdateBatch>) {
        let full = DatasetSpec::custom(120, 5.0, 6, 4).generate(2).unwrap();
        let plan = build_stream(
            &full,
            &StreamConfig {
                total_updates: 45,
                seed: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let model = Workload::GcS.build_model(6, 8, 4, 2, 1).unwrap();
        let store = full_inference(&plan.snapshot, &model).unwrap();
        let batches = plan.batches(15);
        (plan.snapshot, model, store, batches)
    }

    #[test]
    fn all_strategies_agree_on_final_predictions() {
        let (graph, model, store, batches) = setup();
        let mut ripple = RippleEngine::new(
            graph.clone(),
            model.clone(),
            store.clone(),
            RippleConfig::default(),
        )
        .unwrap();
        let mut rc = RecomputeEngine::new(
            graph.clone(),
            model.clone(),
            store.clone(),
            RecomputeConfig::rc(),
        )
        .unwrap();
        let mut dnc = VertexWiseEngine::new(graph, model, store);

        let mut runner = StreamRunner::new();
        runner.run(&mut ripple, &batches).unwrap();
        StreamRunner::run_to_summary(&mut rc, &batches, "rc").unwrap();
        StreamRunner::run_to_summary(&mut dnc, &batches, "dnc").unwrap();

        let final_diff = ripple
            .current_store()
            .max_final_diff(rc.current_store())
            .unwrap();
        assert!(final_diff < 2e-3, "ripple vs rc diff {final_diff}");
        let dnc_diff = rc
            .current_store()
            .max_final_diff(dnc.current_store())
            .unwrap();
        assert!(dnc_diff < 2e-3, "rc vs dnc diff {dnc_diff}");
        assert_eq!(
            ripple.current_graph().num_edges(),
            rc.current_graph().num_edges()
        );
    }

    #[test]
    fn runner_collects_stats_and_summary() {
        let (graph, model, store, batches) = setup();
        let mut ripple = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
        let mut runner = StreamRunner::new();
        runner.run(&mut ripple, &batches).unwrap();
        assert_eq!(runner.batch_stats().len(), batches.len());
        let summary = runner.summary("ripple");
        assert_eq!(summary.strategy, "ripple");
        assert_eq!(summary.total_updates, 45);
        assert!(summary.throughput > 0.0);
    }

    #[test]
    fn strategy_names_are_distinct() {
        let (graph, model, store, _) = setup();
        let ripple = RippleEngine::new(
            graph.clone(),
            model.clone(),
            store.clone(),
            RippleConfig::default(),
        )
        .unwrap();
        let rc = RecomputeEngine::new(
            graph.clone(),
            model.clone(),
            store.clone(),
            RecomputeConfig::rc(),
        )
        .unwrap();
        let dnc = VertexWiseEngine::new(graph, model, store);
        assert_eq!(ripple.strategy_name(), "ripple");
        assert_eq!(rc.strategy_name(), "rc");
        assert_eq!(dnc.strategy_name(), "dnc");
    }

    #[test]
    fn merged_disjoint_windows_match_sequential_replay_bit_for_bit() {
        use crate::Footprint;
        use ripple_graph::{GraphUpdate, VertexId};
        // A long line graph gives interval-shaped cones, so windows far
        // apart are provably footprint-disjoint.
        let n = 64usize;
        let mut graph = DynamicGraph::new(n, 6);
        for v in 0..n - 1 {
            graph
                .add_edge(VertexId(v as u32), VertexId(v as u32 + 1), 1.0)
                .unwrap();
        }
        let model = Workload::GcS.build_model(6, 8, 4, 2, 1).unwrap();
        let store = full_inference(&graph, &model).unwrap();
        let windows = vec![
            UpdateBatch::from_updates(vec![GraphUpdate::update_feature(VertexId(2), vec![0.9; 6])]),
            UpdateBatch::new(), // a fully-cancelled window merges as a no-op
            UpdateBatch::from_updates(vec![
                GraphUpdate::update_feature(VertexId(20), vec![-0.4; 6]),
                GraphUpdate::add_edge(VertexId(24), VertexId(22)),
            ]),
            UpdateBatch::from_updates(vec![GraphUpdate::delete_edge(VertexId(40), VertexId(41))]),
        ];
        for pair in windows
            .iter()
            .filter(|w| !w.is_empty())
            .collect::<Vec<_>>()
            .windows(2)
        {
            let a = Footprint::for_batch(&graph, &model, pair[0]);
            let b = Footprint::for_batch(&graph, &model, pair[1]);
            assert!(a.disjoint(&b), "test windows must be disjoint");
        }

        let mut serial = RippleEngine::new(
            graph.clone(),
            model.clone(),
            store.clone(),
            RippleConfig::default(),
        )
        .unwrap();
        let mut serial_dirty = Vec::new();
        for window in windows.iter().filter(|w| !w.is_empty()) {
            serial.process_batch(window).unwrap();
            serial_dirty.extend_from_slice(RippleEngine::dirty_rows(&serial));
        }
        serial_dirty.sort_unstable();
        serial_dirty.dedup();

        let mut merged = RippleEngine::new(
            graph.clone(),
            model.clone(),
            store.clone(),
            RippleConfig::default(),
        )
        .unwrap();
        let merged_dirty = merged.process_windows(&windows).unwrap();

        assert!(merged.store() == serial.store(), "stores diverged");
        assert!(merged.graph() == serial.graph(), "graphs diverged");
        assert_eq!(merged.topology_epoch(), serial.topology_epoch());
        assert_eq!(merged_dirty, serial_dirty);

        // The same contract holds with the frontier split across threads.
        let mut par = RippleEngine::new(
            graph.clone(),
            model.clone(),
            store.clone(),
            RippleConfig::default(),
        )
        .unwrap()
        .with_threads(2);
        let par_dirty = par.process_windows(&windows).unwrap();
        assert!(par.store() == serial.store(), "parallel store diverged");
        assert_eq!(par.topology_epoch(), serial.topology_epoch());
        assert_eq!(par_dirty, serial_dirty);
    }

    #[test]
    fn runner_stops_on_error() {
        let (graph, model, store, _) = setup();
        let mut ripple =
            RippleEngine::new(graph.clone(), model, store, RippleConfig::default()).unwrap();
        let n = graph.num_vertices() as u32;
        let bad = vec![UpdateBatch::from_updates(vec![
            ripple_graph::GraphUpdate::update_feature(ripple_graph::VertexId(n + 1), vec![0.0; 6]),
        ])];
        let mut runner = StreamRunner::new();
        assert!(runner.run(&mut ripple, &bad).is_err());
        assert!(runner.batch_stats().is_empty());
    }
}
