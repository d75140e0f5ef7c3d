//! Thread-count invariance of [`crate::RippleEngine::with_threads`]: the
//! same batches leave a bit-identical store and report identical statistics
//! at any thread count.

#[cfg(test)]
mod tests {
    use crate::{RippleConfig, RippleEngine};
    use ripple_gnn::layer_wise::full_inference;
    use ripple_gnn::{EmbeddingStore, GnnModel, Workload};
    use ripple_graph::stream::{build_stream, StreamConfig};
    use ripple_graph::synth::DatasetSpec;
    use ripple_graph::{DynamicGraph, UpdateBatch, VertexId};

    fn bootstrap(
        workload: Workload,
        layers: usize,
        seed: u64,
    ) -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<UpdateBatch>) {
        let full = DatasetSpec::custom(180, 5.0, 6, 4)
            .generate_weighted(seed, workload.needs_edge_weights())
            .unwrap();
        let plan = build_stream(
            &full,
            &StreamConfig {
                total_updates: 80,
                seed: seed ^ 1,
                ..Default::default()
            },
        )
        .unwrap();
        let model = workload.build_model(6, 8, 4, layers, seed ^ 2).unwrap();
        let store = full_inference(&plan.snapshot, &model).unwrap();
        let batches = plan.batches(16);
        (plan.snapshot, model, store, batches)
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_for_all_workloads() {
        for workload in Workload::all() {
            let (snapshot, model, store, batches) = bootstrap(workload, 2, 5);
            let mut serial = RippleEngine::new(
                snapshot.clone(),
                model.clone(),
                store.clone(),
                RippleConfig::default(),
            )
            .unwrap();
            for threads in [1, 2, 4, 8] {
                let mut parallel = RippleEngine::new(
                    snapshot.clone(),
                    model.clone(),
                    store.clone(),
                    RippleConfig::default(),
                )
                .unwrap()
                .with_threads(threads);
                for batch in &batches {
                    parallel.process_batch(batch).unwrap();
                }
                if threads == 1 {
                    for batch in &batches {
                        serial.process_batch(batch).unwrap();
                    }
                }
                assert!(
                    parallel.store() == serial.store(),
                    "workload {workload}, {threads} threads: stores differ"
                );
                assert_eq!(parallel.graph().num_edges(), serial.graph().num_edges());
            }
        }
    }

    #[test]
    fn parallel_stats_match_serial_stats() {
        let (snapshot, model, store, batches) = bootstrap(Workload::GcS, 3, 11);
        let mut serial = RippleEngine::new(
            snapshot.clone(),
            model.clone(),
            store.clone(),
            RippleConfig::default(),
        )
        .unwrap();
        let mut parallel = RippleEngine::new(snapshot, model, store, RippleConfig::default())
            .unwrap()
            .with_threads(4);
        for batch in &batches {
            let s = serial.process_batch(batch).unwrap();
            let p = parallel.process_batch(batch).unwrap();
            assert_eq!(s.affected_per_hop, p.affected_per_hop);
            assert_eq!(s.affected_final, p.affected_final);
            assert_eq!(s.propagation_tree_size, p.propagation_tree_size);
            assert_eq!(s.aggregate_ops, p.aggregate_ops);
            assert_eq!(s.batch_size, p.batch_size);
        }
    }

    #[test]
    fn constructor_validates_shapes_and_clamps_threads() {
        let (snapshot, model, store, _) = bootstrap(Workload::GcS, 2, 17);
        let wrong_model = Workload::GcS.build_model(6, 8, 4, 3, 0).unwrap();
        assert!(RippleEngine::new(
            snapshot.clone(),
            wrong_model,
            store.clone(),
            RippleConfig::default()
        )
        .is_err());
        let engine = RippleEngine::new(snapshot, model, store, RippleConfig::default())
            .unwrap()
            .with_threads(0);
        assert_eq!(engine.threads(), 1);
        assert!(engine.incremental_state_bytes() > 0);
        let n = engine.graph().num_vertices();
        assert!(engine.predicted_label(VertexId(0)) < engine.model().output_dim());
        let (graph, store) = engine.into_parts();
        assert_eq!(graph.num_vertices(), store.num_vertices());
        assert_eq!(graph.num_vertices(), n);
    }

    #[test]
    fn invalid_updates_are_reported() {
        let (snapshot, model, store, _) = bootstrap(Workload::GcS, 2, 19);
        let n = snapshot.num_vertices() as u32;
        let mut engine = RippleEngine::new(snapshot, model, store, RippleConfig::default())
            .unwrap()
            .with_threads(2);
        let bad = UpdateBatch::from_updates(vec![ripple_graph::GraphUpdate::update_feature(
            VertexId(n + 2),
            vec![0.0; 6],
        )]);
        assert!(engine.process_batch(&bad).is_err());
    }
}
