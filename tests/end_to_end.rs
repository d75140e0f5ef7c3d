//! End-to-end integration tests spanning every crate in the workspace:
//! dataset generation → update-stream construction → bootstrap inference →
//! streaming through all single-machine strategies → distributed execution.

use ripple::prelude::*;
use ripple_core::batch::VertexWiseEngine;

fn pipeline(workload: Workload, layers: usize) -> (StreamPlan, GnnModel, EmbeddingStore) {
    let spec = DatasetSpec::arxiv_like()
        .scaled_to(600)
        .with_avg_in_degree(5.0)
        .with_feature_dim(12);
    let full = spec
        .generate_weighted(11, workload.needs_edge_weights())
        .unwrap();
    let plan = build_stream(
        &full,
        &StreamConfig {
            holdout_fraction: 0.1,
            total_updates: 120,
            seed: 5,
        },
    )
    .unwrap();
    let model = workload
        .build_model(12, 16, spec.num_classes, layers, 3)
        .unwrap();
    let store = full_inference(&plan.snapshot, &model).unwrap();
    (plan, model, store)
}

#[test]
fn every_strategy_yields_identical_predictions_end_to_end() {
    for workload in Workload::all() {
        let (plan, model, store) = pipeline(workload, 2);
        let batches = plan.batches(30);

        let mut ripple = RippleEngine::new(
            plan.snapshot.clone(),
            model.clone(),
            store.clone(),
            RippleConfig::default(),
        )
        .unwrap();
        let mut rc = RecomputeEngine::new(
            plan.snapshot.clone(),
            model.clone(),
            store.clone(),
            RecomputeConfig::rc(),
        )
        .unwrap();
        let mut drc = RecomputeEngine::new(
            plan.snapshot.clone(),
            model.clone(),
            store.clone(),
            RecomputeConfig::drc(),
        )
        .unwrap();
        let mut dnc = VertexWiseEngine::new(plan.snapshot.clone(), model.clone(), store.clone());

        for batch in &batches {
            ripple.process_batch(batch).unwrap();
            StreamingEngine::process_batch(&mut rc, batch).unwrap();
            StreamingEngine::process_batch(&mut drc, batch).unwrap();
            dnc.process_batch(batch).unwrap();
        }

        // Ground truth: full inference over the final graph.
        let mut final_graph = plan.snapshot.clone();
        for batch in &batches {
            final_graph.apply_batch(batch).unwrap();
        }
        let reference = full_inference(&final_graph, &model).unwrap();

        for (name, store) in [
            ("ripple", ripple.store()),
            ("rc", rc.store()),
            ("drc", drc.store()),
        ] {
            let diff = store.max_diff_all_layers(&reference).unwrap();
            assert!(diff < 2e-3, "{workload} {name}: diff {diff}");
        }
        // The vertex-wise strategy only refreshes final-layer embeddings.
        let dnc_diff = dnc.current_store().max_final_diff(&reference).unwrap();
        assert!(dnc_diff < 2e-3, "{workload} dnc: diff {dnc_diff}");

        // Predicted labels — what a serving application actually reads — must
        // agree exactly.
        assert_eq!(
            ripple.store().predicted_labels(),
            reference.predicted_labels()
        );
    }
}

#[test]
fn distributed_and_single_machine_agree_end_to_end() {
    let (plan, model, store) = pipeline(Workload::GcS, 3);
    let batches = plan.batches(40);

    let mut single = RippleEngine::new(
        plan.snapshot.clone(),
        model.clone(),
        store.clone(),
        RippleConfig::default(),
    )
    .unwrap();

    for partitioner in ["hash", "ldg", "bfs"] {
        let partitioning: Partitioning = match partitioner {
            "hash" => HashPartitioner::new().partition(&plan.snapshot, 4).unwrap(),
            "ldg" => LdgPartitioner::new().partition(&plan.snapshot, 4).unwrap(),
            _ => BfsPartitioner::new().partition(&plan.snapshot, 4).unwrap(),
        };
        let mut dist = DistRippleEngine::new(
            &plan.snapshot,
            model.clone(),
            &store,
            partitioning,
            NetworkModel::ten_gbe(),
        )
        .unwrap();
        for batch in &batches {
            dist.process_batch(batch).unwrap();
        }
        // Run the single-machine engine only once.
        if partitioner == "hash" {
            for batch in &batches {
                single.process_batch(batch).unwrap();
            }
        }
        let diff = dist
            .gather_store()
            .max_diff_all_layers(single.store())
            .unwrap();
        assert!(diff < 2e-3, "{partitioner}: diff {diff}");
    }
}

#[test]
fn partitioners_produce_valid_partitions_on_generated_datasets() {
    let graph = DatasetSpec::products_like()
        .scaled_to(800)
        .with_avg_in_degree(8.0)
        .with_feature_dim(8)
        .generate(3)
        .unwrap();
    for parts in [2usize, 4, 7] {
        for (name, partitioning) in [
            (
                "hash",
                HashPartitioner::new().partition(&graph, parts).unwrap(),
            ),
            (
                "ldg",
                LdgPartitioner::new().partition(&graph, parts).unwrap(),
            ),
            (
                "bfs",
                BfsPartitioner::new().partition(&graph, parts).unwrap(),
            ),
        ] {
            assert_eq!(partitioning.num_vertices(), graph.num_vertices(), "{name}");
            assert_eq!(partitioning.num_parts(), parts, "{name}");
            let sizes = partitioning.part_sizes();
            assert_eq!(sizes.iter().sum::<usize>(), graph.num_vertices(), "{name}");
            assert!(
                partitioning.balance_factor() < 1.5,
                "{name} with {parts} parts is unbalanced: {}",
                partitioning.balance_factor()
            );
            let halos = ripple::graph::partition::HaloInfo::compute(&graph, &partitioning);
            assert!(
                halos.total_halo_replicas() <= partitioning.edge_cut(&graph),
                "{name}"
            );
        }
    }
}

#[test]
fn stream_summary_reports_consistent_totals() {
    let (plan, model, store) = pipeline(Workload::GsS, 2);
    let batches = plan.batches(25);
    let mut engine =
        RippleEngine::new(plan.snapshot.clone(), model, store, RippleConfig::default()).unwrap();
    let summary = StreamRunner::run_to_summary(&mut engine, &batches, "ripple").unwrap();
    assert_eq!(summary.total_updates, 120);
    assert_eq!(summary.num_batches, batches.len());
    assert!(summary.total_time >= summary.median_latency);
    assert!(summary.p95_latency >= summary.median_latency);
    assert!(summary.throughput > 0.0);
}
