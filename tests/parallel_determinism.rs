//! Property-based tests of the engine's determinism guarantee: at any
//! thread count, [`RippleEngine::with_threads`] produces embeddings (and raw
//! aggregates) **bit-identical** to the 1-thread [`RippleEngine`] — not
//! merely within tolerance. The frontier of every hop is processed in a canonical
//! sorted vertex order and per-worker results are merged by a chunk-ordered
//! reduction, so float accumulation order never depends on the thread count.

use proptest::prelude::*;
use ripple::prelude::*;

/// Builds a random but valid update stream against `graph`. `deletion_bias`
/// maps two of the five intent kinds to deletions (instead of one of three),
/// producing the deletion-heavy streams that historically stress the
/// pre-batch snapshot machinery.
fn realise_updates(
    graph: &DynamicGraph,
    intents: &[(u8, u32, u32, Vec<f32>)],
    deletion_bias: bool,
) -> Vec<GraphUpdate> {
    let n = graph.num_vertices() as u32;
    let mut shadow = graph.clone();
    let mut updates = Vec::new();
    for (kind, a, b, feats) in intents {
        let (src, dst) = (VertexId(a % n), VertexId(b % n));
        let kind = if deletion_bias {
            // 0 => add, 1..=3 => delete, 4 => feature update.
            match kind % 5 {
                0 => 0,
                1..=3 => 1,
                _ => 2,
            }
        } else {
            kind % 3
        };
        match kind {
            0 => {
                if src != dst && !shadow.has_edge(src, dst) {
                    shadow.add_edge(src, dst, 1.0).unwrap();
                    updates.push(GraphUpdate::add_edge(src, dst));
                }
            }
            1 => {
                if shadow.has_edge(src, dst) {
                    shadow.remove_edge(src, dst).unwrap();
                    updates.push(GraphUpdate::delete_edge(src, dst));
                }
            }
            _ => {
                let mut f = feats.clone();
                f.resize(graph.feature_dim(), 0.25);
                shadow.set_feature(src, &f).unwrap();
                updates.push(GraphUpdate::update_feature(src, f));
            }
        }
    }
    updates
}

fn workload_from_index(i: u8) -> Workload {
    Workload::all()[(i % 5) as usize]
}

/// Streams `updates` through a serial engine and through parallel engines at
/// 2/4/8 threads, asserting exact store equality after every batch boundary.
fn assert_bit_identical(
    graph: &DynamicGraph,
    model: &GnnModel,
    store: &EmbeddingStore,
    updates: &[GraphUpdate],
    batch_size: usize,
) {
    let mut serial = RippleEngine::new(
        graph.clone(),
        model.clone(),
        store.clone(),
        RippleConfig::default(),
    )
    .unwrap();
    let batches: Vec<UpdateBatch> = updates
        .chunks(batch_size)
        .map(|c| UpdateBatch::from_updates(c.to_vec()))
        .collect();
    for batch in &batches {
        serial.process_batch(batch).unwrap();
    }
    for threads in [2usize, 4, 8] {
        let mut parallel = RippleEngine::new(
            graph.clone(),
            model.clone(),
            store.clone(),
            RippleConfig::default(),
        )
        .unwrap()
        .with_threads(threads);
        for batch in &batches {
            parallel.process_batch(batch).unwrap();
        }
        assert!(
            parallel.store() == serial.store(),
            "{threads}-thread store differs bitwise from serial (max diff {:?})",
            parallel.store().max_diff_all_layers(serial.store())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Parallel propagation at 2/4/8 threads is bit-identical to serial for
    /// any workload, layer count, batch size and valid update stream.
    #[test]
    fn parallel_matches_serial_bitwise_for_random_streams(
        seed in 0u64..1000,
        workload_idx in 0u8..5,
        num_layers in 1usize..4,
        batch_size in 1usize..10,
        intents in prop::collection::vec(
            (0u8..3, 0u32..96, 0u32..96, prop::collection::vec(-1.0f32..1.0, 4)),
            1..40,
        ),
    ) {
        let workload = workload_from_index(workload_idx);
        let graph = DatasetSpec::custom(96, 4.0, 4, 3)
            .generate_weighted(seed, workload.needs_edge_weights())
            .unwrap();
        let updates = realise_updates(&graph, &intents, false);
        prop_assume!(!updates.is_empty());
        let model = workload.build_model(4, 6, 3, num_layers, seed ^ 0xda7a).unwrap();
        let store = full_inference(&graph, &model).unwrap();
        assert_bit_identical(&graph, &model, &store, &updates, batch_size);
    }

    /// Deletion-heavy streams (60% of intents are edge deletions) hit the
    /// pre-batch snapshot and per-hop injection paths hardest; they must be
    /// just as deterministic.
    #[test]
    fn parallel_matches_serial_bitwise_for_deletion_heavy_streams(
        seed in 0u64..500,
        workload_idx in 0u8..5,
        intents in prop::collection::vec(
            (0u8..5, 0u32..80, 0u32..80, prop::collection::vec(-1.0f32..1.0, 4)),
            4..40,
        ),
    ) {
        let workload = workload_from_index(workload_idx);
        // A denser graph so there are plenty of edges to delete.
        let graph = DatasetSpec::custom(80, 6.0, 4, 3)
            .generate_weighted(seed, workload.needs_edge_weights())
            .unwrap();
        let updates = realise_updates(&graph, &intents, true);
        prop_assume!(updates.iter().any(|u| matches!(u, GraphUpdate::DeleteEdge { .. })));
        let model = workload.build_model(4, 6, 3, 2, seed ^ 0xdead).unwrap();
        let store = full_inference(&graph, &model).unwrap();
        assert_bit_identical(&graph, &model, &store, &updates, 6);
    }
}

/// A single deterministic end-to-end check that also exercises a large batch
/// (everything in one batch) and per-batch streaming, comparing both against
/// full re-inference — the exactness and determinism claims together.
#[test]
fn parallel_engine_is_exact_and_deterministic_end_to_end() {
    let graph = DatasetSpec::custom(150, 5.0, 6, 4).generate(41).unwrap();
    let model = Workload::GsS.build_model(6, 8, 4, 2, 43).unwrap();
    let plan = build_stream(
        &graph,
        &StreamConfig {
            total_updates: 60,
            seed: 47,
            ..Default::default()
        },
    )
    .unwrap();
    let bootstrap = full_inference(&plan.snapshot, &model).unwrap();
    let batches = plan.batches(12);

    let mut serial = RippleEngine::new(
        plan.snapshot.clone(),
        model.clone(),
        bootstrap.clone(),
        RippleConfig::default(),
    )
    .unwrap();
    let mut parallel = RippleEngine::new(
        plan.snapshot.clone(),
        model.clone(),
        bootstrap,
        RippleConfig::default(),
    )
    .unwrap()
    .with_threads(8);
    let mut reference_graph = plan.snapshot.clone();
    for batch in &batches {
        serial.process_batch(batch).unwrap();
        parallel.process_batch(batch).unwrap();
        reference_graph.apply_batch(batch).unwrap();
    }
    assert!(parallel.store() == serial.store(), "bitwise determinism");
    let reference = full_inference(&reference_graph, &model).unwrap();
    let diff = parallel.store().max_diff_all_layers(&reference).unwrap();
    assert!(diff < 2e-3, "exactness vs full re-inference: diff {diff}");
}
