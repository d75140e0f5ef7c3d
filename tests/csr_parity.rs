//! Property tests of the CSR-snapshot spine's bit-parity contract.
//!
//! The engines stream topology through [`CsrSnapshot`] (CSR base + delta
//! overlay, incrementally compacted) instead of walking [`DynamicGraph`]'s
//! per-vertex `Vec` lists. That swap is only sound because the snapshot
//! preserves every vertex's neighbour/weight **order** exactly — neighbour
//! order fixes the float accumulation order of the aggregation kernels.
//! These tests drive random add/delete edge streams into both structures and
//! assert, at every compaction boundary, that the snapshot's view output
//! (neighbours, weights, raw aggregates) is bit-identical to the dynamic
//! lists — and that the engine spine built on it stays bit-identical across
//! 1/2/4/8 threads.

use proptest::prelude::*;
use ripple::graph::{CompactionPolicy, CsrSnapshot, GraphView};
use ripple::prelude::*;
use ripple::tensor::init;

/// Asserts every vertex's four adjacency slices match bit for bit, then
/// cross-checks the aggregation kernels: raw aggregates computed from the
/// snapshot's slices must equal those from the dynamic lists exactly.
fn assert_view_parity(snap: &CsrSnapshot, graph: &DynamicGraph, table: &ripple::tensor::Matrix) {
    assert_eq!(snap.num_vertices(), graph.num_vertices());
    assert_eq!(GraphView::num_edges(snap), graph.num_edges());
    let mut from_dynamic = vec![0.0f32; table.cols()];
    let mut from_snapshot = vec![0.0f32; table.cols()];
    for v in 0..graph.num_vertices() as u32 {
        let vid = VertexId(v);
        assert_eq!(snap.in_neighbors(vid), graph.in_neighbors(vid), "in {vid}");
        assert_eq!(snap.in_weights(vid), graph.in_weights(vid), "in-w {vid}");
        assert_eq!(
            snap.out_neighbors(vid),
            graph.out_neighbors(vid),
            "out {vid}"
        );
        assert_eq!(snap.out_weights(vid), graph.out_weights(vid), "out-w {vid}");
        for aggregator in Aggregator::all() {
            aggregator.raw_aggregate_into(
                table,
                graph.in_neighbors(vid),
                graph.in_weights(vid),
                &mut from_dynamic,
            );
            aggregator.raw_aggregate_into(
                table,
                snap.in_neighbors(vid),
                snap.in_weights(vid),
                &mut from_snapshot,
            );
            assert_eq!(
                from_dynamic, from_snapshot,
                "{aggregator} aggregate of {vid} diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// A random add/delete stream applied to both structures keeps the
    /// snapshot's view bit-identical to the dynamic lists at every
    /// compaction boundary (compactions forced every `churn` changes).
    #[test]
    fn snapshot_view_is_bit_identical_across_compactions(
        seed in 0u64..1000,
        churn in 1usize..12,
        intents in prop::collection::vec((0u32..64, 0u32..64, 0u32..7), 1..120),
    ) {
        let graph0 = DatasetSpec::custom(64, 4.0, 5, 3).generate_weighted(seed, true).unwrap();
        let mut graph = graph0.clone();
        let mut snap = CsrSnapshot::with_policy(&graph0, CompactionPolicy::every_churn(churn));
        let table = init::uniform(64, 5, -1.0, 1.0, seed ^ 0x7ab1e);
        let mut boundaries = 0;
        for (a, b, w) in intents {
            let (src, dst) = (VertexId(a), VertexId(b));
            if src == dst {
                continue;
            }
            if graph.has_edge(src, dst) {
                graph.remove_edge(src, dst).unwrap();
                snap.remove_edge(src, dst).unwrap();
            } else {
                let weight = w as f32 * 0.5 + 0.25;
                graph.add_edge(src, dst, weight).unwrap();
                snap.add_edge(src, dst, weight).unwrap();
            }
            if snap.maybe_compact() {
                boundaries += 1;
                // The compaction boundary is where splice bugs would show.
                assert_view_parity(&snap, &graph, &table);
                prop_assert_eq!(snap.overlay_rows(), 0);
            }
        }
        // Final state, whatever the overlay holds.
        assert_view_parity(&snap, &graph, &table);
        snap.compact();
        assert_view_parity(&snap, &graph, &table);
        prop_assert!(boundaries as u64 <= snap.compaction_stats().compactions);
    }

    /// The engine spine on the snapshot: streaming a random update stream
    /// through the 1-thread engine and the engine at 1/2/4/8 threads
    /// yields bit-identical stores, and every engine's internal snapshot
    /// stays in lockstep with its graph at each batch boundary.
    #[test]
    fn engine_spine_is_bit_identical_at_1_2_4_8_threads(
        seed in 0u64..500,
        intents in prop::collection::vec((0u32..72, 0u32..72), 4..48),
    ) {
        let graph = DatasetSpec::custom(72, 5.0, 4, 3).generate(seed).unwrap();
        // Realise a valid add/delete stream against a shadow copy.
        let mut shadow = graph.clone();
        let mut updates = Vec::new();
        for (a, b) in intents {
            let (src, dst) = (VertexId(a), VertexId(b));
            if src == dst {
                continue;
            }
            if shadow.has_edge(src, dst) {
                shadow.remove_edge(src, dst).unwrap();
                updates.push(GraphUpdate::delete_edge(src, dst));
            } else {
                shadow.add_edge(src, dst, 1.0).unwrap();
                updates.push(GraphUpdate::add_edge(src, dst));
            }
        }
        prop_assume!(!updates.is_empty());
        let model = Workload::GcS.build_model(4, 6, 3, 2, seed ^ 0xc5a).unwrap();
        let store = full_inference(&graph, &model).unwrap();
        let batches: Vec<UpdateBatch> = updates
            .chunks(7)
            .map(|c| UpdateBatch::from_updates(c.to_vec()))
            .collect();

        let mut serial = RippleEngine::new(
            graph.clone(),
            model.clone(),
            store.clone(),
            RippleConfig::default(),
        )
        .unwrap();
        for batch in &batches {
            serial.process_batch(batch).unwrap();
            // Lockstep invariant at every batch boundary.
            let topo = serial.topology();
            prop_assert_eq!(GraphView::num_edges(topo), serial.graph().num_edges());
        }
        for threads in [1usize, 2, 4, 8] {
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
            prop_assert!(
                parallel.store() == serial.store(),
                "{} threads diverged from serial on the CSR spine",
                threads
            );
            prop_assert_eq!(parallel.topology_epoch(), batches.len() as u64);
            // The engine's snapshot mirrors its graph bit for bit.
            for v in 0..parallel.graph().num_vertices() as u32 {
                let vid = VertexId(v);
                prop_assert_eq!(
                    parallel.topology().in_neighbors(vid),
                    parallel.graph().in_neighbors(vid)
                );
                prop_assert_eq!(
                    parallel.topology().in_weights(vid),
                    parallel.graph().in_weights(vid)
                );
            }
        }
    }
}

/// Deterministic end-to-end: a long churn stream with a tiny compaction
/// bound (so dozens of compactions run mid-stream) stays exact against full
/// re-inference, with the engine's own policy swapped for frequent
/// compaction via direct snapshot churn.
#[test]
fn snapshot_compaction_mid_stream_preserves_engine_exactness() {
    let graph = DatasetSpec::custom(120, 5.0, 6, 4).generate(91).unwrap();
    let model = Workload::GsS.build_model(6, 8, 4, 2, 93).unwrap();
    let plan = build_stream(
        &graph,
        &StreamConfig {
            total_updates: 80,
            seed: 97,
            ..Default::default()
        },
    )
    .unwrap();
    let bootstrap = full_inference(&plan.snapshot, &model).unwrap();
    let batches = plan.batches(8);

    let mut engine = RippleEngine::new(
        plan.snapshot.clone(),
        model.clone(),
        bootstrap,
        RippleConfig::default(),
    )
    .unwrap();
    let mut reference_graph = plan.snapshot.clone();
    for batch in &batches {
        engine.process_batch(batch).unwrap();
        reference_graph.apply_batch(batch).unwrap();
    }
    let reference = full_inference(&reference_graph, &model).unwrap();
    let diff = engine.store().max_diff_all_layers(&reference).unwrap();
    assert!(diff < 2e-3, "CSR-spine engine drifted: {diff}");

    // An independently maintained snapshot with an every-change compaction
    // policy converges to the same topology as the engine's.
    let mut churny = CsrSnapshot::with_policy(&plan.snapshot, CompactionPolicy::every_churn(1));
    for batch in &batches {
        for update in batch {
            churny.apply(update).unwrap();
            churny.maybe_compact();
        }
    }
    assert!(churny.compaction_stats().compactions > 10);
    for v in 0..reference_graph.num_vertices() as u32 {
        let vid = VertexId(v);
        assert_eq!(
            churny.in_neighbors(vid),
            engine.topology().in_neighbors(vid)
        );
        assert_eq!(
            churny.out_neighbors(vid),
            engine.topology().out_neighbors(vid)
        );
    }
}
