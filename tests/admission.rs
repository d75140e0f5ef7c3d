//! Bit-identity of the footprint-based concurrent admission pipeline.
//!
//! The contract under test: turning on concurrent admission — at **any**
//! in-flight depth — changes only *when* windows execute, never *what* they
//! produce. Every published epoch, every per-window counter stamp and the
//! final engine spine (store, graph, topology epoch) must be bit-identical
//! to the serial one-window-at-a-time scheduler on the same update stream
//! with the same window boundaries.
//!
//! Three regimes are exercised:
//!
//! * random update streams (adds, deletes, feature rewrites) from the
//!   workspace's seeded stream generator, at depths 1, 2 and 4;
//! * a conflict-heavy **hub churn** stream where every window touches one
//!   hub vertex's cone, so the controller must serialize window after
//!   window — and still land bit-identical;
//! * a block-disjoint graph where consecutive windows touch disconnected
//!   components, so groups actually fill and the merged-pass machinery
//!   (one engine pass, per-window epoch reconstruction) is on the hook.

use proptest::prelude::*;
use ripple::prelude::*;
use ripple::serve::MetricsReport;
use std::time::Duration;

fn serve_config(max_batch: usize, inflight: Option<usize>) -> ServeConfig {
    let builder = ServeConfig::builder()
        .max_batch(max_batch)
        .max_delay(Duration::from_secs(60))
        .record_batches(true);
    let builder = match inflight {
        Some(depth) => builder.concurrent_admission(depth),
        None => builder,
    };
    builder.build().unwrap()
}

fn engine(graph: &DynamicGraph, model: &GnnModel, store: &EmbeddingStore) -> RippleEngine {
    RippleEngine::new(
        graph.clone(),
        model.clone(),
        store.clone(),
        RippleConfig::default(),
    )
    .unwrap()
}

fn bootstrap(seed: u64) -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<GraphUpdate>) {
    let full = DatasetSpec::custom(120, 4.0, 6, 4).generate(seed).unwrap();
    let plan = build_stream(
        &full,
        &StreamConfig {
            total_updates: 48,
            seed: seed ^ 1,
            ..Default::default()
        },
    )
    .unwrap();
    let model = Workload::GcS.build_model(6, 8, 4, 2, seed ^ 2).unwrap();
    let store = full_inference(&plan.snapshot, &model).unwrap();
    let updates = plan
        .batches(1)
        .into_iter()
        .flat_map(UpdateBatch::into_updates)
        .collect();
    (plan.snapshot, model, store, updates)
}

/// Everything one serving run leaves behind that admission must not change.
struct RunOutcome {
    engine: RippleEngine,
    /// Per committed window: `(window_seq, raw, epoch, applied_seq,
    /// topology_epoch)` plus the coalesced batch itself.
    records: Vec<(u64, u64, u64, u64, u64, UpdateBatch)>,
    report: MetricsReport,
}

fn run_stream(
    graph: &DynamicGraph,
    model: &GnnModel,
    store: &EmbeddingStore,
    updates: &[GraphUpdate],
    config: ServeConfig,
) -> RunOutcome {
    let handle = spawn_serve(engine(graph, model, store), config).unwrap();
    let client = handle.client();
    for update in updates {
        client.submit(update.clone());
    }
    // The flush message queues behind every update, so it both absorbs the
    // stream tail and drains whatever the admission controller staged.
    handle.flush().expect("scheduler alive");
    let records = handle
        .flush_log()
        .expect("record_batches on")
        .snapshot()
        .into_iter()
        .map(|r| {
            (
                r.window_seq,
                r.raw,
                r.epoch,
                r.applied_seq,
                r.topology_epoch,
                r.batch,
            )
        })
        .collect();
    let report = handle.metrics().report();
    let engine = handle.shutdown().unwrap();
    RunOutcome {
        engine,
        records,
        report,
    }
}

fn assert_matches_serial(concurrent: &RunOutcome, serial: &RunOutcome, what: &str) {
    assert_eq!(
        concurrent.records, serial.records,
        "{what}: per-window commit stamps diverged from the serial pipeline"
    );
    assert_eq!(
        concurrent.report.epochs, serial.report.epochs,
        "{what}: epoch count diverged"
    );
    assert_eq!(
        concurrent.report.applied, serial.report.applied,
        "{what}: applied counter diverged"
    );
    assert!(
        concurrent.engine.store() == serial.engine.store(),
        "{what}: final store diverged from the serial pipeline"
    );
    assert!(
        concurrent.engine.graph() == serial.engine.graph(),
        "{what}: final graph diverged from the serial pipeline"
    );
    assert_eq!(
        concurrent.engine.topology_epoch(),
        serial.engine.topology_epoch(),
        "{what}: topology epoch diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Random streams: admission at depths 1, 2 and 4 is bit-identical to
    /// the serial scheduler — same windows, same stamps, same spine.
    #[test]
    fn admission_is_bit_identical_on_random_streams(
        seed in 0u64..100,
        max_batch in 3usize..7,
    ) {
        let (graph, model, store, updates) = bootstrap(seed);
        let serial = run_stream(&graph, &model, &store, &updates, serve_config(max_batch, None));
        prop_assert!(serial.records.len() > 1, "stream must span several windows");
        for depth in [1usize, 2, 4] {
            let concurrent = run_stream(
                &graph,
                &model,
                &store,
                &updates,
                serve_config(max_batch, Some(depth)),
            );
            assert_matches_serial(&concurrent, &serial, &format!("depth {depth}"));
        }
    }

    /// Hub churn: every window rewrites the hub's feature (plus a random
    /// bystander), so every staged group conflicts with the next window.
    /// The controller must serialize — counted — and stay bit-identical.
    #[test]
    fn hub_churn_serializes_and_stays_bit_identical(seed in 0u64..100) {
        let (graph, model, store, _) = bootstrap(seed);
        let dim = graph.feature_dim();
        let n = graph.num_vertices() as u64;
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let updates: Vec<GraphUpdate> = (0..48)
            .map(|i| {
                let r = next();
                if i % 2 == 0 {
                    GraphUpdate::update_feature(
                        VertexId(0),
                        vec![(r % 16) as f32 * 0.0625; dim],
                    )
                } else {
                    GraphUpdate::update_feature(
                        VertexId((r % n) as u32),
                        vec![(r % 8) as f32 * 0.125; dim],
                    )
                }
            })
            .collect();

        let serial = run_stream(&graph, &model, &store, &updates, serve_config(4, None));
        for depth in [2usize, 4] {
            let concurrent =
                run_stream(&graph, &model, &store, &updates, serve_config(4, Some(depth)));
            prop_assert!(
                concurrent.report.conflicts > 0,
                "every window shares the hub cone: conflicts must be detected"
            );
            prop_assert_eq!(
                concurrent.report.conflicts,
                concurrent.report.serialized,
                "each conflict serializes exactly one window"
            );
            assert_matches_serial(&concurrent, &serial, &format!("hub churn depth {depth}"));
        }
    }
}

/// Disconnected blocks: consecutive windows touch different components, so
/// their footprints are disjoint and groups fill to the in-flight cap
/// `depth`. The merged pass must actually fire (admitted_concurrent > 0) and
/// commit each window's epoch bit-identical to the serial run.
fn disjoint_blocks_scenario(depth: usize) {
    const BLOCKS: usize = 8;
    const PER: usize = 8;
    const DIM: usize = 6;
    let mut edges = Vec::new();
    for b in 0..BLOCKS {
        for i in 0..PER {
            let src = (b * PER + i) as u32;
            let dst = (b * PER + (i + 1) % PER) as u32;
            edges.push((VertexId(src), VertexId(dst)));
        }
    }
    let graph = DynamicGraph::from_edges(BLOCKS * PER, DIM, &edges).unwrap();
    let model = Workload::GcS.build_model(DIM, 8, 4, 2, 17).unwrap();
    let store = full_inference(&graph, &model).unwrap();

    // Four feature rewrites per block visit = exactly one size-4 window per
    // block, cycling through all blocks twice.
    let mut updates = Vec::new();
    for round in 0..2 {
        for b in 0..BLOCKS {
            for j in 0..4 {
                updates.push(GraphUpdate::update_feature(
                    VertexId((b * PER + j) as u32),
                    vec![(round * BLOCKS + b + j) as f32 * 0.03125; DIM],
                ));
            }
        }
    }

    let serial = run_stream(&graph, &model, &store, &updates, serve_config(4, None));
    assert_eq!(
        serial.records.len(),
        2 * BLOCKS,
        "one window per block visit"
    );
    let concurrent = run_stream(
        &graph,
        &model,
        &store,
        &updates,
        serve_config(4, Some(depth)),
    );
    assert!(
        concurrent.report.admitted_concurrent > 0,
        "disjoint windows must actually group at depth {depth}: {}",
        concurrent.report
    );
    assert!(
        concurrent.report.merged > 0,
        "groups of several windows must merge into one pass at depth {depth}: {}",
        concurrent.report
    );
    assert_eq!(
        concurrent.report.conflicts, 0,
        "disconnected blocks can never conflict: {}",
        concurrent.report
    );
    assert_matches_serial(
        &concurrent,
        &serial,
        &format!("disjoint blocks depth {depth}"),
    );
}

#[test]
fn disjoint_blocks_fill_groups_and_stay_bit_identical() {
    disjoint_blocks_scenario(4);
}

#[test]
fn disjoint_blocks_fill_groups_at_depth_2() {
    disjoint_blocks_scenario(2);
}
