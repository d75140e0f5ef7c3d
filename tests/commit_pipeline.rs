//! The serving tiers' one commit pipeline.
//!
//! Two properties of the write path that both tiers share:
//!
//! * **The unsharded tier is one shard with no halos.** The same update
//!   stream served by `spawn` over a [`RippleEngine`] and by
//!   `spawn_sharded(.., 1)` commits the same windows with the same stamps
//!   and ends in bit-identical stores, durable and at admission depths 1
//!   and 4 (where both merge disjoint windows into one engine pass: the
//!   part count decides, not the entry point).
//! * **No durable poison pill.** A window the engine would reject — a
//!   feature vector of the wrong width, a vertex outside the served id
//!   space, a delete of a missing edge or an add of an existing one — is
//!   refused before its WAL append. The session stops with a typed error,
//!   and a respawn on the same directory recovers the valid prefix bit for
//!   bit and keeps serving. The edge check sees windows that are logged
//!   but not yet applied: at depth 4 a window may delete an edge that a
//!   still-staged window adds.

use ripple::core::ShardEngine;
use ripple::prelude::*;
use ripple::serve::{DurabilityConfig, FlushLog, FlushRecord, FsyncPolicy, PartitionId};
use std::path::PathBuf;
use std::sync::Arc;

/// A fresh scratch directory, unique per test case and process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ripple-commit-pipeline-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bootstrap(seed: u64) -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<GraphUpdate>) {
    let full = DatasetSpec::custom(120, 4.0, 6, 4).generate(seed).unwrap();
    let plan = build_stream(
        &full,
        &StreamConfig {
            total_updates: 96,
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

fn engine(graph: &DynamicGraph, model: &GnnModel, store: &EmbeddingStore) -> RippleEngine {
    RippleEngine::new(
        graph.clone(),
        model.clone(),
        store.clone(),
        RippleConfig::default(),
    )
    .unwrap()
}

/// Windows close on size (or an explicit flush) only, so every window
/// boundary is a function of the stream.
fn durable_config(dir: &PathBuf, max_batch: usize, depth: usize) -> ServeConfig {
    ServeConfig::builder()
        .max_batch(max_batch)
        .max_delay(ServeConfig::MAX_DELAY)
        .record_batches(true)
        .concurrent_admission(depth)
        .durability(
            DurabilityConfig::new(dir)
                .checkpoint_every(5)
                .fsync(FsyncPolicy::Never),
        )
        .build()
        .unwrap()
}

/// Per-window stamps `(window_seq, raw, epoch, applied_seq,
/// topology_epoch)`.
fn stamps(records: &[FlushRecord]) -> Vec<(u64, u64, u64, u64, u64)> {
    records
        .iter()
        .map(|r| {
            (
                r.window_seq,
                r.raw,
                r.epoch,
                r.applied_seq,
                r.topology_epoch,
            )
        })
        .collect()
}

#[test]
fn unsharded_tier_is_one_shard_with_no_halos() {
    for seed in [3u64, 7, 11] {
        let (graph, model, store, updates) = bootstrap(seed);
        for depth in [1usize, 4] {
            let single_dir = scratch_dir(&format!("single-{seed}-{depth}"));
            let handle = spawn_serve(
                engine(&graph, &model, &store),
                durable_config(&single_dir, 4, depth),
            )
            .unwrap();
            let (accepted, _) = handle.client().submit_all(updates.clone());
            assert_eq!(accepted, updates.len());
            handle.flush().expect("scheduler alive");
            let single_log = handle.flush_log().unwrap().snapshot();
            let single = handle.shutdown().unwrap();

            let shard_dir = scratch_dir(&format!("shard-{seed}-{depth}"));
            let handle = spawn_sharded(
                &graph,
                &model,
                &store,
                RippleConfig::default(),
                durable_config(&shard_dir, 4, depth),
                1,
            )
            .unwrap();
            let (accepted, _) = handle.client().submit_all(updates.clone());
            assert_eq!(accepted, updates.len());
            handle.quiesce().expect("shard alive");
            let shard_log = handle.flush_logs()[0].snapshot();
            let shard = handle.shutdown().unwrap();

            assert!(single_log.len() >= 24, "seed {seed} depth {depth}");
            assert_eq!(
                stamps(&single_log),
                stamps(&shard_log),
                "per-window stamps, seed {seed} depth {depth}"
            );
            assert!(
                single_log
                    .iter()
                    .zip(&shard_log)
                    .all(|(a, b)| a.batch == b.batch && b.halos.is_empty()),
                "windows and halos, seed {seed} depth {depth}"
            );
            assert!(
                *single.store() == shard.gather_store(),
                "stores must be bit-identical, seed {seed} depth {depth}"
            );
            let _ = std::fs::remove_dir_all(&single_dir);
            let _ = std::fs::remove_dir_all(&shard_dir);
        }
    }
}

/// Invalid updates a client can submit against a 120-vertex, 6-wide graph
/// once the `valid` prefix has committed.
fn poison_pills(graph: &DynamicGraph, valid: &[GraphUpdate]) -> Vec<(&'static str, GraphUpdate)> {
    let n = graph.num_vertices() as u32;
    // An edge that is (or is not) in the graph and that no edge update of
    // the prefix starts from, so the prefix leaves it as it was.
    let edge = |present: bool| {
        let untouched = |u: &VertexId| {
            !valid
                .iter()
                .any(|x| x.sink_vertex().is_some() && x.hop0_vertex() == *u)
        };
        (0..n)
            .map(VertexId)
            .filter(untouched)
            .flat_map(|u| (0..n).map(move |v| (u, VertexId(v))))
            .find(|&(u, v)| u != v && graph.has_edge(u, v) == present)
            .expect("the graph has edges and non-edges")
    };
    let (missing, existing) = (edge(false), edge(true));
    vec![
        (
            "narrow-feature",
            GraphUpdate::update_feature(VertexId(3), vec![0.5; 2]),
        ),
        (
            "unknown-vertex",
            GraphUpdate::update_feature(VertexId(n + 7), vec![0.5; graph.feature_dim()]),
        ),
        (
            "unknown-endpoint",
            GraphUpdate::add_edge(VertexId(1), VertexId(n + 2)),
        ),
        (
            "missing-edge-delete",
            GraphUpdate::delete_edge(missing.0, missing.1),
        ),
        (
            "duplicate-edge-add",
            GraphUpdate::add_edge(existing.0, existing.1),
        ),
    ]
}

/// Ground truth of a sharded run: each shard's recorded windows (batch
/// plus received halos) replayed through a fresh shard engine, gathered
/// into one store.
fn replay_shards(
    graph: &DynamicGraph,
    model: &GnnModel,
    store: &EmbeddingStore,
    logs: &[FlushLog],
) -> EmbeddingStore {
    let partitioning = Arc::new(HashPartitioner::new().partition(graph, logs.len()).unwrap());
    let mut reference = store.clone();
    for (p, log) in logs.iter().enumerate() {
        let mut shard = ShardEngine::new(
            graph,
            model.clone(),
            store.clone(),
            RippleConfig::default(),
            Arc::clone(&partitioning),
            PartitionId(p as u32),
        )
        .unwrap();
        for record in log.snapshot() {
            if !record.batch.is_empty() || !record.halos.is_empty() {
                shard.process_window(&record.batch, &record.halos).unwrap();
            }
        }
        assert!(shard.gather_into(&mut reference));
    }
    reference
}

fn assert_rejected_as_invalid(error: &ServeError, case: &str) {
    let ServeError::Engine(ripple::core::RippleError::InvalidUpdate(_)) = error else {
        panic!("{case}: expected a typed invalid-update error, got {error:?}");
    };
}

#[test]
fn invalid_update_is_refused_before_the_wal_on_the_single_tier() {
    let (graph, model, store, updates) = bootstrap(5);
    let (valid, more) = updates.split_at(10);
    for (case, pill) in poison_pills(&graph, valid) {
        let dir = scratch_dir(&format!("pill-single-{case}"));
        let config = durable_config(&dir, 1, 1);
        let handle = spawn_serve(engine(&graph, &model, &store), config.clone()).unwrap();
        let metrics = handle.metrics();
        let client = handle.client();
        client.submit_all(valid.iter().cloned());
        handle.flush().expect("valid prefix commits");
        client.submit(pill);
        let log = handle.flush_log().unwrap();
        let error = handle.shutdown().expect_err("the pill stops the session");
        assert_rejected_as_invalid(&error, case);
        assert_eq!(metrics.engine_errors(), 1, "{case}");

        let handle = spawn_serve(engine(&graph, &model, &store), config)
            .unwrap_or_else(|e| panic!("{case}: respawn must recover, got {e}"));
        let report = handle.recovery_report().unwrap();
        assert_eq!(report.resumed_window_seq, valid.len() as u64, "{case}");

        // The recovered store is the valid prefix, replayed window by
        // window, bit for bit.
        let mut reference = engine(&graph, &model, &store);
        for record in log.snapshot() {
            reference.process_batch(&record.batch).unwrap();
        }
        let recovered = {
            let mut queries = handle.query_service();
            let table = reference.store().embeddings(model.num_layers());
            for v in 0..graph.num_vertices() {
                let row = queries.read_embedding(VertexId(v as u32)).unwrap();
                assert_eq!(row.epoch, valid.len() as u64, "{case}");
                let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&row.value), bits(table.row(v)), "{case}: row {v}");
            }
            handle.client().submit_all(more.iter().take(6).cloned());
            handle.flush().expect("the recovered session serves")
        };
        assert_eq!(recovered, valid.len() as u64 + 6, "{case}");
        let served = handle.shutdown().unwrap();
        for update in more.iter().take(6) {
            reference
                .process_batch(&UpdateBatch::from_updates(vec![update.clone()]))
                .unwrap();
        }
        assert!(
            served.store() == reference.store(),
            "{case}: recovered session drifted from the valid stream"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn invalid_update_is_refused_before_the_wal_on_two_shards() {
    let (graph, model, store, updates) = bootstrap(9);
    let (valid, more) = updates.split_at(10);
    for (case, pill) in poison_pills(&graph, valid) {
        let dir = scratch_dir(&format!("pill-sharded-{case}"));
        let config = durable_config(&dir, 1, 1);
        let spawn = || {
            spawn_sharded(
                &graph,
                &model,
                &store,
                RippleConfig::default(),
                config.clone(),
                2,
            )
        };
        let handle = spawn().unwrap();
        let router = handle.client();
        router.submit_all(valid.iter().cloned());
        // Quiesce first, so every halo the valid prefix produced is
        // applied and logged before the pill arrives.
        handle.quiesce().expect("valid prefix commits");
        router.submit(pill);
        let logs = handle.flush_logs();
        match handle.shutdown() {
            Err(ServeError::ShardFailed { error, .. }) => assert_rejected_as_invalid(&error, case),
            other => panic!("{case}: expected a failed shard, got {other:?}"),
        }

        let reference = replay_shards(&graph, &model, &store, &logs);

        let handle = spawn().unwrap_or_else(|e| panic!("{case}: respawn must recover, got {e}"));
        assert_eq!(handle.recovery_reports().len(), 2, "{case}");
        let recovered = handle.shutdown().unwrap().gather_store();
        assert!(
            recovered == reference,
            "{case}: recovered tier is not the valid prefix bit for bit"
        );

        let handle = spawn().unwrap();
        let (accepted, _) = handle.client().submit_all(more.iter().take(6).cloned());
        assert_eq!(accepted, 6, "{case}");
        handle.quiesce().expect("the recovered tier serves");
        let applied = handle.metrics().applied();
        assert!(applied >= 6, "{case}: {applied} updates applied");
        handle.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// At depth 4 a window deletes an edge that a still-staged window adds
/// (logged, not yet applied), then re-adds and deletes it again. The edge
/// check sees the staged group, so every window is accepted, and both
/// tiers end bit-identical to a serial replay of their windows.
#[test]
fn staged_add_then_delete_is_accepted_at_depth_4() {
    let (graph, model, store, updates) = bootstrap(13);
    let (prefix, _) = updates.split_at(8);
    let n = graph.num_vertices() as u32;
    // An edge absent from the graph that no update of the stream touches.
    let touched = |u: u32, v: u32| {
        updates
            .iter()
            .any(|x| x.hop0_vertex() == VertexId(u) && x.sink_vertex() == Some(VertexId(v)))
    };
    let (a, b) = (0..n)
        .flat_map(|u| (0..n).map(move |v| (u, v)))
        .find(|&(u, v)| u != v && !graph.has_edge(VertexId(u), VertexId(v)) && !touched(u, v))
        .map(|(u, v)| (VertexId(u), VertexId(v)))
        .expect("a sparse graph has a missing edge");
    let churn = [
        GraphUpdate::add_edge(a, b),
        GraphUpdate::delete_edge(a, b),
        GraphUpdate::add_edge(a, b),
        GraphUpdate::delete_edge(a, b),
    ];
    let delete_windows = |records: &[FlushRecord]| {
        let delete = [GraphUpdate::delete_edge(a, b)];
        records
            .iter()
            .filter(|r| r.batch.updates() == delete)
            .count()
    };

    let dir = scratch_dir("staged-add-delete-single");
    let handle = spawn_serve(engine(&graph, &model, &store), durable_config(&dir, 1, 4)).unwrap();
    let client = handle.client();
    client.submit_all(prefix.iter().cloned());
    handle.flush().expect("prefix commits");
    // The first add stages alone, so the delete behind it is checked
    // against a group holding an unapplied add.
    client.submit_all(churn.iter().cloned());
    handle.flush().expect("the deletes are accepted");
    let log = handle.flush_log().unwrap().snapshot();
    let served = handle.shutdown().unwrap();
    assert_eq!(delete_windows(&log), 2);
    let mut reference = engine(&graph, &model, &store);
    for record in &log {
        reference.process_batch(&record.batch).unwrap();
    }
    assert!(
        served.store() == reference.store() && served.graph() == reference.graph(),
        "single tier diverged from its serial replay"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch_dir("staged-add-delete-sharded");
    let handle = spawn_sharded(
        &graph,
        &model,
        &store,
        RippleConfig::default(),
        durable_config(&dir, 1, 4),
        2,
    )
    .unwrap();
    let router = handle.client();
    router.submit_all(prefix.iter().cloned());
    handle.quiesce().expect("prefix commits");
    router.submit_all(churn.iter().cloned());
    handle.quiesce().expect("the deletes are accepted");
    let logs = handle.flush_logs();
    let served = handle.shutdown().unwrap().gather_store();
    let deletes: usize = logs.iter().map(|log| delete_windows(&log.snapshot())).sum();
    assert!(deletes >= 2, "{deletes} delete windows");
    assert!(
        served == replay_shards(&graph, &model, &store, &logs),
        "two shards diverged from their serial replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
