//! Crash-recovery property tests for the durable serving tier.
//!
//! The durability contract under test: a serving session that crashes at
//! **any** point — before a WAL append, mid-append (torn frame), after the
//! append, after the epoch published, or mid-checkpoint — must recover to a
//! state **bit-identical** to a never-crashed engine replaying exactly the
//! windows that became durable. "State" here is the whole compute spine:
//! the embedding store, the dynamic graph, the CSR topology snapshot at the
//! resumed topology epoch, and the IVF top-k index rebuilt from the
//! recovered store.
//!
//! The crash sites are driven through the WAL's own fail-point hooks
//! ([`ripple::serve::FailPoints`]), so every test kills the scheduler
//! inside the real write path rather than simulating one. Torn writes are
//! additionally exercised byte by byte: the last frame of a healthy log is
//! truncated at **every** offset and recovery must drop exactly the torn
//! tail, never a valid prefix frame.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ripple::core::{DeltaMessage, ShardEngine};
use ripple::prelude::*;
use ripple::serve::durability::{encode_frame, read_wal, recover};
use ripple::serve::index::IndexMaintainer;
use ripple::serve::{
    DurabilityConfig, FailPoints, FsyncPolicy, PartitionId, FP_AFTER_PUBLISH, FP_CKPT_MID,
    FP_WAL_AFTER_APPEND, FP_WAL_BEFORE_APPEND, FP_WAL_TORN_APPEND,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SITES: [&str; 5] = [
    FP_WAL_BEFORE_APPEND,
    FP_WAL_TORN_APPEND,
    FP_WAL_AFTER_APPEND,
    FP_AFTER_PUBLISH,
    FP_CKPT_MID,
];

/// A fresh scratch directory, unique per test *and* per proptest case so
/// concurrently running tests never share WAL state.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ripple-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bootstrap(seed: u64) -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<GraphUpdate>) {
    let full = DatasetSpec::custom(120, 4.0, 6, 4).generate(seed).unwrap();
    let plan = build_stream(
        &full,
        &StreamConfig {
            total_updates: 40,
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

/// A serve config with durability into `dir`, long time windows (flushes in
/// these tests are explicit) and `fail` consulted by the WAL paths.
fn durable_config(dir: &Path, checkpoint_every: u64, fail: &FailPoints) -> ServeConfig {
    durable_config_with(dir, checkpoint_every, fail, FsyncPolicy::Never, 0)
}

/// [`durable_config`] with an explicit fsync policy and, when `inflight`
/// is nonzero, concurrent admission at that depth — so the crash-site
/// proptest also drives the group-commit (`append_unsynced` + one `sync`)
/// WAL path and the group checkpoint boundary.
fn durable_config_with(
    dir: &Path,
    checkpoint_every: u64,
    fail: &FailPoints,
    fsync: FsyncPolicy,
    inflight: usize,
) -> ServeConfig {
    let builder = ServeConfig::builder()
        .max_batch(64)
        .max_delay(Duration::from_secs(60))
        .record_batches(true)
        .durability(
            DurabilityConfig::new(dir)
                .checkpoint_every(checkpoint_every)
                .fsync(fsync)
                .fail_points(fail.clone()),
        );
    let builder = if inflight > 0 {
        builder.concurrent_admission(inflight)
    } else {
        builder
    };
    builder.build().unwrap()
}

/// Replays the durable single-engine WAL from bootstrap: the uncrashed
/// ground truth every recovery must reproduce bit for bit.
fn reference_replay(
    graph: &DynamicGraph,
    model: &GnnModel,
    store: &EmbeddingStore,
    dir: &Path,
) -> RippleEngine {
    let mut reference = engine(graph, model, store);
    for frame in &read_wal(dir).unwrap().frames {
        if !frame.batch.is_empty() {
            reference.process_batch(&frame.batch).unwrap();
        }
    }
    reference
}

/// Asserts full-spine bit-identity: store, graph, topology epoch, the CSR
/// snapshot at that epoch, and the IVF index rebuilt from the store.
fn assert_bit_identical(recovered: &RippleEngine, reference: &RippleEngine, what: &str) {
    assert!(
        recovered.store() == reference.store(),
        "{what}: recovered store diverged from the uncrashed replay"
    );
    assert!(
        recovered.graph() == reference.graph(),
        "{what}: recovered graph diverged from the uncrashed replay"
    );
    assert_eq!(
        recovered.topology_epoch(),
        reference.topology_epoch(),
        "{what}: topology epoch diverged"
    );
    // CSR bit-parity is a read-level contract: the rebuilt snapshot must
    // serve every adjacency read identically at the same resumed epoch.
    let rec_snap = CsrSnapshot::from_dynamic_at(recovered.graph(), recovered.topology_epoch());
    let ref_snap = CsrSnapshot::from_dynamic_at(reference.graph(), reference.topology_epoch());
    assert_eq!(
        rec_snap.epoch(),
        ref_snap.epoch(),
        "{what}: CSR epoch diverged"
    );
    for v in 0..recovered.graph().num_vertices() as u32 {
        let v = VertexId(v);
        assert_eq!(
            rec_snap.out_neighbors(v),
            ref_snap.out_neighbors(v),
            "{what}: CSR out-adjacency of {v} diverged"
        );
        assert_eq!(
            rec_snap.in_neighbors(v),
            ref_snap.in_neighbors(v),
            "{what}: CSR in-adjacency of {v} diverged"
        );
    }
    let (_, mut recovered_idx) =
        IndexMaintainer::bootstrap(recovered.store(), None, IndexParams::default());
    let (_, mut reference_idx) =
        IndexMaintainer::bootstrap(reference.store(), None, IndexParams::default());
    assert!(
        recovered_idx.index().contents_eq(reference_idx.index()),
        "{what}: IVF index rebuilt from the recovered store diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Random crash point × random update stream: recovery lands the whole
    /// compute spine bit-identical to a never-crashed replay of the durable
    /// windows, and the resumed session continues the epoch sequence.
    #[test]
    fn random_crash_recovers_bit_identically(
        seed in 0u64..200,
        site in 0usize..5,
        after_hits in 0u64..3,
        arm_at in 1usize..4,
        always_fsync in 0u8..2,
        inflight in 0usize..3,
    ) {
        let (graph, model, store, updates) = bootstrap(seed);
        let dir = scratch_dir(&format!("prop-{seed}-{site}-{after_hits}-{arm_at}"));
        let fail = FailPoints::new();
        let fsync = if always_fsync == 1 { FsyncPolicy::Always } else { FsyncPolicy::Never };
        let config = durable_config_with(&dir, 2, &fail, fsync, inflight * 2);

        // Crashed run: flush explicit windows; arm the fail point partway
        // through, then keep driving until it kills the scheduler.
        let handle = spawn_serve(engine(&graph, &model, &store), config.clone()).unwrap();
        let client = handle.client();
        for (i, chunk) in updates.chunks(5).enumerate() {
            if i == arm_at {
                fail.arm(SITES[site], after_hits);
            }
            for update in chunk {
                client.submit(update.clone());
            }
            if handle.flush().is_none() {
                break;
            }
        }
        // The stream may end before the armed site fired (e.g. a checkpoint
        // site with a cadence the run never reached): push always-valid
        // feature rewrites until the crash lands.
        let mut extra = 0u32;
        while handle.failure().is_none() && extra < 64 {
            client.submit(GraphUpdate::update_feature(
                VertexId(extra % graph.num_vertices() as u32),
                vec![0.25; graph.feature_dim()],
            ));
            if handle.flush().is_none() {
                break;
            }
            extra += 1;
        }
        // `shutdown` joins the scheduler thread, so it observes the typed
        // failure race-free (a mid-flush death can surface to `flush()`
        // before the failure slot is written).
        prop_assert!(
            handle.shutdown().is_err(),
            "armed fail point never fired: the crash run shut down cleanly"
        );
        fail.disarm_all();

        // Ground truth and the read-only view of what recovery will replay.
        let reference = reference_replay(&graph, &model, &store, &dir);
        let durable = recover(&dir).unwrap();
        let last_epoch = read_wal(&dir).unwrap().frames.last().map_or(0, |f| f.epoch);

        // Recovery run: spawn from the original bootstrap state against the
        // same directory; its engine must be bit-identical to the reference.
        let handle = spawn_serve(engine(&graph, &model, &store), config.clone()).unwrap();
        let report = handle.recovery_report().expect("durable session reports recovery");
        prop_assert_eq!(report.resumed_window_seq, durable.resumed_window_seq());
        prop_assert_eq!(report.replayed_windows, durable.frames.len() as u64);
        let recovered = handle.shutdown().unwrap();
        assert_bit_identical(&recovered, &reference, "single-engine crash");

        // Continuation: a resumed session extends the epoch sequence rather
        // than restarting it. Resumption starts from bootstrap state — the
        // recovery contract restores a checkpoint (when one exists) and
        // replays the WAL tail on top, so handing it an engine that already
        // contains replayed windows would double-apply any tail not covered
        // by a checkpoint.
        let handle = spawn_serve(engine(&graph, &model, &store), config).unwrap();
        client_submit_one(&handle, &graph);
        prop_assert_eq!(handle.flush(), Some(last_epoch + 1));
        handle.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Serves `windows` one flush each, then arms `site` and keeps flushing
/// always-valid feature rewrites until it fires. Returns the typed failure
/// the crash stopped the session with.
fn serve_into_crash(
    handle: ServeHandle<RippleEngine>,
    fail: &FailPoints,
    site: &'static str,
    windows: &[Vec<GraphUpdate>],
    feature_dim: usize,
) -> ServeError {
    let client = handle.client();
    for window in windows {
        client.submit_all(window.iter().cloned());
        handle
            .flush()
            .expect("the session is alive until the fail point is armed");
    }
    fail.arm(site, 0);
    for v in 0..64u32 {
        client.submit(GraphUpdate::update_feature(
            VertexId(v % 8),
            vec![0.25; feature_dim],
        ));
        if handle.flush().is_none() {
            break;
        }
    }
    let crash = handle
        .shutdown()
        .expect_err("the armed fail point must fire");
    fail.disarm_all();
    crash
}

/// Hub churn valid against `graph` when applied in order: feature
/// rewrites, and adds and deletes of out-edges, all on the hubs `0..8`.
fn hub_churn(graph: &DynamicGraph, seed: u64, windows: usize) -> Vec<Vec<GraphUpdate>> {
    const HUBS: u32 = 8;
    let n = graph.num_vertices() as u32;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = (0..HUBS)
        .flat_map(|u| {
            graph
                .out_neighbors(VertexId(u))
                .iter()
                .map(move |v| (u, v.0))
        })
        .collect();
    let mut update = || match rng.gen_range(0u32..4) {
        0 => GraphUpdate::update_feature(
            VertexId(rng.gen_range(0..HUBS)),
            (0..graph.feature_dim())
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect(),
        ),
        1 if !edges.is_empty() => {
            let (u, v) = edges.swap_remove(rng.gen_range(0..edges.len()));
            GraphUpdate::delete_edge(VertexId(u), VertexId(v))
        }
        _ => loop {
            let edge @ (u, v) = (rng.gen_range(0..HUBS), rng.gen_range(0..n));
            if u != v && !edges.contains(&edge) {
                edges.push(edge);
                break GraphUpdate::add_edge(VertexId(u), VertexId(v));
            }
        },
    };
    (0..windows)
        .map(|_| (0..6).map(|_| update()).collect())
        .collect()
}

/// The newest logged `window_seq` (0 for an empty log).
fn last_logged(dir: &Path) -> u64 {
    read_wal(dir)
        .unwrap()
        .frames
        .last()
        .map_or(0, |f| f.window_seq)
}

/// A second crash on a directory a recovered session has written to, for
/// every ordered pair of crash sites under both fsync policies: the first
/// session crashes at `s1`; the second recovers, logs hub churn valid
/// against the recovered graph and crashes at `s2`; a third recovers. Both
/// crashed sessions cross the checkpoint cadence, and the last recovery
/// lands the whole compute spine bit-identical to a never-crashed replay
/// of every durable window.
#[test]
fn second_crash_after_recovery_recovers_bit_identically() {
    let (graph, model, store, updates) = bootstrap(31);
    let first: Vec<Vec<GraphUpdate>> = updates.chunks(5).take(4).map(<[_]>::to_vec).collect();
    let dim = graph.feature_dim();
    for fsync in [FsyncPolicy::Never, FsyncPolicy::Always] {
        for (i, s1) in SITES.into_iter().enumerate() {
            for (j, s2) in SITES.into_iter().enumerate() {
                let case = format!("{fsync:?}: {s1} then {s2}");
                let dir = scratch_dir(&format!("two-crash-{fsync:?}-{i}-{j}"));
                let fail = FailPoints::new();
                let config = durable_config_with(&dir, 3, &fail, fsync, 0);

                let handle = spawn_serve(engine(&graph, &model, &store), config.clone()).unwrap();
                let crash = serve_into_crash(handle, &fail, s1, &first, dim);
                assert!(matches!(crash, ServeError::Wal(_)), "{case}: {crash}");

                // The churn is valid against the durable prefix, which is
                // what recovery must restore.
                let durable = reference_replay(&graph, &model, &store, &dir);
                let churn = hub_churn(durable.graph(), (i * 5 + j) as u64, 4);
                let handle = spawn_serve(engine(&graph, &model, &store), config.clone()).unwrap();
                let first_recovery = handle.recovery_report().unwrap();
                assert!(
                    first_recovery.from_checkpoint,
                    "{case}: session 1 checkpointed"
                );
                let resumed = first_recovery.resumed_window_seq;
                let crash = serve_into_crash(handle, &fail, s2, &churn, dim);
                assert!(matches!(crash, ServeError::Wal(_)), "{case}: {crash}");
                assert!(
                    last_logged(&dir) > resumed,
                    "{case}: the second kill must land after the recovered session logged"
                );

                let reference = reference_replay(&graph, &model, &store, &dir);
                let handle = spawn_serve(engine(&graph, &model, &store), config).unwrap();
                let report = handle.recovery_report().unwrap();
                assert!(
                    report.checkpoint_seq > resumed,
                    "{case}: the recovered session checkpointed"
                );
                let recovered = handle.shutdown().unwrap();
                assert_bit_identical(&recovered, &reference, &case);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

fn client_submit_one(handle: &ripple::serve::ServeHandle<RippleEngine>, graph: &DynamicGraph) {
    handle.client().submit(GraphUpdate::update_feature(
        VertexId(1),
        vec![0.5; graph.feature_dim()],
    ));
}

/// A window whose updates fully cancel (add then delete of a new edge) is
/// still *logged*: it consumes a `window_seq`, publishes an epoch, and
/// recovery reproduces its counters — distinguishing it from a skipped
/// flush, which consumes nothing.
#[test]
fn fully_cancelled_window_is_logged_not_skipped() {
    let (graph, model, store, _) = bootstrap(7);
    let dir = scratch_dir("cancelled-window");
    let fail = FailPoints::new();
    let config = durable_config(&dir, 0, &fail);

    // An edge guaranteed absent from the bootstrap graph, so its add+delete
    // coalesces to nothing.
    let (a, b) = (0..graph.num_vertices() as u32)
        .flat_map(|a| (0..graph.num_vertices() as u32).map(move |b| (a, b)))
        .find(|&(a, b)| a != b && !graph.out_neighbors(VertexId(a)).contains(&VertexId(b)))
        .expect("a sparse graph has a missing edge");

    let handle = spawn_serve(engine(&graph, &model, &store), config.clone()).unwrap();
    let client = handle.client();
    client.submit(GraphUpdate::add_edge(VertexId(a), VertexId(b)));
    client.submit(GraphUpdate::delete_edge(VertexId(a), VertexId(b)));
    assert_eq!(handle.flush(), Some(1), "empty window still publishes");
    // A skipped flush by contrast: nothing pending, no sequence consumed.
    assert_eq!(handle.flush(), Some(1));
    let log = handle.flush_log().expect("record_batches on");
    let records = log.snapshot();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].window_seq, 1);
    assert_eq!(records[0].raw, 2);
    assert!(records[0].batch.is_empty());
    handle.shutdown().unwrap();

    let scan = read_wal(&dir).unwrap();
    assert_eq!(scan.frames.len(), 1);
    assert_eq!(scan.frames[0].window_seq, 1);
    assert_eq!(scan.frames[0].raw, 2);
    assert!(scan.frames[0].batch.is_empty());
    assert_eq!(scan.frames[0].applied_seq, 2);

    // Recovery adopts the logged counters even though no engine work runs.
    let handle = spawn_serve(engine(&graph, &model, &store), config).unwrap();
    let report = handle.recovery_report().unwrap();
    assert_eq!(report.resumed_window_seq, 1);
    assert_eq!(report.resumed_epoch, 1);
    assert_eq!(report.replayed_windows, 1);
    let recovered = handle.shutdown().unwrap();
    assert!(
        recovered.store() == &store,
        "cancelled window must be a no-op"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncates the WAL at every byte offset of the last frame: recovery must
/// drop exactly the torn tail and keep every preceding frame.
#[test]
fn torn_tail_is_dropped_at_every_byte_offset() {
    let (graph, model, store, updates) = bootstrap(13);
    let dir = scratch_dir("torn-tail");
    let fail = FailPoints::new();
    let config = durable_config(&dir, 0, &fail);

    let handle = spawn_serve(engine(&graph, &model, &store), config).unwrap();
    let client = handle.client();
    for chunk in updates.chunks(8).take(3) {
        for update in chunk {
            client.submit(update.clone());
        }
        handle.flush().unwrap();
    }
    handle.shutdown().unwrap();

    let scan = read_wal(&dir).unwrap();
    assert_eq!(scan.frames.len(), 3);
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .expect("one WAL segment");
    let bytes = std::fs::read(&segment).unwrap();
    let last_len = encode_frame(&scan.frames[2]).len();
    assert!(bytes.len() >= last_len);
    let boundary = bytes.len() - last_len;

    let torn_dir = scratch_dir("torn-tail-cut");
    std::fs::create_dir_all(&torn_dir).unwrap();
    let torn_segment = torn_dir.join(segment.file_name().unwrap());
    for cut in boundary..bytes.len() {
        std::fs::write(&torn_segment, &bytes[..cut]).unwrap();
        let recovered = recover(&torn_dir).unwrap();
        assert_eq!(
            recovered.frames.len(),
            2,
            "cut at {cut} (frame byte {}) must keep exactly the intact frames",
            cut - boundary
        );
        assert_eq!(recovered.frames[1].window_seq, 2);
        assert_eq!(recovered.dropped_tail_bytes, (cut - boundary) as u64);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&torn_dir);
}

/// Two-shard crash: each shard recovers from its own `shard-{p}/` stream
/// and lands bit-identical to a fresh [`ShardEngine`] replaying that
/// shard's durable windows (coalesced batches plus logged received halos).
///
/// Recovery additionally **re-ships** the outgoing halo deltas regenerated
/// while replaying each durable window, repairing deltas that were in
/// flight between shards when the crash hit; receivers drop the re-shipped
/// copies they already logged (watermark dedup) and absorb the rest as
/// ordinary logged windows. The ground truth is therefore taken from each
/// shard's WAL *after* the recovered tier quiesces and shuts down: every
/// window the shard committed — pre-crash and repaired — is in that log,
/// and replaying it from bootstrap must reproduce the recovered state bit
/// for bit.
#[test]
fn two_shard_crash_recovers_bit_identically_per_shard() {
    for seed in [3u64, 11] {
        let (graph, model, store, updates) = bootstrap(seed);
        let dir = scratch_dir(&format!("sharded-{seed}"));
        let fail = FailPoints::new();
        let config = durable_config(&dir, 2, &fail);
        let durability = config.durability.clone().unwrap();

        let handle = spawn_sharded(
            &graph,
            &model,
            &store,
            RippleConfig::default(),
            config.clone(),
            2,
        )
        .unwrap();
        let router = handle.client();
        for (i, chunk) in updates.chunks(6).enumerate() {
            if i == 2 {
                fail.arm(FP_WAL_AFTER_APPEND, 1);
            }
            for update in chunk {
                router.submit(update.clone());
            }
            if handle.flush().is_none() {
                break;
            }
        }
        let mut extra = 0u32;
        while handle.flush().is_some() && extra < 64 {
            router.submit(GraphUpdate::update_feature(
                VertexId(extra % graph.num_vertices() as u32),
                vec![0.75; graph.feature_dim()],
            ));
            extra += 1;
        }
        let crash = handle.shutdown();
        assert!(crash.is_err(), "the armed shard must fail the tier");
        fail.disarm_all();

        // Recovery: respawn the tier on the same directory and gather the
        // recovered shard engines. Shutdown quiesces re-shipped in-flight
        // halos first, so any repaired delta is applied — and logged — by
        // the time the engines come back.
        let handle =
            spawn_sharded(&graph, &model, &store, RippleConfig::default(), config, 2).unwrap();
        let reports = handle.recovery_reports();
        assert_eq!(reports.len(), 2);
        let recovered = handle.shutdown().unwrap().into_engines();

        // Ground truth per shard: replay its own (post-recovery) WAL through
        // a fresh shard engine built exactly like the tier builds them.
        let partitioning = Arc::new(HashPartitioner::new().partition(&graph, 2).unwrap());
        let mut references = Vec::new();
        for p in 0..2usize {
            let mut shard_ref = ShardEngine::new(
                &graph,
                model.clone(),
                store.clone(),
                RippleConfig::default(),
                Arc::clone(&partitioning),
                PartitionId(p as u32),
            )
            .unwrap();
            for frame in &read_wal(&durability.shard_dir(p)).unwrap().frames {
                let halos: &[DeltaMessage] = &frame.halos;
                if !frame.batch.is_empty() || !halos.is_empty() {
                    shard_ref.process_window(&frame.batch, halos).unwrap();
                }
            }
            references.push(shard_ref);
        }
        for (p, (rec, reference)) in recovered.iter().zip(&references).enumerate() {
            assert!(
                rec.store() == reference.store(),
                "shard {p} store diverged from its durable replay"
            );
            assert!(
                rec.graph() == reference.graph(),
                "shard {p} graph diverged from its durable replay"
            );
            assert_eq!(
                rec.topology_epoch(),
                reference.topology_epoch(),
                "shard {p} topology epoch diverged"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Exactly-once halo re-delivery: restarting a cleanly shut down tier
/// makes recovery re-ship every replayed window's regenerated outgoing
/// deltas — all of which the receiving shards already logged before the
/// shutdown. The `(sender, window_seq)` watermarks must drop every
/// re-shipped copy: no new windows commit, no WAL frames appear, and the
/// restarted engines are bit-identical to the ones that shut down.
#[test]
fn reshipped_halos_after_clean_shutdown_apply_exactly_once() {
    let (graph, model, store, updates) = bootstrap(17);
    let dir = scratch_dir("halo-dedup");
    let fail = FailPoints::new();
    let config = durable_config(&dir, 2, &fail);
    let durability = config.durability.clone().unwrap();

    let handle = spawn_sharded(
        &graph,
        &model,
        &store,
        RippleConfig::default(),
        config.clone(),
        2,
    )
    .unwrap();
    let router = handle.client();
    for chunk in updates.chunks(6) {
        for update in chunk {
            router.submit(update.clone());
        }
        handle.flush().expect("healthy tier");
    }
    let first = handle.shutdown().unwrap().into_engines();

    let frame_counts = |durability: &DurabilityConfig| -> Vec<usize> {
        (0..2)
            .map(|p| read_wal(&durability.shard_dir(p)).unwrap().frames.len())
            .collect()
    };
    let frames_before = frame_counts(&durability);
    let logged_halo_batches: usize = (0..2)
        .map(|p| {
            read_wal(&durability.shard_dir(p))
                .unwrap()
                .frames
                .iter()
                .map(|f| f.halo_sources.len())
                .sum::<usize>()
        })
        .sum();
    assert!(
        logged_halo_batches > 0,
        "the stream must exercise cross-shard halo traffic for dedup to matter"
    );

    // Restart on the same directory. Recovery replays each shard's windows
    // and re-ships their outgoing deltas; the clean shutdown means every
    // single one is a duplicate of a logged batch.
    let handle = spawn_sharded(&graph, &model, &store, RippleConfig::default(), config, 2).unwrap();
    let second = handle.shutdown().unwrap().into_engines();

    assert_eq!(
        frames_before,
        frame_counts(&durability),
        "deduped re-ships must not commit new windows"
    );
    for (p, (a, b)) in first.iter().zip(&second).enumerate() {
        assert!(
            a.store() == b.store(),
            "shard {p} store changed across a clean restart"
        );
        assert!(
            a.graph() == b.graph(),
            "shard {p} graph changed across a clean restart"
        );
        assert_eq!(
            a.topology_epoch(),
            b.topology_epoch(),
            "shard {p} topology epoch changed across a clean restart"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoints bound replay: after enough windows, recovery restores the
/// newest checkpoint and replays only the WAL tail beyond it — and still
/// lands bit-identical to the full-history replay.
#[test]
fn checkpointed_recovery_replays_only_the_tail() {
    let (graph, model, store, updates) = bootstrap(29);
    let dir = scratch_dir("checkpointed");
    let fail = FailPoints::new();
    let config = durable_config(&dir, 3, &fail);

    let handle = spawn_serve(engine(&graph, &model, &store), config.clone()).unwrap();
    let client = handle.client();
    for chunk in updates.chunks(4) {
        for update in chunk {
            client.submit(update.clone());
        }
        handle.flush().unwrap();
    }
    handle.shutdown().unwrap();

    let windows = read_wal(&dir).unwrap().frames.len() as u64;
    assert!(windows >= 6, "stream too short to cross a checkpoint");
    let durable = recover(&dir).unwrap();
    let checkpoint = durable.checkpoint.as_ref().expect("cadence crossed");
    assert_eq!(checkpoint.window_seq, (windows / 3) * 3);
    assert_eq!(durable.frames.len() as u64, windows - checkpoint.window_seq);

    let reference = reference_replay(&graph, &model, &store, &dir);
    let handle = spawn_serve(engine(&graph, &model, &store), config).unwrap();
    let report = handle.recovery_report().unwrap();
    assert!(report.from_checkpoint);
    assert_eq!(report.checkpoint_seq, checkpoint.window_seq);
    assert_eq!(report.replayed_windows, windows - checkpoint.window_seq);
    let recovered = handle.shutdown().unwrap();
    assert_bit_identical(&recovered, &reference, "checkpointed recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full scan, by definition: every final-layer row scored by the row
/// kernel, ranked by score (`total_cmp`, descending) then id; ids and score
/// bits.
fn full_scan(store: &EmbeddingStore, query: &[f32], k: usize) -> Vec<(u32, u32)> {
    let table = store.embeddings(store.num_layers());
    let ids: Vec<u32> = (0..table.rows() as u32).collect();
    let mut scores = vec![0.0f32; ids.len()];
    ripple::tensor::ops::score_rows_into(table.as_slice(), table.cols(), &ids, query, &mut scores)
        .unwrap();
    let mut ranked: Vec<(f32, u32)> = scores.into_iter().zip(ids).collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.truncate(k);
    ranked.into_iter().map(|(s, v)| (v, s.to_bits())).collect()
}

/// Exact answers, each with its query and `k`.
type Answers = Vec<(Vec<f32>, usize, Vec<(u32, u32)>)>;

/// After recovery, reads the session's index and snapshot epochs (which
/// must agree shard by shard) and answers a few exact reads; every one
/// must take the pruned path.
fn exact_reads_after_recovery<E>(handle: &ServeHandle<E>, resumed: Vec<u64>) -> Answers {
    handle.quiesce().unwrap();
    let mut reads = handle.query_service();
    assert!(
        resumed.iter().all(|&e| e > 0),
        "recovery resumed past epoch 0"
    );
    assert_eq!(reads.epoch_vector(), resumed);
    assert_eq!(reads.index_epochs(), Some(resumed));
    let mut answers = Vec::new();
    for query in [[1.0, -0.5, 0.25, 0.0], [-0.3, 0.2, 1.0, 0.7]] {
        for k in [1, 10] {
            let got = reads.top_k(&TopKRequest::new(query.to_vec(), k)).unwrap();
            let got = got.value.iter().map(|&(v, s)| (v.0, s.to_bits())).collect();
            answers.push((query.to_vec(), k, got));
        }
    }
    let metrics = handle.metrics();
    assert_eq!(metrics.exact_pruned_reads(), answers.len() as u64);
    assert_eq!(metrics.exact_full_scans(), 0);
    answers
}

/// A recovered session resumes its store at the checkpoint/WAL epoch; its
/// index must resume at the same epoch, so exact reads prune right away —
/// and still answer exactly like a full scan. Single engine and two shards.
#[test]
fn recovered_index_resumes_the_snapshot_epoch_and_prunes_exactly() {
    let (graph, model, store, updates) = bootstrap(23);
    let fail = FailPoints::new();

    let dir = scratch_dir("recovered-index");
    let config = durable_config(&dir, 3, &fail);
    let handle = spawn_serve(engine(&graph, &model, &store), config.clone()).unwrap();
    let client = handle.client();
    for chunk in updates.chunks(6) {
        for update in chunk {
            client.submit(update.clone());
        }
        handle.flush().unwrap();
    }
    handle.shutdown().unwrap();
    let handle = spawn_serve(engine(&graph, &model, &store), config).unwrap();
    let resumed = handle.recovery_report().unwrap().resumed_epoch;
    let answers = exact_reads_after_recovery(&handle, vec![resumed]);
    let recovered = handle.shutdown().unwrap();
    for (query, k, got) in answers {
        assert_eq!(
            got,
            full_scan(recovered.store(), &query, k),
            "{query:?}, k = {k}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch_dir("recovered-index-sharded");
    let config = durable_config(&dir, 3, &fail);
    let handle = spawn_sharded(
        &graph,
        &model,
        &store,
        RippleConfig::default(),
        config.clone(),
        2,
    )
    .unwrap();
    let router = handle.client();
    for chunk in updates.chunks(6) {
        for update in chunk {
            router.submit(update.clone());
        }
        handle.flush().expect("healthy tier");
    }
    handle.shutdown().unwrap();
    let handle = spawn_sharded(&graph, &model, &store, RippleConfig::default(), config, 2).unwrap();
    let resumed = handle
        .recovery_reports()
        .iter()
        .map(|r| r.resumed_epoch)
        .collect();
    let answers = exact_reads_after_recovery(&handle, resumed);
    let recovered = handle.shutdown().unwrap().gather_store();
    for (query, k, got) in answers {
        assert_eq!(got, full_scan(&recovered, &query, k), "{query:?}, k = {k}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
