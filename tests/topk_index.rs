//! Property tests for the epoch-repaired IVF top-k index.
//!
//! Two obligations from the serving contract:
//!
//! 1. **Recall oracle** — the approximate read mode is a *recall* trade-off,
//!    never a correctness one. Probing every cluster must reproduce the
//!    exact scan bit for bit (same vertices, same order, same score bits),
//!    and a reduced probe must stay above a recall@10 floor while every
//!    score it does return is bit-identical to the exact oracle's score for
//!    that vertex (both modes read the same published snapshot).
//! 2. **Repair determinism** — after any number of epochs of incremental
//!    dirty-row repair (plus whatever lazy splits/merges fired along the
//!    way), the index must land on exactly the state a from-scratch
//!    reassignment of the final store under the same centroids produces.
//!    Repair is an optimisation of rebuild, not an approximation of it.

use proptest::prelude::*;
use ripple::prelude::*;
use ripple::serve::index::IndexMaintainer;
use ripple::serve::{ServeConfig, ServeHandle};
use std::time::{Duration, Instant};

/// Builds a random but valid update stream against `graph`: intents that are
/// invalid in the current state (duplicate additions, deletions of missing
/// edges) are skipped, so any generated intent list yields an applicable
/// stream. Vertices are never added, so the served id space stays fixed.
fn realise_updates(graph: &DynamicGraph, intents: &[(u8, u32, u32, Vec<f32>)]) -> Vec<GraphUpdate> {
    let n = graph.num_vertices() as u32;
    let mut shadow = graph.clone();
    let mut updates = Vec::new();
    for (kind, a, b, feats) in intents {
        let (src, dst) = (VertexId(a % n), VertexId(b % n));
        match kind % 3 {
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

/// Spawns a serving tier over a GC-S engine bootstrapped on `graph`, submits
/// `updates` and waits until every one of them is visible to readers.
fn serve_drained(
    graph: DynamicGraph,
    updates: Vec<GraphUpdate>,
    seed: u64,
) -> ServeHandle<RippleEngine> {
    let model = Workload::GcS
        .build_model(6, 8, 4, 2, seed ^ 0xf1de)
        .unwrap();
    let store = full_inference(&graph, &model).unwrap();
    let engine = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
    let handle =
        ripple::serve::spawn(engine, ServeConfig::builder().max_batch(8).build().unwrap()).unwrap();
    let client = handle.client();
    let metrics = handle.metrics();
    for update in updates {
        assert!(matches!(client.submit(update), Submission::Enqueued { .. }));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while metrics.applied() < metrics.enqueued() {
        handle.flush();
        assert!(Instant::now() < deadline, "scheduler failed to drain");
        std::thread::sleep(Duration::from_micros(200));
    }
    handle
}

/// Recall@10 of `approx` against the exact top-10 `exact`: the share of
/// approximate hits scoring at least the exact top-10's lowest score.
fn recall_at_10(approx: &[(VertexId, f32)], exact: &[(VertexId, f32)]) -> f64 {
    let floor = exact[exact.len() - 1].1;
    let hits = approx.iter().filter(|(_, s)| *s >= floor).count();
    hits as f64 / exact.len() as f64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Full-probe approx ≡ exact, and reduced-probe approx keeps
    /// recall@10 ≥ 0.9 with bit-identical scores, across random graphs,
    /// update streams and probe vectors — all through the serving API.
    #[test]
    fn approx_read_mode_tracks_the_exact_oracle(
        seed in 0u64..500,
        intents in prop::collection::vec(
            (0u8..3, 0u32..160, 0u32..160, prop::collection::vec(-1.0f32..1.0, 6)),
            1..40,
        ),
        probes in prop::collection::vec(
            prop::collection::vec(-1.0f32..1.0, 4),
            1..4,
        ),
    ) {
        let graph = DatasetSpec::custom(160, 4.0, 6, 4).generate(seed).unwrap();
        let updates = realise_updates(&graph, &intents);
        prop_assume!(!updates.is_empty());
        let num_vertices = graph.num_vertices();
        let handle = serve_drained(graph, updates, seed);

        let clusters = IndexParams::default().effective_clusters(num_vertices);
        let reduced_nprobe = (clusters * 3 / 4).max(4);
        let mut queries = handle.query_service();
        for probe in probes {
            // Skip near-degenerate probes: an all-zero query makes every
            // dot product tie at 0.0 and recall against an id-tie-broken
            // top-10 becomes meaningless.
            prop_assume!(probe.iter().any(|c| c.abs() >= 0.25));

            // The exact oracle: every vertex, ranked (score desc, id asc).
            let oracle = queries
                .top_k(&TopKRequest::new(probe.clone(), num_vertices))
                .unwrap();
            prop_assert_eq!(oracle.value.len(), num_vertices);

            // Probing every cluster reproduces the exact scan bit for bit.
            let exact = queries.top_k(&TopKRequest::new(probe.clone(), 10)).unwrap();
            let full_probe = queries
                .top_k(&TopKRequest::new(probe.clone(), 10).approx(usize::MAX))
                .unwrap();
            prop_assert_eq!(&exact.value, &full_probe.value);

            // A reduced probe trades recall, never score fidelity.
            let approx = queries
                .top_k(&TopKRequest::new(probe.clone(), 10).approx(reduced_nprobe))
                .unwrap();
            for &(v, score) in &approx.value {
                let oracle_score = oracle
                    .value
                    .iter()
                    .find(|(ov, _)| *ov == v)
                    .map(|(_, s)| *s)
                    .unwrap();
                prop_assert_eq!(
                    score.to_bits(),
                    oracle_score.to_bits(),
                    "approx score for {} diverged from the snapshot dot product",
                    v
                );
            }
            let recall = recall_at_10(&approx.value, &exact.value);
            prop_assert!(
                recall >= 0.9,
                "recall@10 {recall:.2} below floor at nprobe {reduced_nprobe}/{clusters}"
            );
        }
        handle.shutdown().unwrap();
    }

    /// Recall@10 never falls as the probe widens from one cluster through a
    /// reduced probe to every cluster, where it reaches 1.0: a wider probe's
    /// candidates are a superset of a narrower one's, read from the same
    /// published snapshot.
    #[test]
    fn recall_never_falls_as_the_probe_widens(
        seed in 0u64..500,
        intents in prop::collection::vec(
            (0u8..3, 0u32..160, 0u32..160, prop::collection::vec(-1.0f32..1.0, 6)),
            1..40,
        ),
        probe in prop::collection::vec(-1.0f32..1.0, 4),
    ) {
        // Skip near-degenerate probes, as above.
        prop_assume!(probe.iter().any(|c| c.abs() >= 0.25));
        let graph = DatasetSpec::custom(160, 4.0, 6, 4).generate(seed).unwrap();
        let updates = realise_updates(&graph, &intents);
        prop_assume!(!updates.is_empty());
        let num_vertices = graph.num_vertices();
        let handle = serve_drained(graph, updates, seed);

        let clusters = IndexParams::default().effective_clusters(num_vertices);
        let mut queries = handle.query_service();
        let exact = queries.top_k(&TopKRequest::new(probe.clone(), 10)).unwrap();
        let mut previous = 0.0;
        for nprobe in [1, (clusters * 3 / 4).max(4), usize::MAX] {
            let approx = queries
                .top_k(&TopKRequest::new(probe.clone(), 10).approx(nprobe))
                .unwrap();
            let recall = recall_at_10(&approx.value, &exact.value);
            prop_assert!(
                recall >= previous,
                "recall@10 fell from {previous:.2} to {recall:.2} at nprobe {nprobe}/{clusters}"
            );
            previous = recall;
        }
        prop_assert!(
            (previous - 1.0).abs() < 1e-9,
            "full probe must reach recall 1.0: {previous}"
        );
        handle.shutdown().unwrap();
    }

    /// The served index is bootstrapped once and then only repaired: every
    /// epoch a streamed update publishes repairs its dirty rows in place,
    /// and none falls back to a full rebuild.
    #[test]
    fn served_index_repairs_epochs_without_rebuilding(
        seed in 0u64..500,
        intents in prop::collection::vec(
            (0u8..3, 0u32..160, 0u32..160, prop::collection::vec(-1.0f32..1.0, 6)),
            1..40,
        ),
    ) {
        let graph = DatasetSpec::custom(160, 4.0, 6, 4).generate(seed).unwrap();
        let updates = realise_updates(&graph, &intents);
        // A feature rewrite always dirties a row, so at least one epoch
        // repairs.
        prop_assume!(updates
            .iter()
            .any(|u| matches!(u, GraphUpdate::UpdateFeature { .. })));
        let handle = serve_drained(graph, updates, seed);

        let stats = handle.index_stats().expect("sessions index by default");
        prop_assert_eq!(stats.builds, 1);
        prop_assert_eq!(stats.rebuilds, 0);
        prop_assert!(stats.repairs > 0, "no epoch repaired the index: {:?}", stats);
        handle.shutdown().unwrap();
    }

    /// After any stream of engine batches with per-epoch dirty-row repair,
    /// the index equals a from-scratch reassignment of the final store under
    /// the same centroids — repairs and lazy splits/merges never drift.
    #[test]
    fn epoch_repair_is_deterministic_against_rebuild(
        seed in 0u64..500,
        batch_size in 1usize..6,
        intents in prop::collection::vec(
            (0u8..3, 0u32..64, 0u32..64, prop::collection::vec(-1.0f32..1.0, 6)),
            1..48,
        ),
    ) {
        let graph = DatasetSpec::custom(64, 4.0, 6, 4).generate(seed).unwrap();
        let updates = realise_updates(&graph, &intents);
        prop_assume!(!updates.is_empty());

        let model = Workload::GcS.build_model(6, 8, 4, 2, seed ^ 0x5eed).unwrap();
        let store = full_inference(&graph, &model).unwrap();
        let mut engine =
            RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
        let (mut maintainer, mut reader) =
            IndexMaintainer::bootstrap(engine.store(), None, IndexParams::default());

        let mut epochs = 0u64;
        for chunk in updates.chunks(batch_size) {
            let batch = UpdateBatch::from_updates(chunk.to_vec());
            engine.process_batch(&batch).unwrap();
            let dirty = engine.dirty_rows().to_vec();
            epochs = maintainer.publish(engine.store(), Some(&dirty));
        }

        let live = reader.index();
        prop_assert_eq!(live.epoch(), epochs);
        let oracle = live.rebuilt_with_same_centroids(engine.store(), None);
        prop_assert!(
            live.contents_eq(&oracle),
            "incremental repair drifted from the same-centroid rebuild after {} epochs",
            epochs
        );

        // Incremental maintenance means *zero* rebuilds after bootstrap.
        let stats = maintainer.stats();
        prop_assert_eq!(stats.builds, 1);
        prop_assert_eq!(stats.rebuilds, 0);
    }
}
