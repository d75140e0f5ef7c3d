//! Pruned exact top-k ≡ the full scan, ids and score bits.
//!
//! `ReadMode::Exact` visits IVF clusters in descending order of an upper
//! bound on their members' scores and stops once the k-th kept score beats
//! the next bound; when the index cannot vouch for the snapshot (a non-finite
//! bound, for one) it scans every row. Either way the answer must be the
//! full scan's: every final-layer row scored by the row kernel, ranked by
//! score (`total_cmp`, descending) then id. This suite checks that
//! definition across random stores, indexes after dirty repair, splits and
//! merges, adversarial queries (zero, huge, denormal, all-tie), every `k`
//! regime and both serving topologies.

use proptest::prelude::*;
use ripple::prelude::*;
use ripple::tensor::ops::score_rows_into;
use ripple::tensor::Matrix;

/// Final-layer width of every model here.
const WIDTH: usize = 4;

/// Ids and score bits, so `-0.0` vs `0.0` and NaN payloads compare exactly.
type Answer = Vec<(u32, u32)>;

/// The full scan, by definition: every row scored, then (score desc by
/// `total_cmp`, id asc), cut at `k`.
fn full_scan(store: &EmbeddingStore, query: &[f32], k: usize) -> Answer {
    let table = store.embeddings(store.num_layers());
    let ids: Vec<u32> = (0..table.rows() as u32).collect();
    let mut scores = vec![0.0f32; ids.len()];
    score_rows_into(table.as_slice(), table.cols(), &ids, query, &mut scores).unwrap();
    let mut ranked: Vec<(f32, u32)> = scores.into_iter().zip(ids).collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.truncate(k);
    ranked.into_iter().map(|(s, v)| (v, s.to_bits())).collect()
}

fn answer(ranked: &[(VertexId, f32)]) -> Answer {
    ranked.iter().map(|&(v, s)| (v.0, s.to_bits())).collect()
}

/// What the final layer holds before any update.
#[derive(Debug, Clone, Copy)]
enum Table {
    /// The model's own full inference.
    Model,
    /// Uniform in `[-scale, scale]`: 1, denormal, or large enough that
    /// squared distances (and scores against huge queries) overflow.
    Random(f32),
    /// Small integer coordinates: many exact score ties across clusters.
    Lattice,
    /// Every row equal: every score ties, ids alone decide.
    Equal,
}

impl Table {
    fn overflows(self) -> bool {
        matches!(self, Table::Random(scale) if scale > 1e10)
    }
}

fn bootstrap(seed: u64, n: usize, table: Table) -> (DynamicGraph, GnnModel, EmbeddingStore) {
    let graph = DatasetSpec::custom(n, 4.0, 6, 4).generate(seed).unwrap();
    let model = Workload::GcS
        .build_model(6, 8, WIDTH, 2, seed ^ 0xe4ac)
        .unwrap();
    let mut store = full_inference(&graph, &model).unwrap();
    let rows = graph.num_vertices();
    let last = store.num_layers();
    match table {
        Table::Model => {}
        Table::Random(scale) => {
            *store.embeddings_mut(last) =
                ripple::tensor::init::uniform(rows, WIDTH, -scale, scale, seed ^ 7);
        }
        Table::Lattice => {
            let lattice = ripple::tensor::init::uniform(rows, WIDTH, -2.49, 2.49, seed ^ 11);
            let table = store.embeddings_mut(last);
            for (out, x) in table.as_mut_slice().iter_mut().zip(lattice.as_slice()) {
                *out = x.round();
            }
        }
        Table::Equal => *store.embeddings_mut(last) = Matrix::filled(rows, WIDTH, 0.5),
    }
    (graph, model, store)
}

/// A random but valid update stream: invalid intents are skipped.
fn realise_updates(graph: &DynamicGraph, intents: &[(u8, u32, u32, f32)]) -> Vec<GraphUpdate> {
    let n = graph.num_vertices() as u32;
    let mut shadow = graph.clone();
    let mut updates = Vec::new();
    for &(kind, a, b, x) in intents {
        let (src, dst) = (VertexId(a % n), VertexId(b % n));
        match kind % 3 {
            0 if src != dst && !shadow.has_edge(src, dst) => {
                shadow.add_edge(src, dst, 1.0).unwrap();
                updates.push(GraphUpdate::add_edge(src, dst));
            }
            1 if shadow.has_edge(src, dst) => {
                shadow.remove_edge(src, dst).unwrap();
                updates.push(GraphUpdate::delete_edge(src, dst));
            }
            2 => updates.push(GraphUpdate::update_feature(
                src,
                vec![x; graph.feature_dim()],
            )),
            _ => {}
        }
    }
    updates
}

/// The adversarial query set around one random direction.
fn queries(direction: &[f32]) -> Vec<Vec<f32>> {
    let mut axis = vec![0.0; WIDTH];
    axis[0] = 1.0;
    let mut negative_axis = vec![0.0; WIDTH];
    negative_axis[1] = -1.0;
    vec![
        direction.to_vec(),
        vec![0.0; WIDTH],
        direction.iter().map(|x| x * 1e18).collect(),
        direction.iter().map(|x| x * 1e-39).collect(),
        vec![1e-45, 0.0, -1e-45, 3e-45],
        axis,
        negative_axis,
    ]
}

/// One exact read: its query, `k` and answer.
type Read = (Vec<f32>, usize, Answer);

/// Exact-read counters of one session: pruned reads and full scans.
type Counters = (u64, u64);

/// Drives `updates` through a session, quiesces, then answers every query
/// at every `k` of `n` rows; returns the answers, the counters and the
/// engine(s).
fn serve_and_read<E>(
    handle: ServeHandle<E>,
    updates: &[GraphUpdate],
    queries: &[Vec<f32>],
    n: usize,
) -> (Vec<Read>, Counters, E) {
    let client = handle.client();
    for update in updates {
        assert!(matches!(
            client.submit(update.clone()),
            Submission::Enqueued { .. }
        ));
    }
    handle.quiesce().unwrap();
    let mut reads = handle.query_service();
    let mut answers = Vec::new();
    for query in queries {
        for k in [1, 10, n - 1, n, n + 5] {
            let got = reads.top_k(&TopKRequest::new(query.clone(), k)).unwrap();
            answers.push((query.clone(), k, answer(&got.value)));
        }
    }
    let metrics = handle.metrics();
    let counters = (metrics.exact_pruned_reads(), metrics.exact_full_scans());
    drop(reads);
    (answers, counters, handle.shutdown().unwrap())
}

fn assert_full_scan_answers(store: &EmbeddingStore, answers: &[Read]) {
    for (query, k, got) in answers {
        assert_eq!(
            got,
            &full_scan(store, query, *k),
            "query {query:?}, k = {k}"
        );
    }
}

/// Both topologies over one scenario; returns each one's counters.
fn check_both_topologies(
    seed: u64,
    table: Table,
    params: IndexParams,
    intents: &[(u8, u32, u32, f32)],
    direction: &[f32],
) -> [Counters; 2] {
    let n = 160;
    let (graph, model, store) = bootstrap(seed, n, table);
    let updates = realise_updates(&graph, intents);
    let queries = queries(direction);
    let config = ServeConfig::builder()
        .max_batch(8)
        .index(params)
        .build()
        .unwrap();

    let engine = RippleEngine::new(
        graph.clone(),
        model.clone(),
        store.clone(),
        RippleConfig::default(),
    )
    .unwrap();
    let handle = spawn_serve(engine, config.clone()).unwrap();
    let (answers, single, engine) = serve_and_read(handle, &updates, &queries, n);
    assert_full_scan_answers(engine.store(), &answers);

    let handle = spawn_sharded(&graph, &model, &store, RippleConfig::default(), config, 2).unwrap();
    let (answers, sharded, engines) = serve_and_read(handle, &updates, &queries, n);
    assert_full_scan_answers(&engines.gather_store(), &answers);
    [single, sharded]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn pruned_exact_reads_equal_the_full_scan(
        seed in 0u64..500,
        table in 0usize..6,
        split in 0usize..3,
        clusters in 0usize..3,
        intents in prop::collection::vec((0u8..3, 0u32..160, 0u32..160, -1.0f32..1.0), 0..40),
        direction in prop::collection::vec(-1.0f32..1.0, WIDTH),
    ) {
        let table = [
            Table::Model,
            Table::Random(1.0),
            Table::Random(1e-39),
            Table::Random(1e21),
            Table::Lattice,
            Table::Equal,
        ][table];
        let params = IndexParams {
            clusters: [0, 3, 8][clusters],
            split_factor: [1.2, 2.0, 4.0][split],
            ..IndexParams::default()
        };
        for (pruned, full) in check_both_topologies(seed, table, params, &intents, &direction) {
            prop_assert_eq!(pruned + full, 7 * 5, "every exact read is counted once");
            if table.overflows() {
                // Squared distances overflow: every radius is +inf.
                prop_assert_eq!(pruned, 0);
            } else {
                prop_assert_eq!(full, 0, "a paired index with finite bounds prunes");
            }
        }
    }
}

/// Well-separated blobs and a long churn stream under an eager split
/// factor: the index goes through dirty repair, splits and merges, reads
/// stay equal to the full scan, and a `k = 1` read scores only a fraction
/// of the rows.
#[test]
fn repaired_split_and_merged_indexes_prune_and_stay_exact() {
    let n = 160;
    let seed = 5;
    let (graph, model, mut store) = bootstrap(seed, n, Table::Model);
    let last = store.num_layers();
    let table = store.embeddings_mut(last);
    for v in 0..n {
        let blob = (v % 8) as f32;
        let row = table.row_mut(v);
        row.copy_from_slice(&[blob * 10.0, -blob * 3.0, (v % 5) as f32 * 0.1, 1.0]);
    }
    let intents: Vec<(u8, u32, u32, f32)> = (0..120u32)
        .map(|i| {
            (
                (i % 3) as u8,
                i * 7 % 160,
                i * 13 % 160,
                (i % 9) as f32 * 0.2 - 0.8,
            )
        })
        .collect();
    let updates = realise_updates(&graph, &intents);
    let params = IndexParams {
        clusters: 6,
        split_factor: 1.3,
        ..IndexParams::default()
    };
    let config = ServeConfig::builder()
        .max_batch(4)
        .index(params)
        .build()
        .unwrap();
    let engine = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
    let handle = spawn_serve(engine, config).unwrap();
    let client = handle.client();
    for update in updates {
        client.submit(update);
    }
    handle.flush().expect("healthy session");
    let stats = handle.index_stats().unwrap();
    assert!(
        stats.repairs > 0 && stats.splits > 0 && stats.merges > 0,
        "{stats:?}"
    );

    let metrics = handle.metrics();
    let mut reads = handle.query_service();
    let probes = [
        [1.0, 0.0, 0.0, 0.0],
        [-1.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0],
    ];
    let mut answers = Vec::new();
    for probe in probes {
        let before = metrics.exact_rows_scored();
        let got = reads.top_k(&TopKRequest::new(probe.to_vec(), 1)).unwrap();
        if probe[0] != 0.0 {
            assert!(
                metrics.exact_rows_scored() - before < n as u64,
                "a k = 1 read along the blob axis must prune"
            );
        }
        answers.push((probe.to_vec(), 1, answer(&got.value)));
        for k in [10, n] {
            let got = reads.top_k(&TopKRequest::new(probe.to_vec(), k)).unwrap();
            answers.push((probe.to_vec(), k, answer(&got.value)));
        }
    }
    assert_eq!(metrics.exact_full_scans(), 0);
    drop(reads);
    let engine = handle.shutdown().unwrap();
    assert_full_scan_answers(engine.store(), &answers);
}
