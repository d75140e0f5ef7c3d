//! Bit-level golden digests of the propagation engines.
//!
//! Every workload at 1 and 3 layers streams the same fixed-seed update plan
//! through a 1-thread [`RippleEngine`], a 4-thread one, a pair of
//! [`ShardEngine`]s fed on the sharded tier's schedule (each window carries
//! a batch share plus the halos received since the last one) and pumped to
//! quiescence after the last batch, and a [`DistRippleEngine`] on three LDG
//! partitions. Each run is reduced to one FNV-1a-64 digest over the
//! `to_bits()` of every embedding and aggregate row plus the summed
//! counters ([`BatchStats`] for the local and shard engines; the
//! communication ledger, supersteps and final-hop coverage for the BSP
//! engine), and compared against the committed constants below.
//!
//! The constants pin float accumulation order: a refactor of the hop loop
//! that reorders mailbox deposits, or a change to which vertices a hop
//! touches, moves a digest even when every result stays within tolerance of
//! full re-inference. The thread count must never move one.

use ripple::core::{DeltaMessage, ShardEngine};
use ripple::graph::PartitionId;
use ripple::prelude::*;
use std::sync::Arc;

/// `(workload, layers, RippleEngine digest, two-shard digest)`, for every
/// workload at 1 and 3 layers.
const GOLDEN: [(Workload, usize, u64, u64); 10] = [
    (Workload::GcS, 1, 0x6484b99c4cfaa3fc, 0xf3375427be64e013),
    (Workload::GcS, 3, 0x5713083fa43b0707, 0x526fd36f088b4143),
    (Workload::GsS, 1, 0x7b77f8cfa658ae65, 0x7aa1247aaa8c30aa),
    (Workload::GsS, 3, 0x0d3f8e101eb0f0b5, 0x521888bafcd5d979),
    (Workload::GcM, 1, 0x0fbf2edc9a870d47, 0xc98eac9db12ff81f),
    (Workload::GcM, 3, 0xff4424fbf5a0825d, 0x7e52d892383ded43),
    (Workload::GiS, 1, 0xc33fb52358e60f57, 0x348353a5c6f8d1be),
    (Workload::GiS, 3, 0x1949508183d26915, 0x08193655cafa3a3e),
    (Workload::GcW, 1, 0x38286d56c536af96, 0x9c7acd94c3a3e13d),
    (Workload::GcW, 3, 0x93252003d23cf273, 0x30f4afde25f3d0c2),
];

/// `(workload, layers, three-worker BSP digest)`, for every workload at 1
/// and 3 layers.
const BSP_GOLDEN: [(Workload, usize, u64); 10] = [
    (Workload::GcS, 1, 0x5c1bfa3da6bcc884),
    (Workload::GcS, 3, 0x7e74be6d8235872e),
    (Workload::GsS, 1, 0x172a9f382acd7639),
    (Workload::GsS, 3, 0xc48f24cf4bdd2a69),
    (Workload::GcM, 1, 0xa6a30a29b3b6a8b7),
    (Workload::GcM, 3, 0x59b48c44cd982769),
    (Workload::GiS, 1, 0xffb4c80e9d56f91f),
    (Workload::GiS, 3, 0xacb21b5334272ed8),
    (Workload::GcW, 1, 0xedb4f4e49f02abba),
    (Workload::GcW, 3, 0xa7690501c8671ecd),
];

const SEED: u64 = 0x5eed;

/// FNV-1a-64 over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f32]) {
        for value in values {
            self.word(u64::from(value.to_bits()));
        }
    }
}

/// The counters every engine reports per batch, summed over a run.
#[derive(Default)]
struct Counters {
    affected_per_hop: Vec<usize>,
    propagation_tree_size: usize,
    aggregate_ops: usize,
}

impl Counters {
    fn add(&mut self, stats: &BatchStats) {
        if self.affected_per_hop.len() < stats.affected_per_hop.len() {
            self.affected_per_hop
                .resize(stats.affected_per_hop.len(), 0);
        }
        for (sum, &n) in self
            .affected_per_hop
            .iter_mut()
            .zip(&stats.affected_per_hop)
        {
            *sum += n;
        }
        self.propagation_tree_size += stats.propagation_tree_size;
        self.aggregate_ops += stats.aggregate_ops;
    }
}

fn digest(store: &EmbeddingStore, counters: &Counters) -> u64 {
    let mut h = store_hash(store);
    for &n in &counters.affected_per_hop {
        h.word(n as u64);
    }
    h.word(counters.propagation_tree_size as u64);
    h.word(counters.aggregate_ops as u64);
    h.0
}

/// FNV-1a-64 over every embedding and aggregate row of `store`.
fn store_hash(store: &EmbeddingStore) -> Fnv {
    let mut h = Fnv::new();
    for v in 0..store.num_vertices() as u32 {
        let v = VertexId(v);
        for l in 0..=store.num_layers() {
            h.floats(store.embedding(l, v));
        }
        for l in 1..=store.num_layers() {
            h.floats(store.aggregate(l, v));
        }
    }
    h
}

fn bootstrap(
    workload: Workload,
    layers: usize,
) -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<UpdateBatch>) {
    let full = DatasetSpec::custom(150, 5.0, 6, 4)
        .generate_weighted(SEED, workload.needs_edge_weights())
        .unwrap();
    let plan = build_stream(
        &full,
        &StreamConfig {
            total_updates: 90,
            seed: SEED ^ 1,
            ..Default::default()
        },
    )
    .unwrap();
    let model = workload.build_model(6, 8, 4, layers, SEED ^ 2).unwrap();
    let store = full_inference(&plan.snapshot, &model).unwrap();
    let batches = plan.batches(15);
    (plan.snapshot, model, store, batches)
}

fn ripple_digest(workload: Workload, layers: usize, threads: usize) -> u64 {
    let (graph, model, store, batches) = bootstrap(workload, layers);
    let mut engine = RippleEngine::new(graph, model, store, RippleConfig::default())
        .unwrap()
        .with_threads(threads);
    let mut counters = Counters::default();
    for batch in &batches {
        counters.add(&engine.process_batch(batch).unwrap());
    }
    digest(engine.store(), &counters)
}

/// Splits a batch the way the sharded router does, by
/// [`Partitioning::update_owners`].
fn split_batch(batch: &UpdateBatch, partitioning: &Partitioning) -> Vec<Vec<GraphUpdate>> {
    let mut per_shard = vec![Vec::new(); partitioning.num_parts()];
    for update in batch {
        let (first, second) = partitioning.update_owners(update);
        for part in std::iter::once(first).chain(second) {
            per_shard[part.index()].push(update.clone());
        }
    }
    per_shard
}

/// Runs one window on every shard that has updates or halos to apply: its
/// share of a batch plus the halos its peers sent since its last window,
/// the schedule of the sharded serving tier. Leaves the halos this round
/// produced in `pending`.
fn run_window(
    shards: &mut [ShardEngine],
    per_shard: Vec<Vec<GraphUpdate>>,
    pending: &mut Vec<Vec<DeltaMessage>>,
    counters: &mut Counters,
) {
    let mut next: Vec<Vec<DeltaMessage>> = vec![Vec::new(); shards.len()];
    let inputs = per_shard.into_iter().zip(std::mem::take(pending));
    for (shard, (updates, halos)) in shards.iter_mut().zip(inputs) {
        if updates.is_empty() && halos.is_empty() {
            continue;
        }
        let window = UpdateBatch::from_updates(updates);
        let (stats, out) = shard.process_window(&window, &halos).unwrap();
        counters.add(&stats);
        for (p, m) in out {
            next[p.index()].push(m);
        }
    }
    *pending = next;
}

fn shard_digest(workload: Workload, layers: usize) -> u64 {
    let (graph, model, store, batches) = bootstrap(workload, layers);
    let partitioning = Arc::new(HashPartitioner.partition(&graph, 2).unwrap());
    let mut shards: Vec<ShardEngine> = (0..2)
        .map(|p| {
            ShardEngine::new(
                &graph,
                model.clone(),
                store.clone(),
                RippleConfig::default(),
                Arc::clone(&partitioning),
                PartitionId(p),
            )
            .unwrap()
        })
        .collect();
    let mut counters = Counters::default();
    let mut pending = vec![Vec::new(); shards.len()];
    for batch in &batches {
        let per_shard = split_batch(batch, &partitioning);
        run_window(&mut shards, per_shard, &mut pending, &mut counters);
    }
    // Quiesce: halo-only windows until no shard has anything left to send.
    while pending.iter().any(|halos| !halos.is_empty()) {
        let per_shard = vec![Vec::new(); shards.len()];
        run_window(&mut shards, per_shard, &mut pending, &mut counters);
    }
    let mut gathered = shards[0].store().clone();
    assert!(shards[1].gather_into(&mut gathered));
    digest(&gathered, &counters)
}

/// Streams the plan through a BSP engine on three LDG partitions and
/// digests the gathered store plus the summed communication ledger,
/// supersteps and final-hop coverage.
fn dist_digest(workload: Workload, layers: usize, threads: usize) -> u64 {
    let (graph, model, store, batches) = bootstrap(workload, layers);
    let partitioning = LdgPartitioner::new().partition(&graph, 3).unwrap();
    let mut engine =
        DistRippleEngine::new(&graph, model, &store, partitioning, NetworkModel::ten_gbe())
            .unwrap()
            .with_threads(threads);
    let (mut messages, mut bytes, mut halo_bytes) = (0, 0, 0);
    let (mut supersteps, mut affected_final) = (0, 0);
    for batch in &batches {
        let stats = engine.process_batch(batch).unwrap();
        messages += stats.comm.messages;
        bytes += stats.comm.bytes;
        halo_bytes += stats.comm.halo_bytes;
        supersteps += stats.supersteps;
        affected_final += stats.affected_final;
    }
    let mut h = store_hash(&engine.gather_store());
    for n in [messages, bytes, halo_bytes, supersteps, affected_final] {
        h.word(n as u64);
    }
    h.0
}

#[test]
fn ripple_engine_digests_are_pinned() {
    for (workload, layers, expected, _) in GOLDEN {
        let got = ripple_digest(workload, layers, 1);
        assert_eq!(got, expected, "{workload} at {layers} layers: {got:#018x}");
    }
}

#[test]
fn four_threads_reproduce_the_one_thread_digests() {
    for (workload, layers, expected, _) in GOLDEN {
        let got = ripple_digest(workload, layers, 4);
        assert_eq!(got, expected, "{workload} at {layers} layers: {got:#018x}");
    }
}

#[test]
fn shard_engine_digests_are_pinned() {
    for (workload, layers, _, expected) in GOLDEN {
        let got = shard_digest(workload, layers);
        assert_eq!(got, expected, "{workload} at {layers} layers: {got:#018x}");
    }
}

#[test]
fn dist_engine_digests_are_pinned() {
    for (workload, layers, expected) in BSP_GOLDEN {
        let got = dist_digest(workload, layers, 1);
        assert_eq!(got, expected, "{workload} at {layers} layers: {got:#018x}");
    }
}

#[test]
fn four_thread_dist_engine_reproduces_the_one_thread_digests() {
    for (workload, layers, expected) in BSP_GOLDEN {
        let got = dist_digest(workload, layers, 4);
        assert_eq!(got, expected, "{workload} at {layers} layers: {got:#018x}");
    }
}
