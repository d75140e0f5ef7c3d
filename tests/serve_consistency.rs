//! Snapshot-consistency property tests for the serving subsystem.
//!
//! The serving contract under test (the "linearizable epoch" property): a
//! reader hammering [`ripple::serve::QueryService`] while a randomized
//! update stream flows through the scheduler must only ever observe
//! embeddings **bit-identical to some serial-engine prefix of the stream**
//! of flushed windows — never a torn or half-propagated state — and every
//! response must be stamped with the epoch of exactly that prefix.
//!
//! The scheduler records each flushed window (`record_batches`); after the
//! run, a serial [`RippleEngine`] replays the recorded windows one by one,
//! cloning the store after each, which yields the ground-truth store for
//! every epoch. Every observation any reader made is then checked against
//! the store of its stamped epoch, bit for bit.
//!
//! Readers may also issue top-k reads, exact or approximate: every hit's
//! score must be the dot product of that vertex's row in the stamped epoch's
//! store (its owner's, on the sharded tier), bit for bit. Each reader's
//! stamps never go backwards (per shard, on the sharded tier).
//!
//! The sharded tier upholds the same property **per shard**: point reads
//! carry the owning shard and that shard's scalar epoch, and the observed
//! embedding must be bit-identical to a serial [`ShardEngine`] replay of
//! that shard's flush-window prefix (coalesced batches *plus* the halo
//! deltas received from peers — both are recorded per window).

use ripple::core::ShardEngine;
use ripple::prelude::*;
use ripple::serve::{PartitionId, ServeConfig};
use ripple::tensor::vector::dot;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One reader observation: the stamp and what it was served.
struct Observation {
    epoch: u64,
    applied_seq: u64,
    read: Read,
}

/// What a single-engine reader was served.
enum Read {
    /// A point read: the embedding bytes of `vertex`.
    Point {
        vertex: VertexId,
        embedding: Vec<f32>,
    },
    /// A top-k read of the reader's fixed query.
    TopK(Vec<(VertexId, f32)>),
}

/// A sharded reader observation.
enum ShardObservation {
    /// A point read: the shard stamp picks the replay sequence the epoch
    /// indexes into.
    Point {
        shard: PartitionId,
        epoch: u64,
        applied_seq: u64,
        vertex: VertexId,
        embedding: Vec<f32>,
    },
    /// A whole-graph exact top-k read of the reader's fixed query, stamped
    /// with every shard's epoch.
    TopK {
        epoch: u64,
        epochs: Vec<u64>,
        applied_seq: u64,
        hits: Vec<(VertexId, f32)>,
    },
}

/// The fixed top-k query of reader `r` over `dim`-wide embeddings.
fn reader_query(r: usize, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|d| if (d + r).is_multiple_of(2) { 1.0 } else { -0.5 })
        .collect()
}

fn bootstrap(seed: u64) -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<GraphUpdate>) {
    let full = DatasetSpec::custom(150, 5.0, 6, 4).generate(seed).unwrap();
    let plan = build_stream(
        &full,
        &StreamConfig {
            total_updates: 60,
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

/// Runs one serving session with `reader_threads` concurrent readers and
/// verifies every observation against the serial-engine prefix states. With
/// `top_k`, every eighth read, starting with the first, is a top-k read in
/// that mode.
fn linearizable_epoch_scenario(reader_threads: usize, seed: u64, top_k: Option<ReadMode>) {
    let (graph, model, store, updates) = bootstrap(seed);
    let engine = RippleEngine::new(
        graph.clone(),
        model.clone(),
        store.clone(),
        RippleConfig::default(),
    )
    .unwrap();
    let handle = ripple::serve::spawn(
        engine,
        ServeConfig::builder()
            .max_batch(5)
            .max_delay(Duration::from_millis(1))
            .record_batches(true)
            .build()
            .unwrap(),
    )
    .unwrap();
    let metrics = handle.metrics();
    let stop = Arc::new(AtomicBool::new(false));
    // The newest epoch any reader has observed.
    let seen = Arc::new(AtomicU64::new(0));

    // Readers: hammer point-embedding reads against rotating vertices, with
    // every eighth read (starting with the first) a top-k of the reader's
    // own query when `top_k` is set, recording the stamp and what was served.
    let num_vertices = graph.num_vertices() as u32;
    let dim = store.embedding(store.num_layers(), VertexId(0)).len();
    let readers: Vec<_> = (0..reader_threads)
        .map(|r| {
            let mut queries = handle.query_service();
            let stop = Arc::clone(&stop);
            let seen = Arc::clone(&seen);
            let request = top_k.map(|mode| {
                let mut request = TopKRequest::new(reader_query(r, dim), 5);
                request.mode = mode;
                request
            });
            std::thread::spawn(move || {
                let mut observations: Vec<Observation> = Vec::new();
                let mut v = (r as u32 * 17) % num_vertices;
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    reads += 1;
                    let observation =
                        if let Some(request) = request.as_ref().filter(|_| reads % 8 == 1) {
                            let stamped = queries.top_k(request).expect("valid request");
                            Observation {
                                epoch: stamped.epoch,
                                applied_seq: stamped.applied_seq,
                                read: Read::TopK(stamped.value),
                            }
                        } else {
                            let vertex = VertexId(v);
                            v = (v + 13) % num_vertices;
                            let stamped = queries.read_embedding(vertex).expect("vertex in range");
                            Observation {
                                epoch: stamped.epoch,
                                applied_seq: stamped.applied_seq,
                                read: Read::Point {
                                    vertex,
                                    embedding: stamped.value,
                                },
                            }
                        };
                    seen.fetch_max(observation.epoch, Ordering::Relaxed);
                    // Past the cap, keep only reads of a newer epoch, so a
                    // reader that fills it early still records what the
                    // stream later showed it.
                    if observations.len() < 50_000
                        || observations
                            .last()
                            .is_some_and(|last| last.epoch != observation.epoch)
                    {
                        observations.push(observation);
                    }
                }
                observations
            })
        })
        .collect();

    // Writer: stream the updates in small pulses so many windows flush
    // while the readers run. On a loaded host the scheduler or the readers
    // can go unscheduled for the whole stream, so each pulse gets a bounded
    // chance to be published and then read before the next one starts.
    let client = handle.client();
    let offered = updates.len() as u64;
    let mut submitted = 0u64;
    for chunk in updates.chunks(5) {
        for update in chunk {
            assert!(matches!(
                client.submit(update.clone()),
                Submission::Enqueued { .. }
            ));
        }
        submitted += chunk.len() as u64;
        std::thread::sleep(Duration::from_micros(300));
        let catch_up = Instant::now() + Duration::from_millis(50);
        while (metrics.applied() < submitted || seen.load(Ordering::Relaxed) < metrics.epochs())
            && Instant::now() < catch_up
        {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    handle.flush().expect("scheduler alive");
    let deadline = Instant::now() + Duration::from_secs(60);
    while metrics.applied() < offered {
        assert!(
            Instant::now() < deadline,
            "seed {seed}: scheduler failed to drain in 60 s: {} of {offered} updates applied, \
             {} epochs published, readers saw up to epoch {} over {} reads",
            metrics.applied(),
            metrics.epochs(),
            seen.load(Ordering::Relaxed),
            metrics.reads()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    let observations: Vec<Vec<Observation>> = readers
        .into_iter()
        .map(|t| t.join().expect("reader panicked"))
        .collect();

    let log = handle.flush_log().expect("recording enabled");
    let served = handle.shutdown().expect("session failed");
    let records = log.snapshot();

    // Ground truth: replay the recorded windows through a fresh serial
    // engine, cloning the store after each — states[e] is the exact store
    // of epoch e.
    let mut reference = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
    let mut states: Vec<EmbeddingStore> = vec![reference.store().clone()];
    for (i, record) in records.iter().enumerate() {
        assert_eq!(record.epoch, i as u64 + 1, "epochs are dense and ordered");
        if !record.batch.is_empty() {
            reference.process_batch(&record.batch).unwrap();
        }
        states.push(reference.store().clone());
    }
    let raw_total: u64 = records.iter().map(|r| r.raw).sum();
    assert_eq!(raw_total, offered, "every accepted update is covered");
    assert!(
        served.store() == reference.store(),
        "served engine must end bit-identical to the replayed windows"
    );

    // The property: every observation matches the state of its epoch,
    // bit for bit, and carries that epoch's applied_seq stamp; a top-k
    // hit's score is the dot product of its row in that state. Each reader
    // sees epochs in order.
    let num_layers = states[0].num_layers();
    let mut checked = 0u64;
    let mut epochs_seen: Vec<u64> = Vec::new();
    for (r, reader) in observations.iter().enumerate() {
        assert!(
            reader.windows(2).all(|w| w[0].epoch <= w[1].epoch),
            "reader {r} observed an epoch go backwards"
        );
        let query = reader_query(r, dim);
        for obs in reader {
            let state = states.get(obs.epoch as usize).unwrap_or_else(|| {
                panic!(
                    "observed epoch {} beyond {} published",
                    obs.epoch,
                    records.len()
                )
            });
            match &obs.read {
                Read::Point { vertex, embedding } => assert_eq!(
                    embedding.as_slice(),
                    state.embedding(num_layers, *vertex),
                    "epoch {} vertex {}: observed embedding is not the serial prefix state",
                    obs.epoch,
                    vertex
                ),
                Read::TopK(hits) => {
                    assert!(!hits.is_empty(), "epoch {}: empty top-k", obs.epoch);
                    for &(vertex, score) in hits {
                        let expected = dot(state.embedding(num_layers, vertex), &query);
                        assert_eq!(
                            score.to_bits(),
                            expected.to_bits(),
                            "epoch {} vertex {}: top-k score is not the serial prefix state's",
                            obs.epoch,
                            vertex
                        );
                    }
                }
            }
            let expected_applied = if obs.epoch == 0 {
                0
            } else {
                records[obs.epoch as usize - 1].applied_seq
            };
            assert_eq!(obs.applied_seq, expected_applied, "epoch {}", obs.epoch);
            epochs_seen.push(obs.epoch);
            checked += 1;
        }
    }
    assert!(checked > 0, "readers must have observed something");
    epochs_seen.sort_unstable();
    epochs_seen.dedup();
    assert!(
        !records.is_empty() && metrics.epochs() as usize == records.len(),
        "every flush published exactly one epoch"
    );
    // Across the run readers should have caught the stream in flight (more
    // than one distinct epoch observed).
    assert!(
        epochs_seen.len() >= 2,
        "seed {seed}: readers only saw epochs {epochs_seen:?} of {} published over {checked} \
         observations (per reader: {:?}) — no concurrency exercised",
        records.len(),
        observations.iter().map(Vec::len).collect::<Vec<_>>()
    );
}

#[test]
fn readers_observe_only_serial_prefix_states_2_threads() {
    linearizable_epoch_scenario(2, 101, None);
}

#[test]
fn readers_observe_only_serial_prefix_states_4_threads() {
    linearizable_epoch_scenario(4, 103, None);
}

#[test]
fn readers_observe_only_serial_prefix_states_8_threads() {
    linearizable_epoch_scenario(8, 107, None);
}

#[test]
fn readers_observe_only_serial_prefix_states_with_exact_top_k() {
    linearizable_epoch_scenario(2, 109, Some(ReadMode::Exact));
}

#[test]
fn readers_observe_only_serial_prefix_states_with_approx_top_k() {
    linearizable_epoch_scenario(2, 113, Some(ReadMode::Approx { nprobe: 2 }));
}

/// The serving path must agree (within float tolerance — window boundaries
/// permute float accumulation order) with the raw stream replayed
/// update-by-update through a serial engine, coalescing included.
#[test]
fn served_endstate_matches_raw_stream_replay() {
    let (graph, model, store, updates) = bootstrap(211);
    let engine = RippleEngine::new(
        graph.clone(),
        model.clone(),
        store.clone(),
        RippleConfig::default(),
    )
    .unwrap();
    let handle =
        ripple::serve::spawn(engine, ServeConfig::builder().max_batch(7).build().unwrap()).unwrap();
    let client = handle.client();
    let (accepted, _) = client.submit_all(updates.clone());
    assert_eq!(accepted, updates.len());
    handle.flush().expect("alive");
    let served = handle.shutdown().expect("session failed");

    let mut reference = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
    for update in updates {
        reference
            .process_batch(&UpdateBatch::from_updates(vec![update]))
            .unwrap();
    }
    let diff = served
        .store()
        .max_diff_all_layers(reference.store())
        .unwrap();
    assert!(
        diff < 2e-3,
        "served endstate drifted from raw replay: {diff}"
    );
    assert_eq!(served.graph().num_edges(), reference.graph().num_edges());
}

/// Runs one sharded serving session and verifies every observation against
/// per-shard [`ShardEngine`] replays of the recorded flush windows.
///
/// The linearizable-epoch property, per shard: a point read stamped
/// `(shard, epoch)` must be bit-identical to replaying that shard's first
/// `epoch` recorded windows — each the coalesced owned batch plus the halo
/// deltas received from peers — through a fresh shard engine over the same
/// partitioning.
///
/// With `top_k`, every eighth read, starting with the first, is a
/// whole-graph exact top-k: each hit's score must be the dot product of its
/// row in its owner's prefix state at the epoch the stamp's vector gives
/// that shard.
fn sharded_linearizable_epoch_scenario(
    shards: usize,
    reader_threads: usize,
    seed: u64,
    top_k: bool,
) {
    let (graph, model, store, updates) = bootstrap(seed);
    let handle = ripple::serve::spawn_sharded(
        &graph,
        &model,
        &store,
        RippleConfig::default(),
        ServeConfig::builder()
            .max_batch(5)
            .max_delay(Duration::from_millis(1))
            .record_batches(true)
            .build()
            .unwrap(),
        shards,
    )
    .expect("sharded tier");
    let metrics = handle.metrics();
    let partitioning = Arc::clone(handle.partitioning());
    let stop = Arc::new(AtomicBool::new(false));
    // Reads served so far, across all readers.
    let served_reads = Arc::new(AtomicU64::new(0));

    let num_vertices = graph.num_vertices() as u32;
    let dim = store.embedding(store.num_layers(), VertexId(0)).len();
    let readers: Vec<_> = (0..reader_threads)
        .map(|r| {
            let mut queries = handle.query_service();
            let stop = Arc::clone(&stop);
            let served_reads = Arc::clone(&served_reads);
            let request = top_k.then(|| TopKRequest::new(reader_query(r, dim), 5));
            std::thread::spawn(move || {
                let mut observations: Vec<ShardObservation> = Vec::new();
                let mut v = (r as u32 * 17) % num_vertices;
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    reads += 1;
                    served_reads.fetch_add(1, Ordering::Relaxed);
                    let observation =
                        if let Some(request) = request.as_ref().filter(|_| reads % 8 == 1) {
                            let stamped = queries.top_k(request).expect("valid request");
                            ShardObservation::TopK {
                                epoch: stamped.epoch,
                                epochs: stamped
                                    .epochs
                                    .expect("sharded whole-graph reads carry epochs"),
                                applied_seq: stamped.applied_seq,
                                hits: stamped.value,
                            }
                        } else {
                            let vertex = VertexId(v);
                            v = (v + 13) % num_vertices;
                            let stamped = queries.read_embedding(vertex).expect("vertex in range");
                            ShardObservation::Point {
                                shard: stamped.shard.expect("sharded point reads carry a shard"),
                                epoch: stamped.epoch,
                                applied_seq: stamped.applied_seq,
                                vertex,
                                embedding: stamped.value,
                            }
                        };
                    if observations.len() < 50_000 {
                        observations.push(observation);
                    }
                }
                observations
            })
        })
        .collect();

    // Writer: pulse the stream through the router so many windows flush —
    // and halo deltas cross shards — while the readers run. As on the
    // single-engine tier, each pulse gets a bounded chance to be applied and
    // then read before the next one starts.
    let client = handle.client();
    for chunk in updates.chunks(5) {
        for update in chunk {
            assert!(matches!(
                client.submit(update.clone()),
                Submission::Enqueued { .. }
            ));
        }
        std::thread::sleep(Duration::from_micros(300));
        let catch_up = Instant::now() + Duration::from_millis(50);
        while metrics.applied() < metrics.enqueued() && Instant::now() < catch_up {
            std::thread::sleep(Duration::from_micros(100));
        }
        let read_before = served_reads.load(Ordering::Relaxed);
        while served_reads.load(Ordering::Relaxed) == read_before && Instant::now() < catch_up {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    handle.quiesce().expect("tier alive");
    let deadline = Instant::now() + Duration::from_secs(60);
    while metrics.applied() < metrics.enqueued() {
        assert!(
            Instant::now() < deadline,
            "seed {seed}: sharded tier failed to drain in 60 s: {} of {} updates applied, \
             {} epochs published over {shards} shards, {} reads served",
            metrics.applied(),
            metrics.enqueued(),
            metrics.epochs(),
            served_reads.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    let observations: Vec<Vec<ShardObservation>> = readers
        .into_iter()
        .map(|t| t.join().expect("reader panicked"))
        .collect();

    let logs = handle.flush_logs();
    assert_eq!(logs.len(), shards, "one flush log per shard");
    let engines = handle.shutdown().expect("session failed");

    // Ground truth, shard by shard: states[s][e] is the exact store of
    // shard s at its epoch e.
    let mut per_shard_records = Vec::with_capacity(shards);
    let mut states: Vec<Vec<EmbeddingStore>> = Vec::with_capacity(shards);
    for (part, log) in logs.iter().enumerate() {
        let records = log.snapshot();
        let mut replay = ShardEngine::new(
            &graph,
            model.clone(),
            store.clone(),
            RippleConfig::default(),
            Arc::clone(&partitioning),
            PartitionId(part as u32),
        )
        .unwrap();
        let mut shard_states = vec![replay.store().clone()];
        for (i, record) in records.iter().enumerate() {
            assert_eq!(
                record.epoch,
                i as u64 + 1,
                "shard {part}: epochs are dense and ordered"
            );
            if !record.batch.is_empty() || !record.halos.is_empty() {
                replay.process_window(&record.batch, &record.halos).unwrap();
            }
            shard_states.push(replay.store().clone());
        }
        assert!(
            engines.engines()[part].store() == replay.store(),
            "shard {part}: served engine must end bit-identical to its replayed windows"
        );
        per_shard_records.push(records);
        states.push(shard_states);
    }
    let raw_total: u64 = per_shard_records
        .iter()
        .flat_map(|records| records.iter())
        .map(|record| record.raw)
        .sum();
    assert_eq!(
        raw_total,
        metrics.enqueued(),
        "the flush logs cover every routed update"
    );

    // The property: every observation matches its shard's prefix state at
    // its stamped epoch, bit for bit, with that epoch's applied_seq. Each
    // reader sees each shard's epochs in order, and its whole-graph reads'
    // minimum epochs in order. A whole-graph read is checked hit by hit
    // against each owner's state at the epoch its vector names.
    let num_layers = store.num_layers();
    let applied_at = |shard: usize, epoch: u64| {
        if epoch == 0 {
            0
        } else {
            per_shard_records[shard][epoch as usize - 1].applied_seq
        }
    };
    let state_at = |shard: usize, epoch: u64| {
        states[shard].get(epoch as usize).unwrap_or_else(|| {
            panic!(
                "shard {shard} observed epoch {epoch} beyond {} published",
                states[shard].len() - 1
            )
        })
    };
    let mut checked = 0u64;
    let mut top_k_checked = 0u64;
    let mut shards_seen: Vec<u32> = Vec::new();
    for (r, reader) in observations.iter().enumerate() {
        let mut last_epoch = vec![0u64; shards];
        let mut last_whole_graph_epoch = 0u64;
        for obs in reader {
            match obs {
                ShardObservation::Point {
                    shard,
                    epoch,
                    applied_seq,
                    vertex,
                    embedding,
                } => {
                    let last = &mut last_epoch[shard.index()];
                    assert!(
                        *epoch >= *last,
                        "reader {r} saw shard {shard} go back from epoch {} to {epoch}",
                        *last
                    );
                    *last = *epoch;
                    assert_eq!(
                        *shard,
                        partitioning.part_of(*vertex),
                        "stamp must name the owner of the read vertex"
                    );
                    assert_eq!(
                        embedding.as_slice(),
                        state_at(shard.index(), *epoch).embedding(num_layers, *vertex),
                        "shard {shard} epoch {epoch} vertex {vertex}: observed embedding \
                         is not that shard's serial prefix state"
                    );
                    assert_eq!(
                        *applied_seq,
                        applied_at(shard.index(), *epoch),
                        "shard {shard} epoch {epoch}"
                    );
                    shards_seen.push(shard.0);
                }
                ShardObservation::TopK {
                    epoch,
                    epochs,
                    applied_seq,
                    hits,
                } => {
                    assert_eq!(epochs.len(), shards, "one epoch per shard");
                    assert_eq!(
                        Some(epoch),
                        epochs.iter().min(),
                        "a whole-graph stamp is its vector's minimum"
                    );
                    assert!(
                        *epoch >= last_whole_graph_epoch,
                        "reader {r} saw whole-graph reads go back from epoch \
                         {last_whole_graph_epoch} to {epoch}"
                    );
                    last_whole_graph_epoch = *epoch;
                    let expected_applied: u64 = epochs
                        .iter()
                        .enumerate()
                        .map(|(shard, &e)| applied_at(shard, e))
                        .sum();
                    assert_eq!(*applied_seq, expected_applied, "epochs {epochs:?}");
                    assert!(!hits.is_empty(), "epochs {epochs:?}: empty top-k");
                    let query = reader_query(r, dim);
                    for &(vertex, score) in hits {
                        let owner = partitioning.part_of(vertex).index();
                        let row = state_at(owner, epochs[owner]).embedding(num_layers, vertex);
                        assert_eq!(
                            score.to_bits(),
                            dot(row, &query).to_bits(),
                            "epochs {epochs:?} vertex {vertex}: top-k score is not its \
                             owner's serial prefix state's"
                        );
                    }
                    top_k_checked += 1;
                }
            }
            checked += 1;
        }
    }
    assert_eq!(
        top_k,
        top_k_checked > 0,
        "whole-graph reads are issued exactly when asked for"
    );
    assert!(checked > 0, "readers must have observed something");
    shards_seen.sort_unstable();
    shards_seen.dedup();
    assert!(
        shards_seen.len() >= 2,
        "reads only ever resolved to shards {shards_seen:?} of {shards} — \
         the scenario never exercised cross-shard stamps"
    );
}

#[test]
fn sharded_readers_observe_only_per_shard_prefix_states_2_shards() {
    sharded_linearizable_epoch_scenario(2, 4, 307, false);
}

#[test]
fn sharded_readers_observe_only_per_shard_prefix_states_4_shards() {
    sharded_linearizable_epoch_scenario(4, 4, 311, false);
}

#[test]
fn sharded_readers_observe_only_per_shard_prefix_states_with_top_k() {
    sharded_linearizable_epoch_scenario(2, 2, 313, true);
}

/// Cross-shard edge-delta fanout parity: a stream holding edge updates that
/// span shards — each applied at both owners, with value deltas emitted only
/// by the source's owner and shipped as halo messages — must land the
/// gathered sharded stores where the unsharded serving path lands its store.
#[test]
fn cross_shard_edge_fanout_matches_the_unsharded_engine() {
    let (graph, model, store, updates) = bootstrap(223);
    let handle = ripple::serve::spawn_sharded(
        &graph,
        &model,
        &store,
        RippleConfig::default(),
        ServeConfig::builder().max_batch(6).build().unwrap(),
        2,
    )
    .expect("sharded tier");
    // The scenario is vacuous unless the fanout path actually runs: at
    // least one streamed edge update must span the two shards.
    let partitioning = Arc::clone(handle.partitioning());
    let crossing = updates
        .iter()
        .filter(|update| match update {
            GraphUpdate::AddEdge { src, dst, .. } | GraphUpdate::DeleteEdge { src, dst } => {
                partitioning.part_of(*src) != partitioning.part_of(*dst)
            }
            GraphUpdate::UpdateFeature { .. } => false,
        })
        .count();
    assert!(crossing > 0, "stream holds no cross-shard edge update");

    let client = handle.client();
    let (accepted, _) = client.submit_all(updates.clone());
    assert_eq!(accepted, updates.len());
    handle.quiesce().expect("tier alive");
    let metrics = handle.metrics();
    assert_eq!(
        metrics.enqueued(),
        updates.len() as u64 + crossing as u64,
        "every cross-shard edge update is routed to both owners"
    );
    assert_eq!(metrics.applied(), metrics.enqueued());
    let engines = handle.shutdown().expect("session failed");
    let gathered = engines.gather_store();

    let engine = RippleEngine::new(
        graph.clone(),
        model.clone(),
        store.clone(),
        RippleConfig::default(),
    )
    .unwrap();
    let single =
        ripple::serve::spawn(engine, ServeConfig::builder().max_batch(6).build().unwrap()).unwrap();
    let (accepted, _) = single.client().submit_all(updates);
    assert!(accepted > 0);
    single.flush().expect("alive");
    let served = single.shutdown().expect("session failed");

    let diff = gathered.max_diff_all_layers(served.store()).unwrap();
    assert!(
        diff < 2e-3,
        "sharded fanout endstate drifted from the unsharded engine: {diff}"
    );
}
