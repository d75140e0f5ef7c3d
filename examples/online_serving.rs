//! Online serving walkthrough: queries against versioned snapshots while a
//! stream of graph updates propagates through the incremental engine.
//!
//! A fraud-detection-style deployment: account vertices with transaction
//! edges stream in continuously; dashboards and checkout flows read risk
//! labels concurrently and must never block on (or observe half of) an
//! in-flight propagation.
//!
//! Run with `cargo run --release --example online_serving`.

use ripple::prelude::*;
use ripple::serve::ServeError;

fn main() -> Result<(), ServeError> {
    // Bootstrap: synthetic transaction graph + pre-computed embeddings.
    let spec = DatasetSpec::custom(1_500, 6.0, 16, 4);
    let full = spec.generate(11).expect("dataset");
    let plan = build_stream(
        &full,
        &StreamConfig {
            total_updates: 600,
            seed: 13,
            ..Default::default()
        },
    )
    .expect("stream");
    let model = Workload::GcS.build_model(16, 32, 4, 2, 7).expect("model");
    let store = full_inference(&plan.snapshot, &model).expect("bootstrap");
    let updates: Vec<GraphUpdate> = plan
        .batches(1)
        .into_iter()
        .flat_map(UpdateBatch::into_updates)
        .collect();
    let engine =
        RippleEngine::new(plan.snapshot, model, store, RippleConfig::default()).expect("engine");

    // Serve: scheduler thread owns the engine; we keep a client + queries.
    // `ServeConfig::builder()` validates the window/queue knobs up front.
    let serve_config = ServeConfig::builder().max_batch(32).build()?;
    let handle = spawn_serve(engine, serve_config)?;
    let client = handle.client();
    let mut queries = handle.query_service();

    let watched = VertexId(7);
    let before = queries.read_label(watched)?;
    println!(
        "epoch {:>3}  vertex {watched}: label {} (staleness {})",
        before.epoch, before.value, before.staleness
    );

    // Stream updates while reading: each chunk is coalesced into batches by
    // the scheduler; reads keep flowing against the latest published epoch.
    for chunk in updates.chunks(100) {
        for update in chunk {
            match client.submit(update.clone()) {
                Submission::Enqueued { .. } => {}
                other => panic!("submission failed: {other:?}"),
            }
        }
        handle.flush(); // close the window so the chunk becomes visible
        let stamped = queries.read_label(watched)?;
        println!(
            "epoch {:>3}  vertex {watched}: label {} (applied {} updates, staleness {})",
            stamped.epoch, stamped.value, stamped.applied_seq, stamped.staleness
        );
    }

    // A similarity read: top-5 vertices by dot product with a probe vector.
    // The request names the mode explicitly — an exact scan here, then the
    // same request again through the epoch-repaired IVF index.
    let probe = vec![1.0, 0.0, 0.0, 0.0];
    let request = TopKRequest::new(probe, 5);
    let top = queries.top_k(&request)?;
    println!("top-5 by <h, probe> at epoch {}:", top.epoch);
    for (v, score) in &top.value {
        println!("  {v}: {score:.4}");
    }
    // Approximate: probe 4 of the index's clusters. Scores are read from
    // the same snapshot, so any vertex both modes return is scored identically.
    let approx = queries.top_k(&request.clone().approx(4))?;
    println!("approx top-5 (nprobe 4) at epoch {}:", approx.epoch);
    for (v, score) in &approx.value {
        println!("  {v}: {score:.4}");
    }

    let metrics = handle.metrics().report();
    println!("serving session: {metrics}");
    let engine = handle.shutdown()?;
    println!(
        "scheduler returned the engine: {} vertices, {} edges after the stream",
        engine.graph().num_vertices(),
        engine.graph().num_edges()
    );

    // ------------------------------------------------------------------
    // The same workload on the sharded tier: two hash-partitioned shard
    // engines behind the same `ServeHandle` — `spawn` above is this session
    // at one part. Point reads now carry the owning shard; whole-graph
    // reads carry the epoch vector.
    // ------------------------------------------------------------------
    println!();
    println!("-- sharded tier (2 shards) --");
    let graph = engine.graph().clone();
    let model = engine.model().clone();
    let store = engine.store().clone();
    let sharded = spawn_sharded(
        &graph,
        &model,
        &store,
        RippleConfig::default(),
        ServeConfig::builder().max_batch(32).build()?,
        2,
    )?;
    let client = sharded.client();
    client.submit(GraphUpdate::add_edge(VertexId(3), VertexId(42)));
    sharded.quiesce()?;
    let mut queries = sharded.query_service();
    let stamped = queries.read_label(watched)?;
    println!(
        "vertex {watched}: label {} served by shard {:?} at epoch {} \
         (tier epoch vector {:?})",
        stamped.value,
        stamped.shard,
        stamped.epoch,
        queries.epoch_vector()
    );
    sharded.shutdown()?;
    Ok(())
}
