//! A serving session joins every thread it started: a handle dropped
//! without `shutdown()`, from `spawn` or from `spawn_sharded`, and a spawn
//! that fails (`spawn` on a plain file, `spawn_sharded` part-way) leave no
//! `ripple-serve*` thread alive. Every part's peers hold a sender to its
//! own queue, so only the handle can stop a part's thread.
//!
//! The probe counts this process's threads by name in `/proc/self/task`,
//! so this file holds a single test: no other session may run in the
//! process while it counts.

#![cfg(target_os = "linux")]

use ripple::prelude::*;
use ripple::serve::DurabilityConfig;
use std::time::{Duration, Instant};

/// Threads of this process whose name starts with `ripple-serve`.
fn serve_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("ripple-serve"))
        .count()
}

/// The live `ripple-serve*` thread count once it reaches zero, or after a
/// two-second grace period (a joined thread can linger in `/proc` for an
/// instant after its join returns).
fn serve_threads_after_grace() -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let live = serve_threads();
        if live == 0 || Instant::now() >= deadline {
            return live;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn bootstrap() -> (DynamicGraph, GnnModel, EmbeddingStore, Vec<GraphUpdate>) {
    let full = DatasetSpec::custom(150, 5.0, 6, 4).generate(31).unwrap();
    let plan = build_stream(
        &full,
        &StreamConfig {
            total_updates: 40,
            seed: 32,
            ..Default::default()
        },
    )
    .unwrap();
    let model = Workload::GcS.build_model(6, 8, 4, 2, 33).unwrap();
    let store = full_inference(&plan.snapshot, &model).unwrap();
    let updates = plan
        .batches(1)
        .into_iter()
        .flat_map(UpdateBatch::into_updates)
        .collect();
    (plan.snapshot, model, store, updates)
}

#[test]
fn sharded_sessions_leave_no_thread_behind() {
    let (graph, model, store, updates) = bootstrap();
    assert_eq!(serve_threads(), 0, "no session runs before the test");

    // A dropped `spawn` handle stops and joins its one part.
    let engine = RippleEngine::new(
        graph.clone(),
        model.clone(),
        store.clone(),
        RippleConfig::default(),
    )
    .unwrap();
    let handle = spawn_serve(engine.clone(), ServeConfig::default()).unwrap();
    let (accepted, _) = handle.client().submit_all(updates.iter().cloned());
    assert!(accepted > 0);
    handle.flush().unwrap();
    assert_eq!(serve_threads(), 1, "one thread for a spawned session");
    drop(handle);
    assert_eq!(
        serve_threads_after_grace(),
        0,
        "a dropped spawn handle left its thread running"
    );

    // A `spawn` whose durability directory is a plain file fails and
    // starts nothing.
    let file = std::env::temp_dir().join(format!("ripple-serve-file-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let config = ServeConfig::builder()
        .durability(DurabilityConfig::new(&file))
        .build()
        .unwrap();
    assert!(
        spawn_serve(engine, config).is_err(),
        "the durability dir is a plain file"
    );
    assert_eq!(
        serve_threads_after_grace(),
        0,
        "a failed spawn left a thread running"
    );
    let _ = std::fs::remove_file(&file);

    // A handle dropped without `shutdown()` stops and joins its shards.
    let config = ServeConfig::builder().max_batch(8).build().unwrap();
    let handle = spawn_sharded(&graph, &model, &store, RippleConfig::default(), config, 2).unwrap();
    let (accepted, _) = handle.client().submit_all(updates);
    assert!(accepted > 0);
    handle.quiesce().unwrap();
    assert_eq!(serve_threads(), 2, "one thread per shard while serving");
    drop(handle);
    assert_eq!(
        serve_threads_after_grace(),
        0,
        "a dropped sharded handle left shard threads running"
    );

    // Shard 1 cannot open its durability directory (a plain file sits
    // there), so the spawn fails after shard 0 has been built.
    let dir = std::env::temp_dir().join(format!("ripple-serve-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let durability = DurabilityConfig::new(&dir);
    std::fs::write(durability.shard_dir(1), b"not a directory").unwrap();
    let config = ServeConfig::builder()
        .durability(durability)
        .build()
        .unwrap();
    let result = spawn_sharded(&graph, &model, &store, RippleConfig::default(), config, 2);
    assert!(result.is_err(), "shard 1's directory is a plain file");
    assert_eq!(
        serve_threads_after_grace(),
        0,
        "a failed spawn_sharded left the shards it had started running"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
