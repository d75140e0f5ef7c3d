//! Counting-allocator proof of the scratch-arena contract: once the arenas
//! are warm, the **compute phase** of steady-state batch propagation — the
//! exact `reevaluate_slice_into` call each engine worker makes per hop —
//! performs **zero heap allocations**, as do the underlying `_into` kernels.
//!
//! The counting allocator is process-global, so the tests in this file
//! serialise themselves on [`MEASURE_LOCK`] and bracket each measured region
//! tightly.

use ripple::gnn::layer_wise::{full_inference, reevaluate_slice_into};
use ripple::prelude::*;
use ripple::tensor::{ops, Matrix, Scratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Held for the duration of every test so measured regions never interleave.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Wraps the system allocator, counting every `alloc`/`realloc` while armed.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with the counter armed and returns how many heap allocations it
/// performed.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let value = f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), value)
}

#[test]
fn steady_state_compute_phase_performs_zero_allocations() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    // One self-dependent and one aggregate-only model family, over every
    // aggregator, so the SAGE dual-GEMM, the GIN combine and the GraphConv
    // single-GEMM paths are all covered.
    for (kind, agg) in [
        (LayerKind::GraphConv, Aggregator::Sum),
        (LayerKind::GraphConv, Aggregator::Mean),
        (LayerKind::Sage, Aggregator::Mean),
        (LayerKind::Gin, Aggregator::Sum),
        (LayerKind::GraphConv, Aggregator::WeightedSum),
    ] {
        let graph = DatasetSpec::custom(160, 5.0, 8, 4)
            .generate_weighted(5, agg == Aggregator::WeightedSum)
            .unwrap();
        let model = GnnModel::new(kind, agg, &[8, 24, 4], 9).unwrap();
        let store = full_inference(&graph, &model).unwrap();
        let affected: Vec<VertexId> = (0..120).map(VertexId).collect();
        let mut scratch = Scratch::new();

        for hop in 1..=2 {
            // Warm-up: let every scratch buffer grow to steady-state size.
            reevaluate_slice_into(&graph, &model, &store, hop, &affected, &mut scratch).unwrap();
            // Steady state: the engine's per-hop compute phase is
            // exactly this call against warm scratch.
            let (allocs, result) = count_allocations(|| {
                reevaluate_slice_into(&graph, &model, &store, hop, &affected, &mut scratch)
            });
            result.unwrap();
            assert_eq!(
                allocs, 0,
                "{kind}/{agg} hop {hop}: compute phase allocated {allocs} times"
            );
            // Shrinking to a sub-frontier must also stay allocation-free.
            let (allocs, result) = count_allocations(|| {
                reevaluate_slice_into(&graph, &model, &store, hop, &affected[..40], &mut scratch)
            });
            result.unwrap();
            assert_eq!(
                allocs, 0,
                "{kind}/{agg} hop {hop}: shrunk frontier allocated"
            );
        }
    }
}

#[test]
fn warm_into_kernels_perform_zero_allocations() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    let a = ripple::tensor::init::uniform(48, 24, -1.0, 1.0, 1);
    let b = ripple::tensor::init::uniform(24, 40, -1.0, 1.0, 2);
    let mut out = Matrix::default();
    ops::gemm_into(&a, &b, &mut out).unwrap();
    let (allocs, result) = count_allocations(|| ops::gemm_into(&a, &b, &mut out));
    result.unwrap();
    assert_eq!(allocs, 0, "warm gemm_into allocated");

    let mut row_out = vec![0.0f32; 40];
    let (allocs, result) = count_allocations(|| ops::row_matmul_into(a.row(3), &b, &mut row_out));
    result.unwrap();
    assert_eq!(allocs, 0, "row_matmul_into allocated");

    let indices: Vec<usize> = (0..20).collect();
    let mut gathered = Matrix::default();
    ops::gather_rows_into(&a, &indices, &mut gathered).unwrap();
    let (allocs, result) = count_allocations(|| ops::gather_rows_into(&a, &indices, &mut gathered));
    result.unwrap();
    assert_eq!(allocs, 0, "warm gather_rows_into allocated");

    let mut raw = vec![0.0f32; 24];
    let mut finalized = vec![0.0f32; 24];
    let neighbors: Vec<VertexId> = (0..10).map(VertexId).collect();
    let weights = vec![1.0f32; 10];
    let (allocs, ()) = count_allocations(|| {
        Aggregator::Mean.raw_aggregate_into(&a, &neighbors, &weights, &mut raw);
        Aggregator::Mean.finalize_into(&raw, neighbors.len(), &mut finalized);
    });
    assert_eq!(allocs, 0, "aggregation _into kernels allocated");
}

/// A 64-update window rewriting the features of 64 distinct vertices.
fn feature_window(num_vertices: u32, dim: usize, round: u32) -> UpdateBatch {
    UpdateBatch::from_updates(
        (0..64u32)
            .map(|i| {
                let v = VertexId((i * 37 + round * 11) % num_vertices);
                let features = (0..dim)
                    .map(|d| ((i + d as u32 + round) % 13) as f32 * 0.125 - 0.75)
                    .collect();
                GraphUpdate::update_feature(v, features)
            })
            .collect(),
    )
}

/// The mailbox contract: a warm engine's batch allocates a fixed handful of
/// times (per-hop frontier and bookkeeping vectors), however many mailbox
/// deposits it makes. On a dense graph every window's cone is the whole
/// graph, so each hop deposits into hundreds of (hop, target) slots; none
/// of them may cost an allocation.
#[test]
fn warm_engine_batch_allocations_do_not_grow_with_deposits() {
    let _guard = MEASURE_LOCK.lock().unwrap();
    let (num_vertices, dim) = (400u32, 16);
    let graph = DatasetSpec::custom(num_vertices as usize, 20.0, dim, 4)
        .generate(3)
        .unwrap();
    let model = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[dim, 32, 32, 4], 5).unwrap();
    let store = full_inference(&graph, &model).unwrap();
    let mut engine = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
    for round in 0..3 {
        engine
            .process_batch(&feature_window(num_vertices, dim, round))
            .unwrap();
    }
    for round in 3..6 {
        let window = feature_window(num_vertices, dim, round);
        let (allocs, stats) = count_allocations(|| engine.process_batch(&window));
        let stats = stats.unwrap();
        let slots: usize = stats.affected_per_hop.iter().sum();
        assert!(
            stats.aggregate_ops > 10_000 && slots > 1_000,
            "the window must be dense: {} deposits into {slots} slots",
            stats.aggregate_ops
        );
        assert!(
            allocs <= 40,
            "warm batch allocated {allocs} times for {} deposits",
            stats.aggregate_ops
        );
    }
}
