//! Counting-allocator proof that an exact top-k read allocates nothing
//! proportional to the table it scans: rows are scored in stack-buffered
//! chunks and streamed through a `k`-entry selector, so a `k = 10` read of
//! a 50k-row session allocates a few hundred bytes, where collecting every
//! `(score, id)` pair first would cost 400 KB. With an index, the pruned
//! read adds only per-cluster bounds (`O(√|V|)`).
//!
//! The allocator is process-global; it counts only on the thread that armed
//! it, into that thread's own counter, so neither the session's scheduler
//! thread nor a test running alongside can leak into the count.

use ripple::prelude::*;
use ripple::serve::{MetricsReport, ServeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator, counting every byte allocated by an armed
/// thread.
struct ByteCountingAllocator;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

fn count(bytes: usize) {
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
}

unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            count(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            count(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: ByteCountingAllocator = ByteCountingAllocator;

/// Runs `f` with this thread's byte counter armed and returns how much it
/// allocated.
fn count_bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    BYTES.with(|b| b.set(0));
    ARMED.with(|a| a.set(true));
    let value = f();
    ARMED.with(|a| a.set(false));
    (BYTES.with(Cell::get), value)
}

/// Spawns a 50k-vertex session under `config`, then returns the bytes one
/// warm exact `k = 10` read allocates and the metrics it left behind.
fn exact_read_bytes(config: ServeConfig) -> (usize, MetricsReport) {
    let num_vertices = 50_000;
    let graph = DatasetSpec::custom(num_vertices, 2.0, 8, 8)
        .generate(3)
        .unwrap();
    let model = Workload::GcS.build_model(8, 8, 8, 1, 4).unwrap();
    let store = full_inference(&graph, &model).unwrap();
    let engine = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
    let handle = ripple::serve::spawn(engine, config).unwrap();
    let mut queries = handle.query_service();
    let request = TopKRequest::new(vec![0.5, -0.25, 1.0, 0.0, -1.0, 0.75, 0.125, -0.5], 10);

    // Warm-up read: the reader's first snapshot load lands here.
    let warm = queries.top_k(&request).unwrap();
    let (allocated, top) = count_bytes(|| queries.top_k(&request));
    let top = top.unwrap();
    assert_eq!(top.value, warm.value);
    assert_eq!(top.value.len(), 10);
    let report = handle.metrics().report();
    handle.shutdown().unwrap();
    (allocated, report)
}

#[test]
fn exact_top_k_allocates_no_table_scale_memory() {
    let (allocated, report) = exact_read_bytes(ServeConfig::builder().no_index().build().unwrap());
    assert_eq!(report.exact_full_scans, 2);
    assert!(
        allocated < 64 * 1024,
        "an exact k = 10 full scan of 50k rows allocated {allocated} bytes"
    );
}

#[test]
fn pruned_exact_top_k_allocates_no_table_scale_memory() {
    // One Lloyd pass keeps the 50k-row index bootstrap short in debug
    // builds; the read path does not depend on centroid quality.
    let params = IndexParams {
        kmeans_iters: 1,
        ..IndexParams::default()
    };
    let (allocated, report) =
        exact_read_bytes(ServeConfig::builder().index(params).build().unwrap());
    assert_eq!(report.exact_pruned_reads, 2);
    assert!(
        allocated < 64 * 1024,
        "a pruned exact k = 10 read of 50k rows allocated {allocated} bytes"
    );
}
