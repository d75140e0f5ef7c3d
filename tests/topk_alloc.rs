//! Counting-allocator proof that an exact top-k read allocates nothing
//! proportional to the table it scans: rows are scored in stack-buffered
//! chunks and streamed through a `k`-entry selector, so a `k = 10` read of
//! a 50k-row session allocates a few hundred bytes, where collecting every
//! `(score, id)` pair first would cost 400 KB.
//!
//! The allocator is process-global; it counts only on the thread that armed
//! it, so the session's idle scheduler thread cannot leak into the count.
//! This file holds exactly one test.

use ripple::prelude::*;
use ripple::serve::ServeConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator, counting every byte allocated by an armed
/// thread.
struct ByteCountingAllocator;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            BYTES.fetch_add(new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: ByteCountingAllocator = ByteCountingAllocator;

/// Runs `f` with this thread's byte counter armed and returns how much it
/// allocated.
fn count_bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    BYTES.store(0, Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    let value = f();
    ARMED.with(|a| a.set(false));
    (BYTES.load(Ordering::SeqCst), value)
}

#[test]
fn exact_top_k_allocates_no_table_scale_memory() {
    let num_vertices = 50_000;
    let graph = DatasetSpec::custom(num_vertices, 2.0, 8, 8)
        .generate(3)
        .unwrap();
    let model = Workload::GcS.build_model(8, 8, 8, 1, 4).unwrap();
    let store = full_inference(&graph, &model).unwrap();
    let engine = RippleEngine::new(graph, model, store, RippleConfig::default()).unwrap();
    let handle =
        ripple::serve::spawn(engine, ServeConfig::builder().no_index().build().unwrap()).unwrap();
    let mut queries = handle.query_service();
    let request = TopKRequest::new(vec![0.5, -0.25, 1.0, 0.0, -1.0, 0.75, 0.125, -0.5], 10);

    // Warm-up read: the reader's first snapshot load lands here.
    let warm = queries.top_k(&request).unwrap();
    let (allocated, top) = count_bytes(|| queries.top_k(&request));
    let top = top.unwrap();
    assert_eq!(top.value, warm.value);
    assert_eq!(top.value.len(), 10);
    assert!(
        allocated < 64 * 1024,
        "an exact k = 10 read of {num_vertices} rows allocated {allocated} bytes"
    );
    handle.shutdown().unwrap();
}
