//! A fixed-size worker pool over scoped threads.
//!
//! Callers split a contiguous index range (a hop's affected frontier, a full
//! vertex table) into one contiguous range per worker state, and a fixed set
//! of [`std::thread::scope`] workers each evaluate one range — no channels,
//! no locks, no work queues. Results come back **in range order**, which is
//! what lets the parallel engines commit results in exactly the serial
//! engine's vertex order and stay bit-identical to it.
//!
//! Scoped threads let the work closure borrow the caller's graph, model and
//! embedding store directly; the per-call spawn cost (a few tens of
//! microseconds per worker) is amortised over whole-hop frontiers, which is
//! why the engines fall back to inline execution for small frontiers.
//!
//! The pool lives in the tensor crate — the bottom of the compute stack —
//! so that both the GNN inference kernels and the engines above them can
//! shard work over it.

use std::ops::Range;

/// A fixed-size worker pool executing ranged parallel-for loops over scoped
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    /// A single-threaded pool (runs everything inline on the caller).
    fn default() -> Self {
        WorkerPool::new(1)
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` workers. A count of zero is clamped to 1.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// Creates a pool sized to the host's available parallelism (1 if that
    /// cannot be determined).
    pub fn host_sized() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        WorkerPool::new(threads)
    }

    /// Number of workers in the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..num_items` into **one contiguous range per state** (near
    /// equal sizes, earlier ranges at most one item longer) and runs
    /// `work(state, range)` for each pair, returning the per-state results
    /// index-aligned with `states`.
    ///
    /// Each worker owns a mutable per-worker state — a scratch arena — for
    /// its whole range, so the work closure can be allocation-free. With a
    /// single state (or a 1-thread pool) everything runs inline on the
    /// caller; empty ranges also run inline, so results always align with
    /// `states`.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty, or propagates a panic from `work`.
    pub fn map_ranges<S, T, F>(&self, states: &mut [S], num_items: usize, work: F) -> Vec<T>
    where
        S: Send,
        T: Send,
        F: Fn(&mut S, Range<usize>) -> T + Sync,
    {
        assert!(!states.is_empty(), "map_ranges needs at least one state");
        let ranges = split_ranges(num_items, states.len());
        if self.threads == 1 || states.len() == 1 || num_items == 0 {
            return states
                .iter_mut()
                .zip(&ranges)
                .map(|(state, range)| work(state, range.clone()))
                .collect();
        }
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .iter_mut()
                .zip(&ranges)
                .map(|(state, range)| {
                    let range = range.clone();
                    scope.spawn(move || work(state, range))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        })
    }
}

/// `parts` contiguous, in-order, near-equal ranges covering `0..num_items`
/// (the first `num_items % parts` ranges are one longer; trailing ranges may
/// be empty when `parts > num_items`). Public because callers of
/// [`WorkerPool::map_ranges`] that pre-split an output buffer into per-state
/// blocks must partition with exactly the same arithmetic.
pub fn split_ranges(num_items: usize, parts: usize) -> Vec<Range<usize>> {
    let base = num_items / parts;
    let extra = num_items % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert_eq!(WorkerPool::default().threads(), 1);
        assert!(WorkerPool::host_sized().threads() >= 1);
    }

    #[test]
    fn map_ranges_covers_items_and_aligns_with_states() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let mut states = vec![0usize; 3];
            let ranges: Vec<Range<usize>> = pool.map_ranges(&mut states, 10, |state, range| {
                *state += range.len();
                range
            });
            assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
            assert_eq!(states, vec![4, 3, 3], "each state saw its own range");
        }
    }

    #[test]
    fn map_ranges_with_more_states_than_items_gets_empty_tails() {
        let pool = WorkerPool::new(4);
        let mut states = vec![(); 5];
        let ranges: Vec<Range<usize>> = pool.map_ranges(&mut states, 3, |_, r| r);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3, 3..3, 3..3]);
    }

    #[test]
    fn map_ranges_zero_items_runs_inline() {
        let pool = WorkerPool::new(4);
        let mut states = vec![0u32; 2];
        let lens: Vec<usize> = pool.map_ranges(&mut states, 0, |_, r| r.len());
        assert_eq!(lens, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn map_ranges_empty_states_panics() {
        WorkerPool::new(2).map_ranges::<(), (), _>(&mut [], 4, |_, _| ());
    }
}
