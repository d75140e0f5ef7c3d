//! Thread-scaling of the Ripple engine: per-batch processing cost of the
//! 1-thread engine vs [`ripple_core::RippleEngine::with_threads`] at 2/4/8
//! workers on a Criterion-sized medium synthetic graph (8k vertices, avg
//! in-degree 10, batch size 200 — large enough that every hop's affected
//! frontier dwarfs the pool's spawn cost, small enough for repeated
//! sampling; the fig9 harness sweep uses the larger `scaling_cell` in
//! `src/experiments.rs`).
//!
//! On a multi-core host the parallel rows should beat the serial row from 2
//! threads up, approaching the core count for the compute-bound fraction; on
//! a single core the rows only measure pool overhead. Either way the
//! embeddings are bit-identical, which `tests/parallel_determinism.rs`
//! asserts separately.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ripple_bench::BenchScenario;
use ripple_gnn::Workload;
use std::hint::black_box;

fn bench_parallel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scaling_medium_batch200");
    group.sample_size(10);
    let scenario = BenchScenario::new(8_000, 10.0, 32, Workload::GcS, 2, 200, 1);
    let batch = scenario.batches[0].clone();

    group.bench_function("serial", |b| {
        b.iter_batched(
            || scenario.ripple_engine(),
            |mut e| black_box(e.process_batch(&batch).unwrap()),
            criterion::BatchSize::LargeInput,
        )
    });
    for threads in [2usize, 4, 8] {
        group.bench_function(BenchmarkId::new("parallel", threads), |b| {
            b.iter_batched(
                || scenario.ripple_engine().with_threads(threads),
                |mut e| black_box(e.process_batch(&batch).unwrap()),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
