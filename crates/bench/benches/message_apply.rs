//! Micro-benchmark of the paper's §4.3.3 benefit analysis: updating one
//! vertex whose neighbourhood has `k` members of which only `k'` changed.
//! RC re-aggregates all `k`; Ripple applies `k'` pre-accumulated deltas
//! (2·k' scalar ops) through the mailbox.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ripple_core::MailboxSet;
use ripple_gnn::Aggregator;
use ripple_graph::VertexId;
use ripple_tensor::init;
use std::hint::black_box;

fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("benefit_analysis_k_vs_kprime");
    group.sample_size(30);
    let dim = 64usize;
    let table = init::normal_like(1024, dim, 2);
    let aggregator = Aggregator::Sum;
    for &(k, k_prime) in &[(64usize, 2usize), (256, 4), (1024, 8)] {
        let neighbors: Vec<VertexId> = (0..k as u32).map(VertexId).collect();
        let weights = vec![1.0f32; k];
        group.bench_with_input(
            BenchmarkId::new("rc_full_reaggregate", format!("k={k}")),
            &k,
            |b, _| {
                b.iter(|| {
                    black_box(aggregator.aggregate(
                        black_box(&table),
                        black_box(&neighbors),
                        black_box(&weights),
                    ))
                })
            },
        );
        let deltas: Vec<Vec<f32>> = (0..k_prime)
            .map(|i| table.row(i).iter().map(|x| x * 0.01).collect())
            .collect();
        // One mailbox set reused across iterations, as an engine reuses its
        // own across batches.
        let mut mailbox = MailboxSet::new(1);
        group.bench_with_input(
            BenchmarkId::new("ripple_apply_deltas", format!("kprime={k_prime}_k={k}")),
            &k_prime,
            |b, _| {
                b.iter(|| {
                    mailbox.clear();
                    for d in &deltas {
                        mailbox.deposit(1, VertexId(0), 1.0, black_box(d));
                    }
                    let mut agg = table.row(0).to_vec();
                    for (_, delta) in mailbox.sorted_hop(1).iter() {
                        ripple_tensor::add_assign(&mut agg, delta);
                    }
                    black_box(agg)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_vs_full);
criterion_main!(benches);
