//! Throughput of the batched compute kernels against the per-vertex path:
//! register-blocked `gemm_into` vs a row-at-a-time matvec loop, and batched
//! `full_inference` vs the `full_inference_per_vertex` reference, swept over
//! hidden dimensions 16/64/256. The two paths are bit-identical
//! (`tests/kernel_parity.rs`), so this bench isolates the pure throughput
//! effect of batching: register-tile operand reuse and the removal of
//! per-vertex dispatch overhead.
//!
//! When the `RIPPLE_KERNEL_JSON` environment variable names a file, the
//! bench additionally times the `full_inference` and GEMM comparisons with
//! plain wall-clock repetitions and writes the rows (including the
//! batched-over-per-vertex speedup) as the `BENCH_kernels.json` artifact CI
//! uploads next to `BENCH_parallel.json`. The artifact records the detected
//! core count and the active/detected SIMD tiers, and adds a `simd_gemm`
//! section comparing the forced-scalar kernels against the active tier —
//! with a speedup *floor* asserted only when the environment actually has a
//! SIMD tier to spend (never on a scalar-only host, so a 1-core scalar
//! runner can't silently upload numbers that look like a regression). An
//! `ivf_assign` section times the IVF assignment kernel
//! (`ops::row_sq_dist_into` plus the index's argmin) the same two ways, at
//! the serving benchmark's four assignment shapes, with no floor.

use criterion::{criterion_group, BenchmarkId, Criterion};
use ripple_gnn::layer_wise::{full_inference, full_inference_per_vertex};
use ripple_gnn::{Aggregator, GnnModel, LayerKind};
use ripple_graph::synth::DatasetSpec;
use ripple_graph::DynamicGraph;
use ripple_tensor::{init, ops, simd, Matrix, SimdTier};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Hidden widths swept by both comparisons (the paper's models span 16–602).
const HIDDEN_DIMS: [usize; 3] = [16, 64, 256];

/// Rows of the GEMM operand sweep (a mid-sized frontier).
const GEMM_ROWS: usize = 512;

/// A bootstrap-shaped scenario: power-law graph plus a 2-layer GraphConv/sum
/// model with the requested hidden width.
fn scenario(hidden_dim: usize) -> (DynamicGraph, GnnModel) {
    let graph = DatasetSpec::custom(2_000, 8.0, 16, 8)
        .generate(42)
        .expect("dataset");
    let model = GnnModel::new(
        LayerKind::GraphConv,
        Aggregator::Sum,
        &[16, hidden_dim, 8],
        7,
    )
    .expect("model");
    (graph, model)
}

fn bench_gemm_vs_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_vs_matvec_512rows");
    group.sample_size(10);
    for dim in HIDDEN_DIMS {
        let a = init::uniform(GEMM_ROWS, dim, -1.0, 1.0, 1);
        let w = init::uniform(dim, dim, -1.0, 1.0, 2);
        group.bench_with_input(BenchmarkId::new("matvec_per_row", dim), &dim, |b, _| {
            let mut out = vec![0.0f32; dim];
            b.iter(|| {
                for i in 0..GEMM_ROWS {
                    ops::row_matmul_into(a.row(i), &w, &mut out).unwrap();
                }
                black_box(out[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("gemm_batched", dim), &dim, |b, _| {
            let mut out = Matrix::default();
            b.iter(|| {
                ops::gemm_into(&a, &w, &mut out).unwrap();
                black_box(out.as_slice()[0])
            })
        });
    }
    group.finish();
}

fn bench_full_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_inference_2k_vertices");
    group.sample_size(10);
    for dim in HIDDEN_DIMS {
        let (graph, model) = scenario(dim);
        group.bench_with_input(BenchmarkId::new("per_vertex", dim), &dim, |b, _| {
            b.iter(|| black_box(full_inference_per_vertex(&graph, &model).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("batched", dim), &dim, |b, _| {
            b.iter(|| black_box(full_inference(&graph, &model).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm_vs_matvec, bench_full_inference);

/// Mean wall-clock seconds of `f` over `reps` timed repetitions (after one
/// warm-up run).
fn time_mean(reps: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut total = Duration::ZERO;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        total += start.elapsed();
    }
    total.as_secs_f64() / f64::from(reps)
}

/// Interleaved A/B timing: alternates one pass of each side per round and
/// reports per-side medians, so machine noise hits both sides equally.
fn time_interleaved(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b(); // warm-up
    let mut a_times = Vec::with_capacity(rounds);
    let mut b_times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        a();
        a_times.push(start.elapsed());
        let start = Instant::now();
        b();
        b_times.push(start.elapsed());
    }
    let median = |times: &mut Vec<Duration>| {
        times.sort_unstable();
        times[times.len() / 2].as_secs_f64()
    };
    (median(&mut a_times), median(&mut b_times))
}

/// Dense-GEMM speedup floor asserted for the active SIMD tier over the
/// forced-scalar kernels (only on hardware that *has* a non-scalar tier).
/// The 8-lane AVX2 / 4-lane NEON tiles should clear this comfortably at the
/// swept dims; the floor is deliberately below the ~2x target so CI noise
/// doesn't flake the job.
const SIMD_GEMM_FLOOR: f64 = 1.5;

/// The forced-scalar vs active-tier GEMM comparison (`simd_gemm` section).
/// Returns the JSON rows and asserts the floor when a SIMD tier is active.
fn simd_gemm_rows() -> Vec<String> {
    let tier = simd::active_tier();
    let mut rows = Vec::new();
    for dim in HIDDEN_DIMS {
        let a = init::uniform(GEMM_ROWS, dim, -1.0, 1.0, 1);
        let w = init::uniform(dim, dim, -1.0, 1.0, 2);
        let mut out_scalar = Matrix::default();
        let mut out_simd = Matrix::default();
        let (scalar, simd_time) = time_interleaved(
            30,
            || {
                simd::force_tier(Some(SimdTier::Scalar));
                ops::gemm_into(&a, &w, &mut out_scalar).unwrap();
                black_box(out_scalar.as_slice()[0]);
            },
            || {
                simd::force_tier(None);
                ops::gemm_into(&a, &w, &mut out_simd).unwrap();
                black_box(out_simd.as_slice()[0]);
            },
        );
        simd::force_tier(None);
        // The tiers must agree bit for bit — the whole point of the design.
        assert_eq!(
            out_scalar.as_slice(),
            out_simd.as_slice(),
            "scalar and {tier} GEMM diverged at dim {dim}"
        );
        let speedup = scalar / simd_time;
        if tier != SimdTier::Scalar {
            assert!(
                speedup >= SIMD_GEMM_FLOOR,
                "{tier} GEMM speedup {speedup:.2}x below the {SIMD_GEMM_FLOOR}x floor at dim {dim}"
            );
        }
        rows.push(format!(
            "    {{\"section\": \"simd_gemm\", \"hidden_dim\": {dim}, \"tier\": \"{tier}\", \
             \"scalar_ms\": {:.4}, \"simd_ms\": {:.4}, \"speedup\": {:.3}}}",
            scalar * 1e3,
            simd_time * 1e3,
            speedup
        ));
    }
    rows
}

/// The serving benchmark's IVF assignment shapes, `(rows, clusters, dim)`
/// per pass: `topk_reads`' bootstrap k-means pass, then the per-window
/// repair of `dense_stream`, `sparse_stream` and `durable_hub`.
const IVF_ASSIGN_SHAPES: [(usize, usize, usize); 4] = [
    (100_000, 316, 40),
    (9_034, 38, 47),
    (1_476, 210, 40),
    (3_443, 36, 40),
];

/// One IVF assignment pass: every row's distance to every centroid through
/// `row_sq_dist_into`, then the index's argmin (`dist < best`, from `+∞`).
/// Returns the summed cluster ids and distance bits, a checksum both tiers
/// must agree on.
fn ivf_assign_pass(rows: &Matrix, centroids_t: &Matrix, dists: &mut [f32]) -> u64 {
    let mut checksum = 0u64;
    for i in 0..rows.rows() {
        ops::row_sq_dist_into(rows.row(i), centroids_t, dists).unwrap();
        let mut best = 0u32;
        let mut best_dist = f32::INFINITY;
        for (c, &dist) in dists.iter().enumerate() {
            if dist < best_dist {
                best_dist = dist;
                best = c as u32;
            }
        }
        checksum = checksum.wrapping_add(u64::from(best) ^ (u64::from(best_dist.to_bits()) << 16));
    }
    checksum
}

/// The forced-scalar vs active-tier IVF assignment comparison
/// (`ivf_assign` section): ms per pass at each workload shape, recorded
/// with no speedup floor.
fn ivf_assign_rows() -> Vec<String> {
    let tier = simd::active_tier();
    let mut rows = Vec::new();
    for (n, clusters, dim) in IVF_ASSIGN_SHAPES {
        let table = init::uniform(n, dim, -1.0, 1.0, 3);
        let centroids_t = init::uniform(dim, clusters, -1.0, 1.0, 4);
        let mut scalar_dists = vec![0.0f32; clusters];
        let mut simd_dists = vec![0.0f32; clusters];
        let (mut scalar_sum, mut simd_sum) = (0, 0);
        let (scalar, simd_time) = time_interleaved(
            5,
            || {
                simd::force_tier(Some(SimdTier::Scalar));
                scalar_sum = black_box(ivf_assign_pass(&table, &centroids_t, &mut scalar_dists));
            },
            || {
                simd::force_tier(None);
                simd_sum = black_box(ivf_assign_pass(&table, &centroids_t, &mut simd_dists));
            },
        );
        simd::force_tier(None);
        assert_eq!(
            scalar_sum, simd_sum,
            "scalar and {tier} IVF assignment diverged at {n}x{clusters}x{dim}"
        );
        rows.push(format!(
            "    {{\"section\": \"ivf_assign\", \"rows\": {n}, \"clusters\": {clusters}, \
             \"dim\": {dim}, \"tier\": \"{tier}\", \"scalar_ms\": {:.4}, \"simd_ms\": {:.4}, \
             \"speedup\": {:.3}}}",
            scalar * 1e3,
            simd_time * 1e3,
            scalar / simd_time
        ));
    }
    rows
}

/// Writes the `BENCH_kernels.json` artifact (hand-rolled: the offline serde
/// shim has no serialiser).
fn write_kernels_json(path: &str) {
    let mut rows = Vec::new();
    for dim in HIDDEN_DIMS {
        let (graph, model) = scenario(dim);
        let per_vertex = time_mean(5, || {
            drop(black_box(
                full_inference_per_vertex(&graph, &model).unwrap(),
            ))
        });
        let batched = time_mean(5, || {
            drop(black_box(full_inference(&graph, &model).unwrap()))
        });
        rows.push(format!(
            "    {{\"section\": \"full_inference\", \"hidden_dim\": {dim}, \
             \"per_vertex_ms\": {:.4}, \"batched_ms\": {:.4}, \"speedup\": {:.3}}}",
            per_vertex * 1e3,
            batched * 1e3,
            per_vertex / batched
        ));
    }
    for dim in HIDDEN_DIMS {
        let a = init::uniform(GEMM_ROWS, dim, -1.0, 1.0, 1);
        let w = init::uniform(dim, dim, -1.0, 1.0, 2);
        let mut row_out = vec![0.0f32; dim];
        let matvec = time_mean(20, || {
            for i in 0..GEMM_ROWS {
                ops::row_matmul_into(a.row(i), &w, &mut row_out).unwrap();
            }
            black_box(row_out[0]);
        });
        let mut out = Matrix::default();
        let gemm = time_mean(20, || {
            ops::gemm_into(&a, &w, &mut out).unwrap();
            black_box(out.as_slice()[0]);
        });
        rows.push(format!(
            "    {{\"section\": \"gemm_vs_matvec\", \"hidden_dim\": {dim}, \
             \"matvec_ms\": {:.4}, \"gemm_ms\": {:.4}, \"speedup\": {:.3}}}",
            matvec * 1e3,
            gemm * 1e3,
            matvec / gemm
        ));
    }
    rows.extend(simd_gemm_rows());
    rows.extend(ivf_assign_rows());
    let json = format!(
        "{{\n  \"experiment\": \"kernel_throughput\",\n  \"simd_tier\": \"{}\",\n  \
         \"detected_tier\": \"{}\",\n  \"cores\": {},\n  \
         \"simd_floor_asserted\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        simd::active_tier(),
        simd::detected_tier(),
        simd::detected_cores(),
        simd::active_tier() != SimdTier::Scalar,
        rows.join(",\n")
    );
    std::fs::write(path, &json).expect("writing kernel JSON");
    println!("wrote {path}:\n{json}");
}

fn main() {
    benches();
    if let Ok(path) = std::env::var("RIPPLE_KERNEL_JSON") {
        if !path.is_empty() {
            write_kernels_json(&path);
        }
    }
}
