//! Runtime-dispatched SIMD micro-kernels and software-prefetch helpers.
//!
//! The scalar kernels in [`crate::ops`] and [`crate::vector`] rely on
//! autovectorisation; this module adds explicit AVX2 paths on `x86_64`,
//! selected **once** at runtime and cached in a [`OnceLock`]. Every other
//! target runs the scalar kernels. Every SIMD kernel preserves the exact ascending-k,
//! zero-initialised accumulation order of its scalar reference, so all tiers
//! produce **bit-identical** results (pinned by `tests/simd_parity.rs`):
//!
//! * The GEMM/row-matmul kernels vectorise across *output columns* — the 8
//!   accumulator lanes of a `4 x 8` register tile are 8 independent output
//!   elements, each still summing `A[i][p] * B[p][j]` for `p` ascending. The
//!   `n % 8` column tail is one more tile with the lanes past `n` masked off
//!   (`maskload`/`maskstore`).
//! * The row-scoring kernel behind `ops::score_rows_into` vectorises across
//!   *rows*: each of the 8 lanes is one row's dot product with the query,
//!   fed by an in-register transpose, so no sum is ever split across lanes
//!   or reassociated.
//! * The distance kernel behind `ops::row_sq_dist_into` (IVF assignment)
//!   vectorises across *clusters*: each of the 8 lanes is one centroid's
//!   squared L2 distance to the row, a `sub`, `mul`, `add` chain over
//!   ascending dims with no FMA, so every lane equals the scalar chain.
//!   The `clusters % 8` tail is a masked tile, as for GEMM columns.
//! * Fused multiply-add (`fmadd`) is **deliberately not used** in any
//!   accumulation: an FMA rounds once where `mul` + `add` round twice, which
//!   would break bit-parity with the scalar kernels. The SIMD win here is
//!   lane-parallelism and operand reuse, not contraction.
//! * The element-wise kernels (`axpy`, `add_assign`, …) compute each lane
//!   with the same two-rounding `mul`/`add` sequence as the scalar loop.
//!
//! # Tier selection
//!
//! [`active_tier`] resolves as: the `RIPPLE_SIMD` environment variable
//! (`scalar|avx2|auto`, default `auto`) filtered by what the hardware
//! actually supports — forcing a tier the CPU (or target arch) lacks falls
//! back to [`SimdTier::Scalar`] rather than faulting. `auto` picks
//! [`detected_tier`], the best supported tier. Parity tests can bypass the
//! cache with [`force_tier`].
//!
//! # Software prefetch
//!
//! The sparse aggregation phase walks CSR adjacency slices whose upcoming
//! neighbour ids are visible *before* their embedding rows are needed;
//! [`prefetch_slice`] lets those loops issue `prefetcht0` hints a few
//! neighbours ahead (see `Aggregator::raw_aggregate_into`). Prefetching never
//! changes results; it is gated on [`prefetch_enabled`] (any non-scalar tier)
//! so that `RIPPLE_SIMD=scalar` still measures the pure pre-SIMD baseline.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A runtime-selectable kernel tier. All tiers are bit-identical; they differ
/// only in throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Portable scalar kernels (the reference implementation).
    Scalar,
    /// 256-bit AVX2 kernels (`x86_64` with the `avx2` feature).
    Avx2,
}

impl SimdTier {
    /// The lowercase name used by `RIPPLE_SIMD` and the `BENCH_*.json`
    /// artifacts.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// Whether this binary, on this CPU, can execute the tier's kernels.
    pub fn is_supported(self) -> bool {
        match self {
            SimdTier::Scalar => true,
            SimdTier::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// Every tier, for exhaustive parity sweeps. Filter with
    /// [`SimdTier::is_supported`] to get the force-selectable set on the
    /// current machine.
    pub fn all() -> [SimdTier; 2] {
        [SimdTier::Scalar, SimdTier::Avx2]
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The best tier the current hardware supports, ignoring `RIPPLE_SIMD` and
/// any [`force_tier`] override.
pub fn detected_tier() -> SimdTier {
    if SimdTier::Avx2.is_supported() {
        SimdTier::Avx2
    } else {
        SimdTier::Scalar
    }
}

/// Number of logical cores the runtime reports — recorded next to the tier
/// in every `BENCH_*.json` artifact so perf numbers are attributable to the
/// environment that produced them.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// `RIPPLE_SIMD` + hardware detection, resolved once per process.
static RESOLVED: OnceLock<SimdTier> = OnceLock::new();

/// Test override slot: `TIER_UNSET` defers to [`RESOLVED`].
static OVERRIDE: AtomicU8 = AtomicU8::new(TIER_UNSET);

const TIER_UNSET: u8 = u8::MAX;

fn tier_from_u8(v: u8) -> SimdTier {
    match v {
        1 => SimdTier::Avx2,
        _ => SimdTier::Scalar,
    }
}

fn tier_to_u8(t: SimdTier) -> u8 {
    match t {
        SimdTier::Scalar => 0,
        SimdTier::Avx2 => 1,
    }
}

fn resolve_from_env() -> SimdTier {
    let requested = std::env::var("RIPPLE_SIMD").unwrap_or_default();
    let tier = match requested.trim().to_ascii_lowercase().as_str() {
        "scalar" => SimdTier::Scalar,
        "avx2" => SimdTier::Avx2,
        _ => detected_tier(), // "auto", unset, or unrecognised
    };
    if tier.is_supported() {
        tier
    } else {
        SimdTier::Scalar
    }
}

/// The tier every dispatching kernel in the workspace currently runs —
/// `RIPPLE_SIMD` filtered by hardware support, resolved once and cached
/// (unless overridden by [`force_tier`]).
pub fn active_tier() -> SimdTier {
    match OVERRIDE.load(Ordering::Relaxed) {
        TIER_UNSET => *RESOLVED.get_or_init(resolve_from_env),
        v => tier_from_u8(v),
    }
}

/// Overrides (or with `None`, restores) the dispatched tier at runtime —
/// the hook `tests/simd_parity.rs` uses to compare tiers within one
/// process. Forcing an unsupported tier resolves to
/// [`SimdTier::Scalar`]. Because all tiers are bit-identical, flipping the
/// override while other threads compute is benign: each kernel call reads
/// the tier once at entry.
pub fn force_tier(tier: Option<SimdTier>) {
    let v = match tier {
        Some(t) if t.is_supported() => tier_to_u8(t),
        Some(_) => tier_to_u8(SimdTier::Scalar),
        None => TIER_UNSET,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// Whether the hot loops should issue software prefetches: any non-scalar
/// tier. Kept out of the scalar tier so `RIPPLE_SIMD=scalar` reproduces the
/// pre-SIMD baseline exactly (prefetching never changes *results*, only
/// timings).
#[inline]
pub fn prefetch_enabled() -> bool {
    active_tier() != SimdTier::Scalar
}

/// The environment fingerprint every `BENCH_*.json` artifact embeds, as a
/// brace-less JSON fragment: active tier, detected tier and core count.
/// Performance numbers without these fields are not comparable across
/// machines — a scalar 1-core runner and an AVX2 16-core box both upload
/// artifacts, and consumers must be able to tell them apart.
pub fn env_json_fields() -> String {
    format!(
        "\"simd_tier\": \"{}\", \"detected_tier\": \"{}\", \"cores\": {}",
        active_tier(),
        detected_tier(),
        detected_cores()
    )
}

/// Issues a read prefetch hint for the cache line holding `ptr`. Compiles to
/// `prefetcht0` on `x86_64` and nothing elsewhere. Safe for any pointer value: prefetch instructions do not fault.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

/// Cache lines prefetched per row by [`prefetch_slice`]: enough to cover an
/// embedding row up to 64 `f32` wide without flooding the load queue for the
/// very wide dims.
const PREFETCH_LINES: usize = 4;

/// Prefetches the leading cache lines of a row (up to `PREFETCH_LINES`
/// 64-byte lines). The sparse aggregation loops call this for the embedding
/// rows of neighbours a few positions ahead in the CSR index stream.
#[inline]
pub fn prefetch_slice(s: &[f32]) {
    let bytes = std::mem::size_of_val(s);
    let ptr = s.as_ptr().cast::<u8>();
    let mut off = 0usize;
    while off < bytes && off < PREFETCH_LINES * 64 {
        prefetch_read(ptr.wrapping_add(off));
        off += 64;
    }
}

/// How many neighbours ahead of the current accumulate the sparse loops
/// prefetch. Far enough to cover DRAM latency at the accumulate cost of a
/// typical embedding row, near enough that the lines are still resident when
/// reached.
pub const PREFETCH_AHEAD: usize = 4;

// ---------------------------------------------------------------------------
// AVX2 kernels (x86_64)
// ---------------------------------------------------------------------------

/// AVX2 implementations of the dispatching kernels. Each function mirrors the
/// scalar kernel's loop structure exactly — same tiling, same ascending-k
/// accumulation from zero, `mul` + `add` (never `fmadd`) — so the results are
/// bit-identical lane for lane.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    /// Lanes per AVX2 register (`f32`).
    const LANES: usize = 8;

    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by the dispatcher) and the same slice-shape
    /// contract as the scalar kernel: `a.len() == m*k`, `b.len() == k*n`,
    /// `out.len() == m*n`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_block(a: &[f32], m: usize, k: usize, n: usize, b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut i0 = 0;
        while i0 + 4 <= m {
            let mut j0 = 0;
            while j0 + LANES <= n {
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                let mut acc2 = _mm256_setzero_ps();
                let mut acc3 = _mm256_setzero_ps();
                for p in 0..k {
                    // One unaligned B-tile load reused across 4 rows of A —
                    // the same operand reuse as the scalar register tile.
                    let bt = _mm256_loadu_ps(bp.add(p * n + j0));
                    let a0 = _mm256_set1_ps(*ap.add(i0 * k + p));
                    let a1 = _mm256_set1_ps(*ap.add((i0 + 1) * k + p));
                    let a2 = _mm256_set1_ps(*ap.add((i0 + 2) * k + p));
                    let a3 = _mm256_set1_ps(*ap.add((i0 + 3) * k + p));
                    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a0, bt));
                    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a1, bt));
                    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(a2, bt));
                    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(a3, bt));
                }
                _mm256_storeu_ps(op.add(i0 * n + j0), acc0);
                _mm256_storeu_ps(op.add((i0 + 1) * n + j0), acc1);
                _mm256_storeu_ps(op.add((i0 + 2) * n + j0), acc2);
                _mm256_storeu_ps(op.add((i0 + 3) * n + j0), acc3);
                j0 += LANES;
            }
            if j0 < n {
                // The `n % 8` column tail: one more 4 x 8 tile whose lanes
                // past `n` are masked off on every load and store.
                let mask = tail_mask(n - j0);
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                let mut acc2 = _mm256_setzero_ps();
                let mut acc3 = _mm256_setzero_ps();
                for p in 0..k {
                    let bt = _mm256_maskload_ps(bp.add(p * n + j0), mask);
                    let a0 = _mm256_set1_ps(*ap.add(i0 * k + p));
                    let a1 = _mm256_set1_ps(*ap.add((i0 + 1) * k + p));
                    let a2 = _mm256_set1_ps(*ap.add((i0 + 2) * k + p));
                    let a3 = _mm256_set1_ps(*ap.add((i0 + 3) * k + p));
                    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a0, bt));
                    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a1, bt));
                    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(a2, bt));
                    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(a3, bt));
                }
                _mm256_maskstore_ps(op.add(i0 * n + j0), mask, acc0);
                _mm256_maskstore_ps(op.add((i0 + 1) * n + j0), mask, acc1);
                _mm256_maskstore_ps(op.add((i0 + 2) * n + j0), mask, acc2);
                _mm256_maskstore_ps(op.add((i0 + 3) * n + j0), mask, acc3);
            }
            i0 += 4;
        }
        for i in i0..m {
            row_matmul(&a[i * k..(i + 1) * k], b, n, &mut out[i * n..(i + 1) * n]);
        }
    }

    /// Lane mask of a partial column tile: lane `j` is active iff
    /// `j < cols`. Masked-off lanes are never read or written, so a tail
    /// tile may sit at the very end of its slice. Each active lane runs the
    /// scalar tail's sequence — from 0.0, ascending `k`, mul then add — so
    /// the tail stays bit-identical to `ops::gemm_row_tail`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tail_mask(cols: usize) -> __m256i {
        debug_assert!(cols > 0 && cols < LANES);
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(cols as i32), lanes)
    }

    /// # Safety
    ///
    /// Requires AVX2 and `w.len() == x.len() * n`, `out.len() == n`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_matmul(x: &[f32], w: &[f32], n: usize, out: &mut [f32]) {
        debug_assert_eq!(w.len(), x.len() * n);
        debug_assert_eq!(out.len(), n);
        let wp = w.as_ptr();
        let op = out.as_mut_ptr();
        let mut j0 = 0;
        while j0 + LANES <= n {
            let mut acc = _mm256_setzero_ps();
            for (p, &xp) in x.iter().enumerate() {
                let wt = _mm256_loadu_ps(wp.add(p * n + j0));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(xp), wt));
            }
            _mm256_storeu_ps(op.add(j0), acc);
            j0 += LANES;
        }
        if j0 < n {
            let mask = tail_mask(n - j0);
            let mut acc = _mm256_setzero_ps();
            for (p, &xp) in x.iter().enumerate() {
                let wt = _mm256_maskload_ps(wp.add(p * n + j0), mask);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(xp), wt));
            }
            _mm256_maskstore_ps(op.add(j0), mask, acc);
        }
    }

    /// Lane groups [`row_sq_dist`] scores side by side: each shares one
    /// broadcast of `x[p]`, and their independent add chains hide the
    /// latency of one chain.
    const SQ_DIST_GROUPS: usize = 4;

    /// Squared L2 distance from `x` to every column of the `x.len() × n`
    /// table `w`, 8 columns per lane group. Each lane runs the scalar
    /// sequence of `ops::row_sq_dist_into` — from 0.0, `p` ascending, `sub`
    /// then `mul` then `add`, never `fmadd` — so every distance is
    /// bit-identical to the scalar chain. The `n % 8` column tail is one
    /// masked tile.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `w.len() == x.len() * n`, `out.len() == n`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_sq_dist(x: &[f32], w: &[f32], n: usize, out: &mut [f32]) {
        debug_assert_eq!(w.len(), x.len() * n);
        debug_assert_eq!(out.len(), n);
        let wp = w.as_ptr();
        let op = out.as_mut_ptr();
        let mut j0 = 0;
        while j0 + SQ_DIST_GROUPS * LANES <= n {
            let mut acc = [_mm256_setzero_ps(); SQ_DIST_GROUPS];
            for (p, &xp) in x.iter().enumerate() {
                let xv = _mm256_set1_ps(xp);
                let tile = wp.add(p * n + j0);
                for (g, acc) in acc.iter_mut().enumerate() {
                    let d = _mm256_sub_ps(_mm256_loadu_ps(tile.add(g * LANES)), xv);
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(d, d));
                }
            }
            for (g, acc) in acc.into_iter().enumerate() {
                _mm256_storeu_ps(op.add(j0 + g * LANES), acc);
            }
            j0 += SQ_DIST_GROUPS * LANES;
        }
        while j0 + LANES <= n {
            let mut acc = _mm256_setzero_ps();
            for (p, &xp) in x.iter().enumerate() {
                let d = _mm256_sub_ps(_mm256_loadu_ps(wp.add(p * n + j0)), _mm256_set1_ps(xp));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
            }
            _mm256_storeu_ps(op.add(j0), acc);
            j0 += LANES;
        }
        if j0 < n {
            // Masked-off lanes load 0.0 and are never stored.
            let mask = tail_mask(n - j0);
            let mut acc = _mm256_setzero_ps();
            for (p, &xp) in x.iter().enumerate() {
                let wt = _mm256_maskload_ps(wp.add(p * n + j0), mask);
                let d = _mm256_sub_ps(wt, _mm256_set1_ps(xp));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
            }
            _mm256_maskstore_ps(op.add(j0), mask, acc);
        }
    }

    /// Scores eight rows per block, one row per lane: the products of 8 rows
    /// × 8 dims are transposed in registers so that register `j` holds dim
    /// `d + j` of every row, then added into the lane accumulators in `j`
    /// order — each lane runs exactly `vector::dot`'s sequence. Dimension
    /// tails are gathered one column at a time; the id tail (`ids.len() % 8`
    /// rows) runs the scalar reference.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `query.len() == dim`, `out.len() == ids.len()` and
    /// `(id + 1) * dim <= table.len()` for every id.
    #[target_feature(enable = "avx2")]
    pub unsafe fn score_rows(
        table: &[f32],
        dim: usize,
        ids: &[u32],
        query: &[f32],
        out: &mut [f32],
    ) {
        debug_assert_eq!(query.len(), dim);
        debug_assert_eq!(out.len(), ids.len());
        let tp = table.as_ptr();
        let qp = query.as_ptr();
        let blocks = ids.len() / LANES * LANES;
        let dim_body = dim / LANES * LANES;
        for (block, scores) in ids[..blocks]
            .chunks_exact(LANES)
            .zip(out.chunks_exact_mut(LANES))
        {
            let mut rows = [tp; LANES];
            for (row, &id) in rows.iter_mut().zip(block) {
                *row = tp.add(id as usize * dim);
            }
            // −0.0: the identity `vector::dot`'s `Sum` starts from.
            let mut acc = _mm256_set1_ps(-0.0);
            let mut d = 0;
            while d < dim_body {
                let q = _mm256_loadu_ps(qp.add(d));
                let mut products = [_mm256_setzero_ps(); LANES];
                for (product, row) in products.iter_mut().zip(rows) {
                    *product = _mm256_mul_ps(_mm256_loadu_ps(row.add(d)), q);
                }
                for column in transpose8(products) {
                    acc = _mm256_add_ps(acc, column);
                }
                d += LANES;
            }
            while d < dim {
                let column = _mm256_set_ps(
                    *rows[7].add(d),
                    *rows[6].add(d),
                    *rows[5].add(d),
                    *rows[4].add(d),
                    *rows[3].add(d),
                    *rows[2].add(d),
                    *rows[1].add(d),
                    *rows[0].add(d),
                );
                acc = _mm256_add_ps(acc, _mm256_mul_ps(column, _mm256_set1_ps(*qp.add(d))));
                d += 1;
            }
            _mm256_storeu_ps(scores.as_mut_ptr(), acc);
        }
        crate::ops::score_rows_scalar(table, dim, &ids[blocks..], query, &mut out[blocks..]);
    }

    /// 8 × 8 transpose: `r[i]` lane `j` becomes `t[j]` lane `i`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(r: [__m256; LANES]) -> [__m256; LANES] {
        // Interleave row pairs: lanes (0, 1, 4, 5) and (2, 3, 6, 7).
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        // Four rows per column, per 128-bit half.
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        // Join the halves: low halves hold dims 0..4, high halves 4..8.
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }

    /// # Safety
    ///
    /// Requires AVX2 and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            let s = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, s));
            i += LANES;
        }
        while i < n {
            *dp.add(i) += *sp.add(i);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sub_assign(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            let s = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_sub_ps(d, s));
            i += LANES;
        }
        while i < n {
            *dp.add(i) -= *sp.add(i);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            let s = _mm256_loadu_ps(sp.add(i));
            // mul + add, not fmadd: each lane rounds exactly like the scalar
            // `*d += alpha * *s`.
            _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, _mm256_mul_ps(va, s)));
            i += LANES;
        }
        while i < n {
            *dp.add(i) += alpha * *sp.add(i);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale(dst: &mut [f32], alpha: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(d, va));
            i += LANES;
        }
        while i < n {
            *dp.add(i) *= alpha;
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scaled_copy(dst: &mut [f32], src: &[f32], alpha: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            let s = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(s, va));
            i += LANES;
        }
        while i < n {
            *dp.add(i) = *sp.add(i) * alpha;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_supported_and_detection_is_sane() {
        assert!(SimdTier::Scalar.is_supported());
        assert!(detected_tier().is_supported());
        assert!(detected_cores() >= 1);
    }

    #[test]
    fn force_tier_round_trip() {
        let baseline = active_tier();
        force_tier(Some(SimdTier::Scalar));
        assert_eq!(active_tier(), SimdTier::Scalar);
        assert!(!prefetch_enabled());
        // Forcing an unsupported tier must degrade to scalar, not fault.
        for t in SimdTier::all() {
            if !t.is_supported() {
                force_tier(Some(t));
                assert_eq!(active_tier(), SimdTier::Scalar);
            }
        }
        force_tier(None);
        assert_eq!(active_tier(), baseline);
    }

    #[test]
    fn prefetch_never_faults() {
        // Prefetch is a hint: empty, short and unaligned slices are all fine.
        prefetch_slice(&[]);
        let v = vec![1.0f32; 1000];
        prefetch_slice(&v);
        prefetch_slice(&v[3..17]);
        prefetch_read(std::ptr::null::<f32>());
    }

    #[test]
    fn tier_names_round_trip_with_display() {
        for t in SimdTier::all() {
            assert_eq!(t.to_string(), t.name());
        }
    }
}
