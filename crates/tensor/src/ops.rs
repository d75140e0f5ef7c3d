//! Matrix-level operations: GEMM, row projections and reductions.
//!
//! The GNN `Update` step (Eqn. 2 of the paper) is a dense multiply of an
//! aggregated embedding by a learned weight matrix; this module provides both
//! the full-table variant used by layer-wise inference ([`gemm_into`] /
//! [`matmul`]) and the single-row variant used when recomputing or
//! incrementally updating one vertex ([`row_matmul_into`] / [`row_matmul`]).
//!
//! # The `_into` convention
//!
//! Every hot kernel has an `_into` form that writes into caller-provided
//! storage and performs **no heap allocation** once that storage has grown to
//! its steady-state capacity; the allocating forms are thin wrappers kept for
//! convenience and tests. All kernels accumulate each output element over the
//! shared dimension in ascending index order from a zero accumulator, with no
//! zero-skip branches, so the batched and row-at-a-time paths produce
//! **bit-identical** results — the property the engines' parity tests pin.
//!
//! [`score_rows_into`] is the read-side kernel: it scores a list of table
//! rows against one query vector (the serving tier's top-k scan). It keeps
//! the same ascending-index, mul-then-add order but seeds each score with
//! **−0.0** rather than +0.0, because its contract is with a different
//! reference: [`crate::vector::dot`], i.e. `f32`'s iterator `Sum`, whose
//! identity is −0.0. The seeds differ only when every product is −0.0 (an
//! all-zero row against a query with negative components): +0.0 would then
//! score +0.0 where `dot` scores −0.0, and a top-k ordered by `total_cmp`
//! tells the two apart.
//!
//! [`row_sq_dist_into`] is the IVF assignment kernel: one row's squared L2
//! distance to every column of a transposed centroid table, each column
//! summed in the same ascending order from +0.0.
//!
//! # SIMD dispatch
//!
//! [`gemm_block_into`], [`row_matmul_into`], [`row_sq_dist_into`] and
//! [`score_rows_into`] dispatch once per call on
//! [`crate::simd::active_tier`] to explicit AVX2 micro-kernels that
//! reproduce the scalar tiling and per-element accumulation order exactly
//! (see [`crate::simd`] for why the tiers stay bit-identical);
//! [`gather_rows_into`] additionally software-prefetches upcoming source
//! rows, whose indices are visible ahead of time.
//! `tests/simd_parity.rs` pins every tier against the scalar reference bit
//! for bit.

use crate::simd::{self, SimdTier};
use crate::{Matrix, Result, TensorError};

/// Columns per register tile of the GEMM micro-kernel. Eight `f32`
/// accumulators per output row fit comfortably in two SSE (or one AVX)
/// register without spilling.
const GEMM_NR: usize = 8;

/// Rows per register tile of the GEMM micro-kernel: each loaded `B` tile row
/// is reused across this many rows of `A`, quartering traffic on the shared
/// operand.
const GEMM_MR: usize = 4;

/// Dense matrix multiplication over **borrowed row blocks**: multiplies the
/// `m x B.rows()` row-major block `a_rows` by `B`, writing the `m x B.cols()`
/// row-major block `out`. This is the zero-copy core of the batched compute
/// path — callers GEMM directly from (and into) sub-blocks of larger tables
/// without materialising `Matrix` operands. Performs no heap allocation.
///
/// The kernel is register-blocked: output is produced in `4 x 8` tiles held
/// in local accumulators, with scalar edge loops for the row/column tails.
/// Every output element accumulates `A[i][p] * B[p][j]` for `p` ascending
/// from a zero accumulator — the exact float-operation sequence of
/// [`row_matmul_into`] — so full-table and row-at-a-time evaluation are
/// bit-identical.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a_rows.len() != m * B.rows()`
/// or `out.len() != m * B.cols()`.
pub fn gemm_block_into(a_rows: &[f32], m: usize, b: &Matrix, out: &mut [f32]) -> Result<()> {
    let k = b.rows();
    let n = b.cols();
    if a_rows.len() != m * k {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_block_into",
            left: (m, a_rows.len() / m.max(1)),
            right: b.shape(),
        });
    }
    if out.len() != m * n {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_block_into",
            left: (m, out.len() / m.max(1)),
            right: (m, n),
        });
    }
    match simd::active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher only returns Avx2 when the CPU supports it,
        // and the shape checks above establish the kernel's slice contract.
        SimdTier::Avx2 => unsafe { simd::x86::gemm_block(a_rows, m, k, n, b.as_slice(), out) },
        _ => gemm_block_scalar(a_rows, m, k, n, b.as_slice(), out),
    }
    Ok(())
}

/// The scalar reference implementation of [`gemm_block_into`] — the
/// accumulation-order contract every SIMD tier must reproduce bit for bit.
fn gemm_block_scalar(
    a_rows: &[f32],
    m: usize,
    k: usize,
    n: usize,
    b_data: &[f32],
    out: &mut [f32],
) {
    let a_data = a_rows;
    let out_data = out;

    let mut i0 = 0;
    while i0 + GEMM_MR <= m {
        let mut j0 = 0;
        while j0 + GEMM_NR <= n {
            let mut acc = [[0.0f32; GEMM_NR]; GEMM_MR];
            for p in 0..k {
                let b_tile = &b_data[p * n + j0..p * n + j0 + GEMM_NR];
                for (di, acc_row) in acc.iter_mut().enumerate() {
                    let a_ip = a_data[(i0 + di) * k + p];
                    for (jj, acc_cell) in acc_row.iter_mut().enumerate() {
                        *acc_cell += a_ip * b_tile[jj];
                    }
                }
            }
            for (di, acc_row) in acc.iter().enumerate() {
                out_data[(i0 + di) * n + j0..(i0 + di) * n + j0 + GEMM_NR].copy_from_slice(acc_row);
            }
            j0 += GEMM_NR;
        }
        for di in 0..GEMM_MR {
            let i = i0 + di;
            gemm_row_tail(
                &a_data[i * k..(i + 1) * k],
                b_data,
                n,
                j0,
                &mut out_data[i * n..(i + 1) * n],
            );
        }
        i0 += GEMM_MR;
    }
    for i in i0..m {
        row_matmul_scalar(
            &a_data[i * k..(i + 1) * k],
            b_data,
            n,
            &mut out_data[i * n..(i + 1) * n],
        );
    }
}

/// Dense matrix multiplication `A (m x k) * B (k x n)` written into `out`,
/// which is resized (reusing its capacity) to `m x n`. Steady-state calls
/// perform no heap allocation. Thin wrapper over [`gemm_block_into`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols() != B.rows()`.
pub fn gemm_into(a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_into",
            left: a.shape(),
            right: b.shape(),
        });
    }
    out.resize_reuse(a.rows(), b.cols());
    gemm_block_into(a.as_slice(), a.rows(), b, out.as_mut_slice())
}

/// Scalar column tail of one GEMM output row: columns `j0..n`. The AVX2 tier
/// runs the same per-column sequence in a masked 8-lane tile instead.
#[inline]
fn gemm_row_tail(a_row: &[f32], b_data: &[f32], n: usize, j0: usize, out_row: &mut [f32]) {
    for (j, out_cell) in out_row.iter_mut().enumerate().skip(j0).take(n - j0) {
        let mut acc = 0.0f32;
        for (p, &a_ip) in a_row.iter().enumerate() {
            acc += a_ip * b_data[p * n + j];
        }
        *out_cell = acc;
    }
}

/// One full output row, register-tiled over columns (the `m < 4` tail of
/// [`gemm_into`] and the scalar body of [`row_matmul_into`]).
#[inline]
fn row_matmul_scalar(x: &[f32], w_data: &[f32], n: usize, out: &mut [f32]) {
    let mut j0 = 0;
    while j0 + GEMM_NR <= n {
        let mut acc = [0.0f32; GEMM_NR];
        for (p, &xp) in x.iter().enumerate() {
            let w_tile = &w_data[p * n + j0..p * n + j0 + GEMM_NR];
            for (jj, acc_cell) in acc.iter_mut().enumerate() {
                *acc_cell += xp * w_tile[jj];
            }
        }
        out[j0..j0 + GEMM_NR].copy_from_slice(&acc);
        j0 += GEMM_NR;
    }
    gemm_row_tail(x, w_data, n, j0, out);
}

/// Dense matrix multiplication `A (m x k) * B (k x n) -> (m x n)`, allocating
/// the result. Thin wrapper over [`gemm_into`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols() != B.rows()`.
///
/// # Example
///
/// ```
/// # use ripple_tensor::{Matrix, ops};
/// # fn main() -> Result<(), ripple_tensor::TensorError> {
/// let a = Matrix::eye(2, 2);
/// let b = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(ops::matmul(&a, &b)?, b);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let mut out = Matrix::default();
    gemm_into(a, b, &mut out)?;
    Ok(out)
}

/// Multiplies a single row vector `x (1 x k)` by a matrix `W (k x n)`,
/// **overwriting** `out` (length `n`). Performs no heap allocation.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.len() != w.rows()` or
/// `out.len() != w.cols()`.
pub fn row_matmul_into(x: &[f32], w: &Matrix, out: &mut [f32]) -> Result<()> {
    if x.len() != w.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "row_matmul_into",
            left: (1, x.len()),
            right: w.shape(),
        });
    }
    if out.len() != w.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "row_matmul_into",
            left: (1, out.len()),
            right: (1, w.cols()),
        });
    }
    let n = w.cols();
    match simd::active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only dispatched when detected; shapes checked above.
        SimdTier::Avx2 => unsafe { simd::x86::row_matmul(x, w.as_slice(), n, out) },
        _ => row_matmul_scalar(x, w.as_slice(), n, out),
    }
    Ok(())
}

/// Multiplies a single row vector `x (1 x k)` by a matrix `W (k x n)`,
/// returning a freshly allocated vector of length `n`. Thin wrapper over
/// [`row_matmul_into`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.len() != w.rows()`.
pub fn row_matmul(x: &[f32], w: &Matrix) -> Result<Vec<f32>> {
    let mut out = vec![0.0f32; w.cols()];
    row_matmul_into(x, w, &mut out)?;
    Ok(out)
}

/// Squared L2 distance from a row vector `x (1 x k)` to every column of a
/// transposed table `W_t (k x n)`: `out[j] = Σ_p (W_t[p][j] − x[p])²`,
/// **overwriting** `out` (length `n`). Performs no heap allocation. This is
/// the IVF assignment kernel: with `W_t` the `dim × clusters` transpose of a
/// centroid table, `out` holds the row's distance to every centroid.
///
/// Each distance is the scalar chain over one column, from 0.0 with `p`
/// ascending: subtract, multiply, then add (never a fused multiply-add).
/// Because `(w − x)²` and `(x − w)²` round to the same bits, this equals a
/// row-major `Σ (x − c)²` loop over each centroid. The AVX2 tier scores 8
/// columns per lane group with a masked tile for the `n % 8` tail.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.len() != w_t.rows()` or
/// `out.len() != w_t.cols()`.
pub fn row_sq_dist_into(x: &[f32], w_t: &Matrix, out: &mut [f32]) -> Result<()> {
    if x.len() != w_t.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "row_sq_dist_into",
            left: (1, x.len()),
            right: w_t.shape(),
        });
    }
    if out.len() != w_t.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "row_sq_dist_into",
            left: (1, out.len()),
            right: (1, w_t.cols()),
        });
    }
    let n = w_t.cols();
    match simd::active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only dispatched when detected; shapes checked above.
        SimdTier::Avx2 => unsafe { simd::x86::row_sq_dist(x, w_t.as_slice(), n, out) },
        _ => row_sq_dist_scalar(x, w_t.as_slice(), n, out),
    }
    Ok(())
}

/// The scalar reference of [`row_sq_dist_into`]: each column's distance is
/// its own sequential chain over `p`, register-tiled 8 columns at a time
/// like [`row_matmul_scalar`].
fn row_sq_dist_scalar(x: &[f32], w_data: &[f32], n: usize, out: &mut [f32]) {
    let mut j0 = 0;
    while j0 + GEMM_NR <= n {
        let mut acc = [0.0f32; GEMM_NR];
        for (p, &xp) in x.iter().enumerate() {
            let w_tile = &w_data[p * n + j0..p * n + j0 + GEMM_NR];
            for (acc_cell, &w) in acc.iter_mut().zip(w_tile) {
                let d = w - xp;
                *acc_cell += d * d;
            }
        }
        out[j0..j0 + GEMM_NR].copy_from_slice(&acc);
        j0 += GEMM_NR;
    }
    for (j, out_cell) in out.iter_mut().enumerate().skip(j0) {
        let mut acc = 0.0f32;
        for (p, &xp) in x.iter().enumerate() {
            let d = w_data[p * n + j] - xp;
            acc += d * d;
        }
        *out_cell = acc;
    }
}

/// Packs the selected rows of `m` into `out` (resized, capacity-reusing, to
/// `indices.len() x m.cols()`). This is the gather that batched frontier
/// evaluation uses to build contiguous GEMM operands from scattered vertex
/// rows; steady-state calls perform no heap allocation.
///
/// The index list makes upcoming source rows visible before they are copied,
/// so on non-scalar tiers the loop issues a software prefetch
/// [`simd::PREFETCH_AHEAD`] slots ahead — the scattered-row analogue of the
/// CSR neighbour-stream prefetch in the aggregation phase. Prefetching never
/// changes the gathered bytes.
///
/// # Errors
///
/// Returns [`TensorError::IndexOutOfBounds`] if any index is out of range.
pub fn gather_rows_into(m: &Matrix, indices: &[usize], out: &mut Matrix) -> Result<()> {
    out.resize_reuse(indices.len(), m.cols());
    if simd::prefetch_enabled() {
        for &i in indices.iter().take(simd::PREFETCH_AHEAD) {
            if let Ok(row) = m.try_row(i) {
                simd::prefetch_slice(row);
            }
        }
        for (slot, &i) in indices.iter().enumerate() {
            if let Some(&ahead) = indices.get(slot + simd::PREFETCH_AHEAD) {
                if let Ok(row) = m.try_row(ahead) {
                    simd::prefetch_slice(row);
                }
            }
            let row = m.try_row(i)?;
            out.row_mut(slot).copy_from_slice(row);
        }
    } else {
        for (slot, &i) in indices.iter().enumerate() {
            let row = m.try_row(i)?;
            out.row_mut(slot).copy_from_slice(row);
        }
    }
    Ok(())
}

/// Scores the rows `ids` of a flat row-major `table` (`dim` floats per row)
/// against `query`: `out[i] = Σ_d table[ids[i]·dim + d] · query[d]`,
/// **overwriting** `out`. Ids may come in any order and repeat. Performs no
/// heap allocation.
///
/// Each score is bit-identical to [`crate::vector::dot`] of its row — the
/// scalar reference: `mul` then `add` per dimension, `d` ascending, from a
/// **−0.0** seed (the identity of `f32`'s `Sum`). The AVX2 tier scores eight
/// rows per block, one row per lane, by transposing 8 rows × 8 dims of
/// products in registers; dimension and id tails stay scalar.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `query.len() != dim` or
/// `out.len() != ids.len()`, and [`TensorError::IndexOutOfBounds`] if any
/// id names a row past the end of `table` — checked before any row is read.
pub fn score_rows_into(
    table: &[f32],
    dim: usize,
    ids: &[u32],
    query: &[f32],
    out: &mut [f32],
) -> Result<()> {
    if query.len() != dim {
        return Err(TensorError::ShapeMismatch {
            op: "score_rows_into",
            left: (1, dim),
            right: (1, query.len()),
        });
    }
    if out.len() != ids.len() {
        return Err(TensorError::ShapeMismatch {
            op: "score_rows_into",
            left: (ids.len(), 1),
            right: (out.len(), 1),
        });
    }
    // With `dim == 0` every row is empty and every id names one.
    if let (Some(rows), Some(&max)) = (table.len().checked_div(dim), ids.iter().max()) {
        if max as usize >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: max as usize,
                bound: rows,
            });
        }
    }
    match simd::active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only dispatched when detected; shapes and every id
        // were checked above.
        SimdTier::Avx2 => unsafe { simd::x86::score_rows(table, dim, ids, query, out) },
        _ => score_rows_scalar(table, dim, ids, query, out),
    }
    Ok(())
}

/// The scalar reference of [`score_rows_into`] (also the AVX2 id tail).
pub(crate) fn score_rows_scalar(
    table: &[f32],
    dim: usize,
    ids: &[u32],
    query: &[f32],
    out: &mut [f32],
) {
    for (score, &id) in out.iter_mut().zip(ids) {
        let start = id as usize * dim;
        *score = crate::vector::dot(&table[start..start + dim], query);
    }
}

/// Element-wise sum of two matrices of equal shape.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn add(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "add",
            left: a.shape(),
            right: b.shape(),
        });
    }
    let mut out = a.clone();
    crate::vector::add_assign(out.as_mut_slice(), b.as_slice());
    Ok(out)
}

/// Element-wise difference `a - b` of two matrices of equal shape.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn sub(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "sub",
            left: a.shape(),
            right: b.shape(),
        });
    }
    let mut out = a.clone();
    crate::vector::sub_assign(out.as_mut_slice(), b.as_slice());
    Ok(out)
}

/// Scales every element of the matrix by `alpha`, returning a new matrix.
pub fn scale(a: &Matrix, alpha: f32) -> Matrix {
    let mut out = a.clone();
    crate::vector::scale(out.as_mut_slice(), alpha);
    out
}

/// Sums a set of rows of `m` (selected by `indices`), returning a vector of
/// width `m.cols()`. This is the `sum` aggregation over a neighbourhood.
///
/// # Errors
///
/// Returns [`TensorError::IndexOutOfBounds`] if any index is out of range.
pub fn sum_rows(m: &Matrix, indices: &[usize]) -> Result<Vec<f32>> {
    let mut acc = vec![0.0f32; m.cols()];
    for &i in indices {
        let row = m.try_row(i)?;
        crate::vector::add_assign(&mut acc, row);
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap()
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let id = Matrix::eye(2, 2);
        assert_eq!(matmul(&m, &id).unwrap(), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn row_matmul_matches_matmul() {
        let m = sample();
        let w = Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 2.0, 1.0]]).unwrap();
        let full = matmul(&m, &w).unwrap();
        for r in 0..m.rows() {
            let single = row_matmul(m.row(r), &w).unwrap();
            assert_eq!(single.as_slice(), full.row(r));
        }
    }

    #[test]
    fn row_matmul_shape_mismatch() {
        let w = Matrix::zeros(3, 2);
        assert!(row_matmul(&[1.0, 2.0], &w).is_err());
        let mut out = vec![0.0; 5];
        assert!(row_matmul_into(&[1.0, 2.0, 3.0], &w, &mut out).is_err());
    }

    /// The register-tiled GEMM and the row kernel must be *bit*-identical for
    /// every shape, including the `< 4` row and `< 8` column tails.
    #[test]
    fn gemm_into_bitwise_matches_row_matmul_for_all_tails() {
        for (m, k, n) in [(1, 3, 2), (4, 5, 8), (7, 9, 11), (5, 16, 8), (9, 2, 19)] {
            let a = crate::init::uniform(m, k, -2.0, 2.0, 11 + (m * n) as u64);
            let b = crate::init::uniform(k, n, -2.0, 2.0, 23 + (k * n) as u64);
            let mut out = Matrix::default();
            gemm_into(&a, &b, &mut out).unwrap();
            assert_eq!(out.shape(), (m, n));
            let mut row_out = vec![0.0f32; n];
            for i in 0..m {
                row_matmul_into(a.row(i), &b, &mut row_out).unwrap();
                for (x, y) in out.row(i).iter().zip(row_out.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n}) row {i}");
                }
            }
        }
    }

    #[test]
    fn gemm_into_reuses_capacity_across_shapes() {
        let a = Matrix::filled(6, 4, 1.0);
        let b = Matrix::filled(4, 6, 2.0);
        let mut out = Matrix::default();
        gemm_into(&a, &b, &mut out).unwrap();
        assert_eq!(out.row(0), &[8.0; 6]);
        // Shrinking re-uses the buffer and yields correct values.
        let small_a = Matrix::filled(2, 4, 1.0);
        gemm_into(&small_a, &b, &mut out).unwrap();
        assert_eq!(out.shape(), (2, 6));
        assert_eq!(out.row(1), &[8.0; 6]);
    }

    #[test]
    fn gemm_into_shape_mismatch() {
        let mut out = Matrix::default();
        assert!(gemm_into(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3), &mut out).is_err());
    }

    #[test]
    fn row_matmul_into_matches_allocating_form() {
        let w = Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 2.0, 1.0]]).unwrap();
        let x = [0.0f32, 3.0];
        let alloc = row_matmul(&x, &w).unwrap();
        let mut out = vec![9.0f32; 3];
        row_matmul_into(&x, &w, &mut out).unwrap();
        assert_eq!(alloc, out);
        assert_eq!(out, vec![0.0, 6.0, 3.0]);
    }

    #[test]
    fn gather_rows_into_packs_selected_rows() {
        let m = sample();
        let mut out = Matrix::default();
        gather_rows_into(&m, &[2, 0, 2], &mut out).unwrap();
        assert_eq!(out.shape(), (3, 2));
        assert_eq!(out.row(0), &[5.0, 6.0]);
        assert_eq!(out.row(1), &[1.0, 2.0]);
        assert_eq!(out.row(2), &[5.0, 6.0]);
        gather_rows_into(&m, &[], &mut out).unwrap();
        assert_eq!(out.shape(), (0, 2));
        assert!(gather_rows_into(&m, &[7], &mut out).is_err());
    }

    #[test]
    fn score_rows_into_matches_dot_and_rejects_bad_input() {
        let m = sample();
        let query = [0.5f32, -1.0];
        let ids = [2u32, 0, 2];
        let mut out = [9.0f32; 3];
        score_rows_into(m.as_slice(), 2, &ids, &query, &mut out).unwrap();
        for (score, &id) in out.iter().zip(&ids) {
            let want = crate::vector::dot(m.row(id as usize), &query);
            assert_eq!(score.to_bits(), want.to_bits());
        }
        // An out-of-range id fails before anything is read or written.
        let mut out = [9.0f32; 2];
        assert_eq!(
            score_rows_into(m.as_slice(), 2, &[1, 3], &query, &mut out),
            Err(TensorError::IndexOutOfBounds { index: 3, bound: 3 })
        );
        assert_eq!(out, [9.0; 2]);
        assert!(score_rows_into(m.as_slice(), 2, &[0], &[1.0], &mut [0.0]).is_err());
        assert!(score_rows_into(m.as_slice(), 2, &[0, 1], &query, &mut [0.0]).is_err());
    }

    #[test]
    fn add_sub_round_trip() {
        let a = sample();
        let b = Matrix::filled(3, 2, 1.0);
        let s = add(&a, &b).unwrap();
        assert_eq!(s.row(0), &[2.0, 3.0]);
        let d = sub(&s, &b).unwrap();
        assert_eq!(d, a);
        assert!(add(&a, &Matrix::zeros(1, 1)).is_err());
        assert!(sub(&a, &Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn scale_matrix() {
        let a = sample();
        let s = scale(&a, 2.0);
        assert_eq!(s.row(2), &[10.0, 12.0]);
    }

    #[test]
    fn sum_rows_over_subset() {
        let m = sample();
        let s = sum_rows(&m, &[0, 2]).unwrap();
        assert_eq!(s, vec![6.0, 8.0]);
        assert_eq!(sum_rows(&m, &[]).unwrap(), vec![0.0, 0.0]);
        assert!(sum_rows(&m, &[9]).is_err());
    }
}
