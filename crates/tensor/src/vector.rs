//! Free functions on `f32` slices used as embedding vectors.
//!
//! The incremental engine spends most of its time adding and subtracting
//! embedding-sized vectors (applying delta messages to mailboxes and
//! embeddings), so these helpers are the hottest code in the workspace. They
//! operate on plain slices to avoid committing callers to a particular
//! container.
//!
//! The element-wise mutators ([`add_assign`], [`sub_assign`], [`axpy`],
//! [`scale`], [`scaled_copy`]) dispatch on [`crate::simd::active_tier`] to
//! explicit AVX2 lane loops. Each lane performs the identical
//! `mul`/`add` rounding sequence as the scalar element it replaces (no FMA
//! contraction), so every tier is bit-identical — `tests/simd_parity.rs`
//! pins it. The *reductions* ([`dot`], [`l2_norm`]) stay scalar on every
//! tier: a lane-parallel reduction would reassociate the sum and break
//! bit-parity with the serial accumulation order. Many dot products against
//! one query go through [`crate::ops::score_rows_into`] instead, which keeps
//! each row's serial order and parallelises across rows.

use crate::simd::{self, SimdTier};

/// Element-wise `dst += src`.
///
/// # Panics
///
/// Panics if the slices have different lengths; callers always pass
/// embedding vectors of a fixed, model-determined width.
///
/// ```
/// let mut dst = vec![1.0, 2.0];
/// ripple_tensor::add_assign(&mut dst, &[0.5, 0.5]);
/// assert_eq!(dst, vec![1.5, 2.5]);
/// ```
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
    match simd::active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 only dispatched when detected; lengths checked above.
        SimdTier::Avx2 => unsafe { simd::x86::add_assign(dst, src) },
        _ => {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += *s;
            }
        }
    }
}

/// Element-wise `dst -= src`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "sub_assign length mismatch");
    match simd::active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 only dispatched when detected; lengths checked above.
        SimdTier::Avx2 => unsafe { simd::x86::sub_assign(dst, src) },
        _ => {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d -= *s;
            }
        }
    }
}

/// Element-wise `dst += alpha * src` (the BLAS "axpy" primitive).
///
/// This is the single operation behind Ripple's delta messages for the
/// `weighted sum` and `mean` aggregators: a message `m = alpha*(h_new - h_old)`
/// is applied to a mailbox with one axpy.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    match simd::active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 only dispatched when detected; lengths checked above.
        SimdTier::Avx2 => unsafe { simd::x86::axpy(dst, alpha, src) },
        _ => {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += alpha * *s;
            }
        }
    }
}

/// Element-wise `dst *= alpha`.
pub fn scale(dst: &mut [f32], alpha: f32) {
    match simd::active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 only dispatched when detected.
        SimdTier::Avx2 => unsafe { simd::x86::scale(dst, alpha) },
        _ => {
            for d in dst.iter_mut() {
                *d *= alpha;
            }
        }
    }
}

/// Element-wise `dst = alpha * src` — the out-of-place form of [`scale`]
/// the `Mean` aggregator's finalize loop uses to normalise a raw aggregate
/// into its output row without a copy-then-scale round trip.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn scaled_copy(dst: &mut [f32], src: &[f32], alpha: f32) {
    assert_eq!(dst.len(), src.len(), "scaled_copy length mismatch");
    match simd::active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 only dispatched when detected; lengths checked above.
        SimdTier::Avx2 => unsafe { simd::x86::scaled_copy(dst, src, alpha) },
        _ => {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d = alpha * *s;
            }
        }
    }
}

/// Euclidean (L2) norm of a vector.
pub fn l2_norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Largest absolute element-wise difference between two equal-length vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "max_abs_diff length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Returns the index of the largest element (argmax). Ties resolve to the
/// first maximal index; returns `None` for an empty slice.
///
/// Used to turn a final-layer embedding (class logits) into a predicted label.
pub fn argmax(v: &[f32]) -> Option<usize> {
    if v.is_empty() {
        return None;
    }
    let mut best = 0usize;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sub_round_trip() {
        let mut v = vec![1.0, 2.0, 3.0];
        add_assign(&mut v, &[1.0, 1.0, 1.0]);
        assert_eq!(v, vec![2.0, 3.0, 4.0]);
        sub_assign(&mut v, &[1.0, 1.0, 1.0]);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn axpy_matches_manual() {
        let mut v = vec![1.0, 2.0];
        axpy(&mut v, 0.5, &[4.0, 8.0]);
        assert_eq!(v, vec![3.0, 6.0]);
    }

    #[test]
    fn axpy_with_zero_alpha_is_noop() {
        let mut v = vec![1.0, 2.0];
        axpy(&mut v, 0.0, &[100.0, 100.0]);
        assert_eq!(v, vec![1.0, 2.0]);
    }

    #[test]
    fn scale_multiplies_every_element() {
        let mut v = vec![1.0, -2.0, 3.0];
        scale(&mut v, 2.0);
        assert_eq!(v, vec![2.0, -4.0, 6.0]);
    }

    #[test]
    fn scaled_copy_matches_copy_then_scale() {
        let src = vec![1.0, -2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let mut out = vec![9.9f32; src.len()];
        scaled_copy(&mut out, &src, 0.5);
        let mut reference = src.clone();
        scale(&mut reference, 0.5);
        assert_eq!(out, reference);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn scaled_copy_length_mismatch_panics() {
        let mut out = vec![0.0f32; 2];
        scaled_copy(&mut out, &[1.0], 2.0);
    }

    #[test]
    fn l2_norm_of_3_4_is_5() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn l2_norm_of_empty_is_zero() {
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn max_abs_diff_finds_largest_gap() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[1.5, 4.0]), 1.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0), "ties resolve to first index");
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_assign_length_mismatch_panics() {
        let mut v = vec![1.0];
        add_assign(&mut v, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
