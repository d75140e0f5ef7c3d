//! Dense linear-algebra substrate for the Ripple streaming-GNN reproduction.
//!
//! The paper's single-machine implementation is built on NumPy; the Rust
//! ecosystem has no comparably ubiquitous GNN-oriented tensor library, so this
//! crate hand-rolls the small set of dense operations the rest of the
//! workspace needs:
//!
//! * [`Matrix`] — a row-major `f32` matrix used for vertex feature tables,
//!   per-layer embedding tables and GNN weight matrices.
//! * [`ops`] — register-blocked GEMM and row-projection kernels in both
//!   allocating and allocation-free `_into` forms, plus the reductions used
//!   by the aggregation and update steps of a GNN layer.
//! * [`Scratch`] — a reusable workspace so batched kernels run without
//!   touching the allocator in steady state.
//! * [`WorkerPool`] — scoped-thread sharding for ranged parallel loops
//!   (the engines and batched inference build on it).
//! * [`init`] — deterministic (seeded) Xavier/uniform initialisers so that
//!   experiments are reproducible without trained weights.
//! * [`activation`] — the element-wise non-linearities used by the models.
//! * [`simd`] — runtime-dispatched AVX2 micro-kernels on `x86_64`
//!   (bit-identical to the scalar references, which every other target
//!   runs) plus software-prefetch helpers, selected via one-time feature
//!   detection and the `RIPPLE_SIMD` knob.
//!
//! The paper's performance story lives in *how little* work the incremental
//! engine does; this crate's job is to make the work that remains
//! hardware-shaped — batched, allocation-free and bit-reproducible across
//! the serial, parallel and batched execution paths.
//!
//! # Example
//!
//! ```
//! use ripple_tensor::{Matrix, ops};
//!
//! // A 2x3 feature matrix times a 3x2 weight matrix.
//! let x = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 1.0, 1.0]]).unwrap();
//! let w = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
//! let y = ops::matmul(&x, &w).unwrap();
//! assert_eq!(y.shape(), (2, 2));
//! assert_eq!(y.row(0), &[11.0, 14.0]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activation;
pub mod error;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod scratch;
pub mod simd;
pub mod vector;

pub use error::TensorError;
pub use matrix::Matrix;
pub use pool::WorkerPool;
pub use scratch::Scratch;
pub use simd::SimdTier;
pub use vector::{add_assign, axpy, l2_norm, max_abs_diff, scale, scaled_copy, sub_assign};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Default tolerance used when comparing embeddings produced by different
/// execution strategies (incremental vs. full recompute).
///
/// The paper claims exactness "within the limits of floating-point precision";
/// repeated add/subtract of deltas accumulates rounding error proportional to
/// the number of updates applied, so equality checks across the workspace use
/// this slightly loose tolerance rather than bitwise equality.
pub const DEFAULT_TOLERANCE: f32 = 1e-3;
