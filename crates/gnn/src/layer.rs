//! A single GNN layer: the learnable `Update` function of Eqn. 2.
//!
//! Each layer owns its (deterministically initialised) weight matrices and
//! knows how to combine a vertex's own previous-layer embedding with the
//! finalized aggregate of its in-neighbours. The three families follow the
//! standard formulations:
//!
//! * **GraphConv** (GCN): `h_v = σ(W · x_v + b)` — depends only on the
//!   neighbourhood aggregate.
//! * **GraphSAGE**: `h_v = σ(W_self · h_v^{prev} + W_neigh · x_v + b)`.
//! * **GINConv**: `h_v = σ(W · ((1 + ε) · h_v^{prev} + x_v) + b)` with a
//!   fixed ε.
//!
//! The important property for Ripple is that each of these is *linear in the
//! aggregate* `x_v`, and whether it *also* depends on the vertex's own
//! previous-layer embedding ([`GnnLayer::depends_on_self`]) — that determines
//! which vertices join the affected set at the next hop.

use crate::{GnnError, Result};
use ripple_tensor::activation::Activation;
use ripple_tensor::{init, ops, Matrix};

/// The model family a layer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Graph Convolutional Network layer (Kipf & Welling).
    GraphConv,
    /// GraphSAGE layer (Hamilton et al.) with separate self and neighbour
    /// transforms.
    Sage,
    /// Graph Isomorphism Network layer (Xu et al.) with `(1+ε)` self scaling.
    Gin,
}

impl std::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            LayerKind::GraphConv => "graph-conv",
            LayerKind::Sage => "sage",
            LayerKind::Gin => "gin",
        };
        f.write_str(name)
    }
}

/// Fixed ε used by GIN layers (the paper trains ε; any fixed value preserves
/// the computation structure).
pub const GIN_EPSILON: f32 = 0.1;

/// One GNN layer with its weights.
#[derive(Debug, Clone, PartialEq)]
pub struct GnnLayer {
    kind: LayerKind,
    /// Transform applied to the neighbourhood aggregate (and, for GIN, the
    /// combined self+aggregate vector).
    w_neigh: Matrix,
    /// Transform applied to the vertex's own previous-layer embedding
    /// (GraphSAGE only).
    w_self: Option<Matrix>,
    bias: Vec<f32>,
    activation: Activation,
}

impl GnnLayer {
    /// Creates a layer with deterministic Xavier-initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidModelShape`] if either dimension is zero.
    pub fn new(
        kind: LayerKind,
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        seed: u64,
    ) -> Result<Self> {
        if input_dim == 0 || output_dim == 0 {
            return Err(GnnError::InvalidModelShape(format!(
                "layer dimensions must be positive, got {input_dim} -> {output_dim}"
            )));
        }
        let w_neigh = init::xavier_uniform(input_dim, output_dim, seed);
        let w_self = match kind {
            LayerKind::Sage => Some(init::xavier_uniform(input_dim, output_dim, seed ^ 0x5eed)),
            LayerKind::GraphConv | LayerKind::Gin => None,
        };
        let bias = init::uniform(1, output_dim, -0.05, 0.05, seed ^ 0xb1a5).into_flat();
        Ok(GnnLayer {
            kind,
            w_neigh,
            w_self,
            bias,
            activation,
        })
    }

    /// The model family of this layer.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Input (previous-layer) embedding width.
    pub fn input_dim(&self) -> usize {
        self.w_neigh.rows()
    }

    /// Output embedding width.
    pub fn output_dim(&self) -> usize {
        self.w_neigh.cols()
    }

    /// The activation applied to this layer's output.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Whether this layer's output for a vertex depends on that vertex's own
    /// previous-layer embedding (in addition to the aggregate).
    ///
    /// GraphSAGE and GIN do; GraphConv does not. The affected-set computation
    /// of both the recompute baseline and the incremental engine uses this to
    /// decide whether a vertex whose embedding changed at hop `l-1` must also
    /// be refreshed at hop `l` even when none of its in-neighbours changed.
    pub fn depends_on_self(&self) -> bool {
        matches!(self.kind, LayerKind::Sage | LayerKind::Gin)
    }

    /// Applies the layer's `Update` function to one vertex, **writing** the
    /// result into `out` (width [`Self::output_dim`]). `tmp` is a reusable
    /// scratch vector (any initial length; resized as needed); steady-state
    /// calls perform no heap allocation.
    ///
    /// `self_prev` is the vertex's own previous-layer embedding and
    /// `aggregate` is the finalized neighbourhood aggregate (see
    /// [`crate::Aggregator::finalize_into`]); both must have width
    /// [`Self::input_dim`].
    ///
    /// # Errors
    ///
    /// Returns a tensor shape error if the widths do not match.
    pub fn forward_into(
        &self,
        self_prev: &[f32],
        aggregate: &[f32],
        tmp: &mut Vec<f32>,
        out: &mut [f32],
    ) -> Result<()> {
        match self.kind {
            LayerKind::GraphConv => ops::row_matmul_into(aggregate, &self.w_neigh, out)?,
            LayerKind::Sage => {
                ops::row_matmul_into(aggregate, &self.w_neigh, out)?;
                tmp.clear();
                tmp.resize(self.output_dim(), 0.0);
                ops::row_matmul_into(
                    self_prev,
                    self.w_self
                        .as_ref()
                        .expect("SAGE layer always has a self transform"),
                    tmp,
                )?;
                ripple_tensor::add_assign(out, tmp);
            }
            LayerKind::Gin => {
                if self_prev.len() != aggregate.len() {
                    return Err(crate::GnnError::from(
                        ripple_tensor::TensorError::ShapeMismatch {
                            op: "forward_into",
                            left: (1, self_prev.len()),
                            right: (1, aggregate.len()),
                        },
                    ));
                }
                tmp.clear();
                tmp.extend_from_slice(aggregate);
                ripple_tensor::axpy(tmp, 1.0 + GIN_EPSILON, self_prev);
                ops::row_matmul_into(tmp, &self.w_neigh, out)?;
            }
        };
        ripple_tensor::add_assign(out, &self.bias);
        self.activation.apply(out);
        Ok(())
    }

    /// Applies the layer's `Update` function to one vertex, allocating the
    /// result. Thin wrapper over [`Self::forward_into`].
    ///
    /// # Errors
    ///
    /// Returns a tensor shape error if the widths do not match.
    pub fn forward(&self, self_prev: &[f32], aggregate: &[f32]) -> Result<Vec<f32>> {
        let mut out = vec![0.0f32; self.output_dim()];
        let mut tmp = Vec::new();
        self.forward_into(self_prev, aggregate, &mut tmp, &mut out)?;
        Ok(out)
    }

    /// Applies the layer's `Update` function to a whole packed frontier of
    /// `m` vertices in 1–2 GEMMs plus a fused bias/activation pass, over
    /// **borrowed row blocks**: `agg_rows` is the `m x input_dim` row-major
    /// block of finalized aggregates, `self_rows` the matching block of
    /// previous-layer embeddings (required for SAGE/GIN, ignored — and
    /// usually empty — for GraphConv), and the result lands in the
    /// `m x output_dim` block `out`. Nothing is copied in or out, so callers
    /// can evaluate straight from (and into) sub-blocks of larger tables;
    /// steady-state calls perform no heap allocation (`tmp` is a reusable
    /// scratch matrix).
    ///
    /// Per output element, the float-operation sequence is identical to
    /// [`Self::forward_into`] on that row, so the batched and per-vertex
    /// paths are **bit-identical** — the contract `tests/kernel_parity.rs`
    /// pins for every `LayerKind x Aggregator` combination.
    ///
    /// # Errors
    ///
    /// Returns a tensor shape error if any block size does not match `m` and
    /// the layer dimensions.
    pub fn forward_block(
        &self,
        self_rows: &[f32],
        agg_rows: &[f32],
        m: usize,
        tmp: &mut Matrix,
        out: &mut [f32],
    ) -> Result<()> {
        if agg_rows.len() != m * self.input_dim() {
            return Err(crate::GnnError::from(
                ripple_tensor::TensorError::ShapeMismatch {
                    op: "forward_block",
                    left: (m, agg_rows.len() / m.max(1)),
                    right: (m, self.input_dim()),
                },
            ));
        }
        if self.depends_on_self() && self_rows.len() != agg_rows.len() {
            return Err(crate::GnnError::from(
                ripple_tensor::TensorError::ShapeMismatch {
                    op: "forward_block",
                    left: (m, self_rows.len() / m.max(1)),
                    right: (m, agg_rows.len() / m.max(1)),
                },
            ));
        }
        match self.kind {
            LayerKind::GraphConv => ops::gemm_block_into(agg_rows, m, &self.w_neigh, out)?,
            LayerKind::Sage => {
                ops::gemm_block_into(agg_rows, m, &self.w_neigh, out)?;
                tmp.resize_reuse(m, self.output_dim());
                ops::gemm_block_into(
                    self_rows,
                    m,
                    self.w_self
                        .as_ref()
                        .expect("SAGE layer always has a self transform"),
                    tmp.as_mut_slice(),
                )?;
                ripple_tensor::add_assign(out, tmp.as_slice());
            }
            LayerKind::Gin => {
                tmp.resize_reuse(m, self.input_dim());
                tmp.as_mut_slice().copy_from_slice(agg_rows);
                ripple_tensor::axpy(tmp.as_mut_slice(), 1.0 + GIN_EPSILON, self_rows);
                ops::gemm_block_into(tmp.as_slice(), m, &self.w_neigh, out)?;
            }
        }
        // Fused bias + activation, row by row (same per-element order as the
        // per-vertex path).
        let n = self.output_dim();
        for row in out.chunks_exact_mut(n.max(1)) {
            ripple_tensor::add_assign(row, &self.bias);
            self.activation.apply(row);
        }
        Ok(())
    }

    /// Applies the layer's `Update` function to a whole packed frontier in
    /// 1–2 GEMMs plus a fused bias/activation pass, **writing** the result
    /// block into `out` (resized, capacity-reusing, to
    /// `aggregates.rows() x output_dim`). Thin wrapper over
    /// [`Self::forward_block`]; steady-state calls perform no heap
    /// allocation.
    ///
    /// Row `i` of `aggregates` is the finalized neighbourhood aggregate of
    /// the `i`-th frontier vertex; for self-dependent layers (SAGE/GIN) row
    /// `i` of `self_prev` must be that vertex's previous-layer embedding
    /// (GraphConv ignores `self_prev`, which may be empty).
    ///
    /// # Errors
    ///
    /// Returns a tensor shape error if operand widths do not match, or if a
    /// self-dependent layer receives fewer `self_prev` rows than aggregates.
    pub fn forward_batch(
        &self,
        self_prev: &Matrix,
        aggregates: &Matrix,
        tmp: &mut Matrix,
        out: &mut Matrix,
    ) -> Result<()> {
        if aggregates.cols() != self.input_dim() {
            return Err(crate::GnnError::from(
                ripple_tensor::TensorError::ShapeMismatch {
                    op: "forward_batch",
                    left: aggregates.shape(),
                    right: (self.input_dim(), self.output_dim()),
                },
            ));
        }
        out.resize_reuse(aggregates.rows(), self.output_dim());
        self.forward_block(
            self_prev.as_slice(),
            aggregates.as_slice(),
            aggregates.rows(),
            tmp,
            out.as_mut_slice(),
        )
    }

    /// Total memory attributable to this layer's parameters in bytes: the
    /// inline struct plus the **capacity** (not length) of every owned
    /// buffer, matching the [`Matrix::memory_bytes`] accounting convention.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.w_neigh.heap_bytes()
            + self.w_self.as_ref().map_or(0, Matrix::heap_bytes)
            + self.bias.capacity() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_dimensions() {
        assert!(GnnLayer::new(LayerKind::GraphConv, 0, 4, Activation::Relu, 0).is_err());
        assert!(GnnLayer::new(LayerKind::GraphConv, 4, 0, Activation::Relu, 0).is_err());
        let l = GnnLayer::new(LayerKind::GraphConv, 4, 8, Activation::Relu, 0).unwrap();
        assert_eq!(l.input_dim(), 4);
        assert_eq!(l.output_dim(), 8);
        assert_eq!(l.kind(), LayerKind::GraphConv);
        assert_eq!(l.activation(), Activation::Relu);
    }

    #[test]
    fn graphconv_ignores_self_embedding() {
        let l = GnnLayer::new(LayerKind::GraphConv, 3, 2, Activation::Identity, 1).unwrap();
        let agg = vec![1.0, 2.0, 3.0];
        let a = l.forward(&[0.0, 0.0, 0.0], &agg).unwrap();
        let b = l.forward(&[9.0, 9.0, 9.0], &agg).unwrap();
        assert_eq!(a, b);
        assert!(!l.depends_on_self());
    }

    #[test]
    fn sage_uses_self_embedding() {
        let l = GnnLayer::new(LayerKind::Sage, 3, 2, Activation::Identity, 1).unwrap();
        let agg = vec![1.0, 2.0, 3.0];
        let a = l.forward(&[0.0, 0.0, 0.0], &agg).unwrap();
        let b = l.forward(&[9.0, 9.0, 9.0], &agg).unwrap();
        assert_ne!(a, b);
        assert!(l.depends_on_self());
    }

    #[test]
    fn gin_scales_self_by_one_plus_epsilon() {
        let l = GnnLayer::new(LayerKind::Gin, 2, 2, Activation::Identity, 2).unwrap();
        assert!(l.depends_on_self());
        // GIN output is linear in (1+eps)*self + agg, so swapping "all weight
        // into self" vs "into agg" should differ exactly by the (1+eps) factor
        // before the linear map; verify via linearity.
        let zero = vec![0.0, 0.0];
        let e1 = vec![1.0, 0.0];
        let self_only = l.forward(&e1, &zero).unwrap();
        let agg_only = l.forward(&zero, &e1).unwrap();
        let bias_only = l.forward(&zero, &zero).unwrap();
        for i in 0..2 {
            let self_contrib = self_only[i] - bias_only[i];
            let agg_contrib = agg_only[i] - bias_only[i];
            assert!((self_contrib - (1.0 + GIN_EPSILON) * agg_contrib).abs() < 1e-5);
        }
    }

    #[test]
    fn forward_is_linear_in_aggregate_with_identity_activation() {
        for kind in [LayerKind::GraphConv, LayerKind::Sage, LayerKind::Gin] {
            let l = GnnLayer::new(kind, 3, 4, Activation::Identity, 5).unwrap();
            let self_prev = vec![0.5, -0.5, 1.0];
            let a = vec![1.0, 2.0, 3.0];
            let b = vec![-1.0, 0.5, 2.0];
            let sum: Vec<f32> = a.iter().zip(b.iter()).map(|(x, y)| x + y).collect();
            let fa = l.forward(&self_prev, &a).unwrap();
            let fb = l.forward(&self_prev, &b).unwrap();
            let fsum = l.forward(&self_prev, &sum).unwrap();
            let fzero = l.forward(&self_prev, &[0.0, 0.0, 0.0]).unwrap();
            // f(a) + f(b) - f(0) == f(a + b) when f is affine in the aggregate.
            for i in 0..4 {
                assert!(
                    (fa[i] + fb[i] - fzero[i] - fsum[i]).abs() < 1e-4,
                    "linearity violated for {kind}"
                );
            }
        }
    }

    #[test]
    fn relu_activation_clamps() {
        let l = GnnLayer::new(LayerKind::GraphConv, 2, 4, Activation::Relu, 3).unwrap();
        let out = l.forward(&[0.0, 0.0], &[-10.0, -10.0]).unwrap();
        assert!(out.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn deterministic_weights() {
        let a = GnnLayer::new(LayerKind::Sage, 4, 4, Activation::Relu, 9).unwrap();
        let b = GnnLayer::new(LayerKind::Sage, 4, 4, Activation::Relu, 9).unwrap();
        assert_eq!(a, b);
        let c = GnnLayer::new(LayerKind::Sage, 4, 4, Activation::Relu, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn wrong_width_is_rejected() {
        let l = GnnLayer::new(LayerKind::GraphConv, 3, 2, Activation::Relu, 0).unwrap();
        assert!(l.forward(&[1.0, 2.0, 3.0], &[1.0]).is_err());
    }

    #[test]
    fn forward_block_rejects_wrong_widths_for_every_kind() {
        for kind in [LayerKind::GraphConv, LayerKind::Sage, LayerKind::Gin] {
            let l = GnnLayer::new(kind, 3, 2, Activation::Relu, 0).unwrap();
            let mut tmp = Matrix::default();
            let mut out = vec![0.0f32; 2 * 2];
            // Blocks of equal but wrong width (m=2, input_dim=3 needs len 6)
            // must come back as an error, never a panic.
            let bad = vec![0.0f32; 8];
            assert!(l.forward_block(&bad, &bad, 2, &mut tmp, &mut out).is_err());
            // Mismatched self/aggregate blocks are rejected for
            // self-dependent kinds.
            let good = vec![0.0f32; 6];
            let short = vec![0.0f32; 3];
            if l.depends_on_self() {
                assert!(l
                    .forward_block(&short, &good, 2, &mut tmp, &mut out)
                    .is_err());
            } else {
                assert!(l
                    .forward_block(&short, &good, 2, &mut tmp, &mut out)
                    .is_ok());
            }
        }
    }

    #[test]
    fn memory_and_display() {
        let l = GnnLayer::new(LayerKind::Sage, 8, 8, Activation::Relu, 0).unwrap();
        assert!(l.memory_bytes() > 8 * 8 * 4);
        assert_eq!(LayerKind::GraphConv.to_string(), "graph-conv");
        assert_eq!(LayerKind::Sage.to_string(), "sage");
        assert_eq!(LayerKind::Gin.to_string(), "gin");
    }
}
