//! Per-layer embedding and aggregate storage.
//!
//! The paper's bootstrap step (§4.1) pre-computes and keeps **all** layer
//! embeddings `H^0..H^L` in memory so that streamed updates can be applied
//! incrementally. This reproduction additionally keeps the **raw neighbourhood
//! aggregates** `X^1..X^L` (the input to each layer's `Update` function): that
//! is what allows a delta message to be folded in with one add and the layer
//! output to be recomputed exactly even under a non-linear activation, and it
//! is the memory overhead the paper attributes to Ripple over the recompute
//! baseline.

use crate::model::GnnModel;
use crate::{GnnError, Result};
use ripple_graph::VertexId;
use ripple_tensor::{vector, Matrix};

/// Embeddings (`H^0..H^L`) and raw aggregates (`X^1..X^L`) for every vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingStore {
    /// `embeddings[l]` is the `|V| x dims[l]` table of hop-`l` embeddings;
    /// index 0 holds the input features.
    embeddings: Vec<Matrix>,
    /// `aggregates[l-1]` is the `|V| x dims[l-1]` table of **raw** (see
    /// [`crate::Aggregator`]) neighbourhood aggregates feeding layer `l`.
    aggregates: Vec<Matrix>,
}

impl EmbeddingStore {
    /// Creates a zero-initialised store shaped for `model` over `num_vertices`
    /// vertices.
    pub fn zeroed(model: &GnnModel, num_vertices: usize) -> Self {
        let dims = model.dims();
        let embeddings = dims
            .iter()
            .map(|&d| Matrix::zeros(num_vertices, d))
            .collect();
        let aggregates = dims[..dims.len() - 1]
            .iter()
            .map(|&d| Matrix::zeros(num_vertices, d))
            .collect();
        EmbeddingStore {
            embeddings,
            aggregates,
        }
    }

    /// Reassembles a store from its layer tables — the checkpoint-restore
    /// constructor. `embeddings` holds `H^0..H^L`, `aggregates` holds
    /// `X^1..X^L`.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::StoreMismatch`] if the table counts disagree
    /// (`L + 1` embeddings vs `L` aggregates), the row counts are not all
    /// equal, or an aggregate's width differs from the embedding layer that
    /// feeds it.
    pub fn from_parts(embeddings: Vec<Matrix>, aggregates: Vec<Matrix>) -> Result<Self> {
        if embeddings.len() != aggregates.len() + 1 {
            return Err(GnnError::StoreMismatch(format!(
                "{} embedding tables need {} aggregate tables, found {}",
                embeddings.len(),
                embeddings.len().saturating_sub(1),
                aggregates.len()
            )));
        }
        let rows = embeddings[0].rows();
        for (l, m) in embeddings.iter().chain(aggregates.iter()).enumerate() {
            if m.rows() != rows {
                return Err(GnnError::StoreMismatch(format!(
                    "table {l} covers {} vertices, expected {rows}",
                    m.rows()
                )));
            }
        }
        for (l, agg) in aggregates.iter().enumerate() {
            // X^{l+1} aggregates hop-l embeddings, so widths must match.
            if agg.cols() != embeddings[l].cols() {
                return Err(GnnError::StoreMismatch(format!(
                    "aggregate {} is {} wide but layer {l} embeddings are {} wide",
                    l + 1,
                    agg.cols(),
                    embeddings[l].cols()
                )));
            }
        }
        Ok(EmbeddingStore {
            embeddings,
            aggregates,
        })
    }

    /// Number of GNN layers covered by the store.
    pub fn num_layers(&self) -> usize {
        self.aggregates.len()
    }

    /// Number of vertices covered by the store.
    pub fn num_vertices(&self) -> usize {
        self.embeddings[0].rows()
    }

    /// Immutable borrow of the hop-`l` embedding table (`l` from 0 to `L`).
    ///
    /// # Panics
    ///
    /// Panics if `l > L`.
    pub fn embeddings(&self, l: usize) -> &Matrix {
        &self.embeddings[l]
    }

    /// Mutable borrow of the hop-`l` embedding table.
    ///
    /// # Panics
    ///
    /// Panics if `l > L`.
    pub fn embeddings_mut(&mut self, l: usize) -> &mut Matrix {
        &mut self.embeddings[l]
    }

    /// The hop-`l` embedding of one vertex.
    ///
    /// # Panics
    ///
    /// Panics if `l > L` or the vertex is out of range.
    pub fn embedding(&self, l: usize, v: VertexId) -> &[f32] {
        self.embeddings[l].row(v.index())
    }

    /// Overwrites the hop-`l` embedding of one vertex.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if the width or vertex index is invalid.
    pub fn set_embedding(&mut self, l: usize, v: VertexId, values: &[f32]) -> Result<()> {
        self.embeddings[l]
            .set_row(v.index(), values)
            .map_err(GnnError::from)
    }

    /// Immutable borrow of the raw aggregate table feeding layer `l`
    /// (`l` from 1 to `L`).
    ///
    /// # Panics
    ///
    /// Panics if `l` is 0 or greater than `L`.
    pub fn aggregates(&self, l: usize) -> &Matrix {
        &self.aggregates[l - 1]
    }

    /// The raw aggregate feeding layer `l` for one vertex.
    ///
    /// # Panics
    ///
    /// Panics if `l` is 0, greater than `L`, or the vertex is out of range.
    pub fn aggregate(&self, l: usize, v: VertexId) -> &[f32] {
        self.aggregates[l - 1].row(v.index())
    }

    /// Mutable access to the raw aggregate feeding layer `l` for one vertex,
    /// used by the incremental engine to fold in delta messages.
    ///
    /// # Panics
    ///
    /// Panics if `l` is 0, greater than `L`, or the vertex is out of range.
    pub fn aggregate_mut(&mut self, l: usize, v: VertexId) -> &mut [f32] {
        self.aggregates[l - 1].row_mut(v.index())
    }

    /// Overwrites the raw aggregate feeding layer `l` for one vertex.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if the width or vertex index is invalid.
    pub fn set_aggregate(&mut self, l: usize, v: VertexId, values: &[f32]) -> Result<()> {
        self.aggregates[l - 1]
            .set_row(v.index(), values)
            .map_err(GnnError::from)
    }

    /// Disjoint borrows of the three tables one propagation hop touches:
    /// the hop-`l-1` embeddings (read), the hop-`l` embeddings (written) and
    /// the raw aggregates feeding layer `l` (written). Splitting the borrow
    /// here is what lets the inference kernels read a vertex's own
    /// previous-layer row while writing its current-layer rows **without
    /// copying it out first**.
    ///
    /// # Panics
    ///
    /// Panics if `l` is 0 or greater than `L`.
    pub fn propagation_views_mut(&mut self, l: usize) -> (&Matrix, &mut Matrix, &mut Matrix) {
        assert!(l >= 1 && l <= self.num_layers(), "hop {l} out of range");
        let (prev, rest) = self.embeddings.split_at_mut(l);
        (&prev[l - 1], &mut rest[0], &mut self.aggregates[l - 1])
    }

    /// Refreshes only the given vertices' rows (every embedding layer and
    /// every aggregate table) from `other`, leaving all other rows untouched.
    /// Shard engines gather their owned rows into one global store this way.
    ///
    /// Returns `false` without touching anything if the two stores have
    /// different shapes.
    ///
    /// # Panics
    ///
    /// Panics if a vertex id is out of range for the stores.
    pub fn copy_rows_from(&mut self, other: &EmbeddingStore, rows: &[VertexId]) -> bool {
        let same_shape = self.embeddings.len() == other.embeddings.len()
            && self.aggregates.len() == other.aggregates.len()
            && self
                .embeddings
                .iter()
                .zip(other.embeddings.iter())
                .all(|(a, b)| a.shape() == b.shape())
            && self
                .aggregates
                .iter()
                .zip(other.aggregates.iter())
                .all(|(a, b)| a.shape() == b.shape());
        if !same_shape {
            return false;
        }
        for (dst, src) in self
            .embeddings
            .iter_mut()
            .zip(other.embeddings.iter())
            .chain(self.aggregates.iter_mut().zip(other.aggregates.iter()))
        {
            for &v in rows {
                dst.row_mut(v.index()).copy_from_slice(src.row(v.index()));
            }
        }
        true
    }

    /// The predicted class label of a vertex: the argmax of its final-layer
    /// embedding.
    ///
    /// # Panics
    ///
    /// Panics if the vertex is out of range.
    pub fn predicted_label(&self, v: VertexId) -> usize {
        vector::argmax(self.embedding(self.num_layers(), v)).unwrap_or(0)
    }

    /// Predicted labels for every vertex.
    pub fn predicted_labels(&self) -> Vec<usize> {
        (0..self.num_vertices())
            .map(|v| self.predicted_label(VertexId(v as u32)))
            .collect()
    }

    /// Largest absolute difference between the final-layer embeddings of two
    /// stores — the exactness metric used to compare incremental computation
    /// against full recomputation.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::StoreMismatch`] if the stores have different
    /// shapes.
    pub fn max_final_diff(&self, other: &EmbeddingStore) -> Result<f32> {
        if self.num_layers() != other.num_layers() || self.num_vertices() != other.num_vertices() {
            return Err(GnnError::StoreMismatch(format!(
                "layers {}x{} vs {}x{}",
                self.num_layers(),
                self.num_vertices(),
                other.num_layers(),
                other.num_vertices()
            )));
        }
        let l = self.num_layers();
        self.embeddings[l]
            .max_abs_diff(&other.embeddings[l])
            .map_err(GnnError::from)
    }

    /// Largest absolute difference across **all** layers' embeddings.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::StoreMismatch`] if the stores have different
    /// shapes.
    pub fn max_diff_all_layers(&self, other: &EmbeddingStore) -> Result<f32> {
        if self.num_layers() != other.num_layers() || self.num_vertices() != other.num_vertices() {
            return Err(GnnError::StoreMismatch("shape mismatch".to_string()));
        }
        let mut worst = 0.0f32;
        for (a, b) in self.embeddings.iter().zip(other.embeddings.iter()) {
            worst = worst.max(a.max_abs_diff(b)?);
        }
        Ok(worst)
    }

    /// Approximate heap memory of the store in bytes (embeddings +
    /// aggregates), used to report Ripple's memory overhead over RC.
    pub fn memory_bytes(&self) -> usize {
        self.embeddings
            .iter()
            .chain(self.aggregates.iter())
            .map(Matrix::memory_bytes)
            .sum()
    }

    /// Memory of the aggregate tables alone — the part RC does not need.
    pub fn aggregate_memory_bytes(&self) -> usize {
        self.aggregates.iter().map(Matrix::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aggregator, LayerKind};

    fn model() -> GnnModel {
        GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[4, 8, 3], 0).unwrap()
    }

    #[test]
    fn zeroed_store_has_model_shape() {
        let store = EmbeddingStore::zeroed(&model(), 10);
        assert_eq!(store.num_layers(), 2);
        assert_eq!(store.num_vertices(), 10);
        assert_eq!(store.embeddings(0).shape(), (10, 4));
        assert_eq!(store.embeddings(1).shape(), (10, 8));
        assert_eq!(store.embeddings(2).shape(), (10, 3));
        assert_eq!(store.aggregates(1).shape(), (10, 4));
        assert_eq!(store.aggregates(2).shape(), (10, 8));
    }

    #[test]
    fn set_and_get_embeddings_and_aggregates() {
        let mut store = EmbeddingStore::zeroed(&model(), 3);
        store.set_embedding(1, VertexId(2), &[1.0; 8]).unwrap();
        assert_eq!(store.embedding(1, VertexId(2)), &[1.0; 8]);
        store.set_aggregate(1, VertexId(0), &[2.0; 4]).unwrap();
        assert_eq!(store.aggregate(1, VertexId(0)), &[2.0; 4]);
        store.aggregate_mut(1, VertexId(0))[0] = 5.0;
        assert_eq!(store.aggregate(1, VertexId(0))[0], 5.0);
        assert!(store.set_embedding(1, VertexId(2), &[1.0; 3]).is_err());
    }

    #[test]
    fn predicted_label_is_argmax_of_final_layer() {
        let mut store = EmbeddingStore::zeroed(&model(), 2);
        store
            .set_embedding(2, VertexId(0), &[0.1, 0.9, 0.2])
            .unwrap();
        store
            .set_embedding(2, VertexId(1), &[1.5, 0.9, 0.2])
            .unwrap();
        assert_eq!(store.predicted_label(VertexId(0)), 1);
        assert_eq!(store.predicted_labels(), vec![1, 0]);
    }

    #[test]
    fn diff_metrics() {
        let m = model();
        let a = EmbeddingStore::zeroed(&m, 4);
        let mut b = EmbeddingStore::zeroed(&m, 4);
        assert_eq!(a.max_final_diff(&b).unwrap(), 0.0);
        b.set_embedding(2, VertexId(1), &[0.0, 0.5, 0.0]).unwrap();
        assert!((a.max_final_diff(&b).unwrap() - 0.5).abs() < 1e-6);
        b.set_embedding(1, VertexId(1), &[2.0; 8]).unwrap();
        assert!((a.max_diff_all_layers(&b).unwrap() - 2.0).abs() < 1e-6);

        let c = EmbeddingStore::zeroed(&m, 5);
        assert!(a.max_final_diff(&c).is_err());
        assert!(a.max_diff_all_layers(&c).is_err());
    }

    #[test]
    fn copy_rows_from_refreshes_only_the_given_rows() {
        let m = model();
        let mut src = EmbeddingStore::zeroed(&m, 6);
        src.set_embedding(2, VertexId(1), &[1.0; 3]).unwrap();
        src.set_embedding(2, VertexId(4), &[2.0; 3]).unwrap();
        src.set_aggregate(1, VertexId(1), &[3.0; 4]).unwrap();
        let mut dst = EmbeddingStore::zeroed(&m, 6);
        assert!(dst.copy_rows_from(&src, &[VertexId(1)]));
        assert_eq!(dst.embedding(2, VertexId(1)), &[1.0; 3]);
        assert_eq!(dst.aggregate(1, VertexId(1)), &[3.0; 4]);
        // Row 4 was not in the dirty set: untouched.
        assert_eq!(dst.embedding(2, VertexId(4)), &[0.0; 3]);
        // After copying the remaining dirty row the stores converge.
        assert!(dst.copy_rows_from(&src, &[VertexId(4)]));
        assert!(dst == src);
        // Shape mismatch is refused, not half-applied.
        let mut small = EmbeddingStore::zeroed(&m, 3);
        assert!(!small.copy_rows_from(&src, &[VertexId(1)]));
        assert_eq!(small.embedding(2, VertexId(1)), &[0.0; 3]);
    }

    #[test]
    fn memory_accounting() {
        let store = EmbeddingStore::zeroed(&model(), 100);
        assert!(store.memory_bytes() > store.aggregate_memory_bytes());
        assert!(store.aggregate_memory_bytes() > 0);
    }

    #[test]
    #[should_panic]
    fn aggregate_layer_zero_panics() {
        let store = EmbeddingStore::zeroed(&model(), 2);
        let _ = store.aggregate(0, VertexId(0));
    }

    #[test]
    fn propagation_views_split_read_and_write_tables() {
        let mut store = EmbeddingStore::zeroed(&model(), 3);
        store.set_embedding(0, VertexId(1), &[1.0; 4]).unwrap();
        let (prev, cur, agg) = store.propagation_views_mut(1);
        assert_eq!(prev.shape(), (3, 4));
        assert_eq!(cur.shape(), (3, 8));
        assert_eq!(agg.shape(), (3, 4));
        // Read prev while writing cur/agg — the borrow shape the kernels use.
        let self_row = prev.row(1);
        cur.row_mut(1)[0] = self_row[0] + 1.0;
        agg.row_mut(1).copy_from_slice(self_row);
        assert_eq!(store.embedding(1, VertexId(1))[0], 2.0);
        assert_eq!(store.aggregate(1, VertexId(1)), &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn propagation_views_reject_hop_zero() {
        let mut store = EmbeddingStore::zeroed(&model(), 2);
        let _ = store.propagation_views_mut(0);
    }
}
