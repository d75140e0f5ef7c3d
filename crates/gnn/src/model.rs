//! Multi-layer GNN models.

use crate::aggregator::Aggregator;
use crate::layer::{GnnLayer, LayerKind};
use crate::{GnnError, Result};
use ripple_tensor::activation::Activation;

/// An `L`-layer GNN model for vertex classification.
///
/// All layers share one model family and one aggregation function, matching
/// the paper's workloads (e.g. "GraphConv with Sum"). The final layer uses an
/// identity activation so its outputs can be read as class logits; hidden
/// layers use ReLU.
///
/// # Example
///
/// ```
/// use ripple_gnn::{GnnModel, LayerKind, Aggregator};
///
/// // A 2-layer GraphSAGE-with-sum model: 16 input features, 32 hidden, 8 classes.
/// let model = GnnModel::new(LayerKind::Sage, Aggregator::Sum, &[16, 32, 8], 42).unwrap();
/// assert_eq!(model.num_layers(), 2);
/// assert_eq!(model.input_dim(), 16);
/// assert_eq!(model.output_dim(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GnnModel {
    kind: LayerKind,
    aggregator: Aggregator,
    layers: Vec<GnnLayer>,
}

impl GnnModel {
    /// Builds a model with the given layer dimensions.
    ///
    /// `dims` lists the embedding width at every level: `dims[0]` is the
    /// input feature width, `dims[i]` the output width of layer `i`, so a
    /// model with `dims.len() == L + 1` has `L` layers.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidModelShape`] if fewer than two dimensions
    /// are given or any dimension is zero.
    pub fn new(kind: LayerKind, aggregator: Aggregator, dims: &[usize], seed: u64) -> Result<Self> {
        if dims.len() < 2 {
            return Err(GnnError::InvalidModelShape(format!(
                "need at least input and output dimensions, got {} entries",
                dims.len()
            )));
        }
        let num_layers = dims.len() - 1;
        let mut layers = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let activation = if l + 1 == num_layers {
                Activation::Identity
            } else {
                Activation::Relu
            };
            layers.push(GnnLayer::new(
                kind,
                dims[l],
                dims[l + 1],
                activation,
                seed.wrapping_add(l as u64).wrapping_mul(0x9e3779b97f4a7c15),
            )?);
        }
        Ok(GnnModel {
            kind,
            aggregator,
            layers,
        })
    }

    /// The model family shared by every layer.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// The aggregation function shared by every layer.
    pub fn aggregator(&self) -> Aggregator {
        self.aggregator
    }

    /// Number of layers (`L`), i.e. the number of hops an update can ripple.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input feature width expected by the first layer.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output width of the final layer (number of classes for vertex
    /// classification).
    pub fn output_dim(&self) -> usize {
        self.layers
            .last()
            .expect("models have at least one layer")
            .output_dim()
    }

    /// The layer computing hop `l` embeddings, where `l` runs from 1 to
    /// [`Self::num_layers`].
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::LayerOutOfRange`] if `l` is zero or greater than
    /// the number of layers.
    pub fn layer(&self, l: usize) -> Result<&GnnLayer> {
        if l == 0 || l > self.layers.len() {
            return Err(GnnError::LayerOutOfRange {
                layer: l,
                num_layers: self.layers.len(),
            });
        }
        Ok(&self.layers[l - 1])
    }

    /// Iterator over `(hop index, layer)` pairs in execution order
    /// (hop 1 first).
    pub fn iter_layers(&self) -> impl Iterator<Item = (usize, &GnnLayer)> + '_ {
        self.layers.iter().enumerate().map(|(i, l)| (i + 1, l))
    }

    /// The embedding width at each level, `[input, hidden..., output]`.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.layers.len() + 1);
        dims.push(self.input_dim());
        dims.extend(self.layers.iter().map(GnnLayer::output_dim));
        dims
    }

    /// Whether any layer's output depends on the vertex's own previous-layer
    /// embedding (see [`GnnLayer::depends_on_self`]).
    pub fn depends_on_self(&self) -> bool {
        self.layers.iter().any(GnnLayer::depends_on_self)
    }

    /// Total parameter memory of the model, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.layers.iter().map(GnnLayer::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_number_of_layers() {
        let m = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[8, 16, 16, 4], 0).unwrap();
        assert_eq!(m.num_layers(), 3);
        assert_eq!(m.dims(), vec![8, 16, 16, 4]);
        assert_eq!(m.input_dim(), 8);
        assert_eq!(m.output_dim(), 4);
        assert_eq!(m.kind(), LayerKind::GraphConv);
        assert_eq!(m.aggregator(), Aggregator::Sum);
    }

    #[test]
    fn rejects_too_few_dims() {
        assert!(GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[8], 0).is_err());
        assert!(GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[], 0).is_err());
    }

    #[test]
    fn hidden_layers_relu_final_identity() {
        let m = GnnModel::new(LayerKind::Sage, Aggregator::Mean, &[4, 8, 3], 1).unwrap();
        assert_eq!(m.layer(1).unwrap().activation(), Activation::Relu);
        assert_eq!(m.layer(2).unwrap().activation(), Activation::Identity);
    }

    #[test]
    fn layer_indexing_is_one_based() {
        let m = GnnModel::new(LayerKind::Gin, Aggregator::Sum, &[4, 4, 4], 1).unwrap();
        assert!(m.layer(0).is_err());
        assert!(m.layer(1).is_ok());
        assert!(m.layer(2).is_ok());
        assert!(m.layer(3).is_err());
        assert_eq!(m.iter_layers().count(), 2);
        assert_eq!(m.iter_layers().next().unwrap().0, 1);
    }

    #[test]
    fn depends_on_self_tracks_kind() {
        assert!(
            !GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[4, 4], 0)
                .unwrap()
                .depends_on_self()
        );
        assert!(GnnModel::new(LayerKind::Sage, Aggregator::Sum, &[4, 4], 0)
            .unwrap()
            .depends_on_self());
        assert!(GnnModel::new(LayerKind::Gin, Aggregator::Sum, &[4, 4], 0)
            .unwrap()
            .depends_on_self());
    }

    #[test]
    fn deterministic_construction() {
        let a = GnnModel::new(LayerKind::Sage, Aggregator::Sum, &[8, 8, 4], 7).unwrap();
        let b = GnnModel::new(LayerKind::Sage, Aggregator::Sum, &[8, 8, 4], 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn memory_is_positive() {
        let m = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[16, 32, 8], 0).unwrap();
        assert!(m.memory_bytes() >= 16 * 32 * 4 + 32 * 8 * 4);
    }
}
