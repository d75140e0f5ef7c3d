//! The five named GNN workloads of the paper's evaluation (§7.1.1).
//!
//! Each workload pairs a model family with a linear aggregation function:
//! GraphConv+Sum (GC-S), GraphSAGE+Sum (GS-S), GraphConv+Mean (GC-M),
//! GINConv+Sum (GI-S) and GraphConv+WeightedSum (GC-W).

use crate::aggregator::Aggregator;
use crate::layer::LayerKind;
use crate::model::GnnModel;
use crate::Result;

/// One of the paper's five evaluation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// GraphConv with Sum aggregation.
    GcS,
    /// GraphSAGE with Sum aggregation.
    GsS,
    /// GraphConv with Mean aggregation.
    GcM,
    /// GINConv with Sum aggregation.
    GiS,
    /// GraphConv with Weighted Sum aggregation.
    GcW,
}

impl Workload {
    /// All five workloads in the order the paper's figures list them.
    pub fn all() -> [Workload; 5] {
        [
            Workload::GcS,
            Workload::GsS,
            Workload::GcM,
            Workload::GiS,
            Workload::GcW,
        ]
    }

    /// The short name used in the paper's figures (e.g. `GC-S`).
    pub fn name(self) -> &'static str {
        match self {
            Workload::GcS => "GC-S",
            Workload::GsS => "GS-S",
            Workload::GcM => "GC-M",
            Workload::GiS => "GI-S",
            Workload::GcW => "GC-W",
        }
    }

    /// The model family of the workload.
    pub fn layer_kind(self) -> LayerKind {
        match self {
            Workload::GcS | Workload::GcM | Workload::GcW => LayerKind::GraphConv,
            Workload::GsS => LayerKind::Sage,
            Workload::GiS => LayerKind::Gin,
        }
    }

    /// The aggregation function of the workload.
    pub fn aggregator(self) -> Aggregator {
        match self {
            Workload::GcS | Workload::GsS | Workload::GiS => Aggregator::Sum,
            Workload::GcM => Aggregator::Mean,
            Workload::GcW => Aggregator::WeightedSum,
        }
    }

    /// Whether the workload needs per-edge weights on the graph.
    pub fn needs_edge_weights(self) -> bool {
        self.aggregator() == Aggregator::WeightedSum
    }

    /// Builds the workload's model for a graph with `feature_dim` input
    /// features and `num_classes` output classes, using `num_layers` layers
    /// and a fixed hidden width.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::GnnError::InvalidModelShape`] for degenerate
    /// dimensions.
    pub fn build_model(
        self,
        feature_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        num_layers: usize,
        seed: u64,
    ) -> Result<GnnModel> {
        let mut dims = Vec::with_capacity(num_layers + 1);
        dims.push(feature_dim);
        for _ in 0..num_layers.saturating_sub(1) {
            dims.push(hidden_dim);
        }
        dims.push(num_classes);
        GnnModel::new(self.layer_kind(), self.aggregator(), &dims, seed)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_five_distinct_workloads() {
        let all = Workload::all();
        assert_eq!(all.len(), 5);
        let names: std::collections::HashSet<_> = all.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn kinds_and_aggregators_match_paper() {
        assert_eq!(Workload::GcS.layer_kind(), LayerKind::GraphConv);
        assert_eq!(Workload::GcS.aggregator(), Aggregator::Sum);
        assert_eq!(Workload::GsS.layer_kind(), LayerKind::Sage);
        assert_eq!(Workload::GcM.aggregator(), Aggregator::Mean);
        assert_eq!(Workload::GiS.layer_kind(), LayerKind::Gin);
        assert_eq!(Workload::GcW.aggregator(), Aggregator::WeightedSum);
        assert!(Workload::GcW.needs_edge_weights());
        assert!(!Workload::GcS.needs_edge_weights());
    }

    #[test]
    fn build_model_produces_requested_layers() {
        let m = Workload::GsS.build_model(32, 64, 10, 3, 0).unwrap();
        assert_eq!(m.num_layers(), 3);
        assert_eq!(m.dims(), vec![32, 64, 64, 10]);
        assert_eq!(m.kind(), LayerKind::Sage);

        let two = Workload::GcS.build_model(16, 64, 7, 2, 0).unwrap();
        assert_eq!(two.dims(), vec![16, 64, 7]);

        let one = Workload::GcS.build_model(16, 64, 7, 1, 0).unwrap();
        assert_eq!(one.dims(), vec![16, 7]);
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(Workload::GcS.to_string(), "GC-S");
        assert_eq!(Workload::GcW.to_string(), "GC-W");
    }
}
