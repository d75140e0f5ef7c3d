//! Dataset specifications mirroring the paper's Table 3.
//!
//! Each [`DatasetSpec`] records both the paper-scale statistics (for
//! reporting in `EXPERIMENTS.md`) and the generated-scale parameters used in
//! this reproduction. Calling [`DatasetSpec::generate`] produces a
//! [`DynamicGraph`] with power-law topology, random features of the right
//! width, and edge weights suitable for the `weighted sum` aggregator.

use crate::dynamic::DynamicGraph;
use crate::synth::powerlaw::{powerlaw_edges, PowerLawConfig};
use crate::Result;
use ripple_tensor::init;

/// Which of the paper's datasets a spec mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// ogbn-arxiv: sparse citation network (avg in-degree ≈ 6.9).
    Arxiv,
    /// Reddit: dense social network (avg in-degree ≈ 492).
    Reddit,
    /// ogbn-products: e-commerce co-purchase network (avg in-degree ≈ 50.5).
    Products,
    /// ogbn-papers100M: very large citation network (avg in-degree ≈ 14.5),
    /// used for the distributed experiments.
    Papers,
    /// A free-form synthetic dataset not mimicking any paper dataset.
    Custom,
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DatasetKind::Arxiv => "arxiv",
            DatasetKind::Reddit => "reddit",
            DatasetKind::Products => "products",
            DatasetKind::Papers => "papers",
            DatasetKind::Custom => "custom",
        };
        f.write_str(name)
    }
}

/// A synthetic stand-in for one of the paper's datasets.
///
/// # Example
///
/// ```
/// use ripple_graph::synth::DatasetSpec;
///
/// // A small Arxiv-like graph for tests: ~2000 vertices, avg in-degree ~6.9.
/// let spec = DatasetSpec::arxiv_like().scaled_to(2_000);
/// let graph = spec.generate(42).unwrap();
/// assert_eq!(graph.num_vertices(), 2_000);
/// assert!(graph.avg_in_degree() > 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which paper dataset this mimics.
    pub kind: DatasetKind,
    /// Human-readable name.
    pub name: String,
    /// Number of vertices to generate.
    pub num_vertices: usize,
    /// Target average in-degree (paper's Table 3 value).
    pub avg_in_degree: f64,
    /// Vertex feature width.
    pub feature_dim: usize,
    /// Number of output classes for the vertex-classification task.
    pub num_classes: usize,
    /// Degree-skew exponent for the power-law generator.
    pub skew: f64,
    /// Paper-scale vertex count, for reporting.
    pub paper_num_vertices: usize,
    /// Paper-scale edge count, for reporting.
    pub paper_num_edges: usize,
}

impl DatasetSpec {
    /// Arxiv-like: sparse citation network. Default reproduction scale is
    /// 20 000 vertices (paper: 169K vertices, 1.2M edges, 128 features,
    /// 40 classes, avg in-degree 6.9).
    pub fn arxiv_like() -> Self {
        DatasetSpec {
            kind: DatasetKind::Arxiv,
            name: "arxiv-like".to_string(),
            num_vertices: 20_000,
            avg_in_degree: 6.9,
            feature_dim: 128,
            num_classes: 40,
            skew: 0.65,
            paper_num_vertices: 169_000,
            paper_num_edges: 1_200_000,
        }
    }

    /// Reddit-like: dense social network. Default reproduction scale is
    /// 2 000 vertices with avg in-degree 200 (paper: 233K vertices, 114.9M
    /// edges, 602 features, 41 classes, avg in-degree 492). The in-degree is
    /// reduced along with the vertex count so the dense-graph behaviour
    /// (affected set ≈ whole graph) still shows without requiring 100M+
    /// edges.
    pub fn reddit_like() -> Self {
        DatasetSpec {
            kind: DatasetKind::Reddit,
            name: "reddit-like".to_string(),
            num_vertices: 2_000,
            avg_in_degree: 200.0,
            feature_dim: 602,
            num_classes: 41,
            skew: 0.55,
            paper_num_vertices: 233_000,
            paper_num_edges: 114_900_000,
        }
    }

    /// Products-like: e-commerce co-purchase network. Default reproduction
    /// scale is 10 000 vertices (paper: 2.5M vertices, 123.7M edges, 100
    /// features, 47 classes, avg in-degree 50.5).
    pub fn products_like() -> Self {
        DatasetSpec {
            kind: DatasetKind::Products,
            name: "products-like".to_string(),
            num_vertices: 10_000,
            avg_in_degree: 50.5,
            feature_dim: 100,
            num_classes: 47,
            skew: 0.6,
            paper_num_vertices: 2_500_000,
            paper_num_edges: 123_700_000,
        }
    }

    /// Papers-like: very large citation network used for the distributed
    /// experiments. Default reproduction scale is 40 000 vertices (paper:
    /// 111M vertices, 1.62B edges, 128 features, 172 classes, avg in-degree
    /// 14.5).
    pub fn papers_like() -> Self {
        DatasetSpec {
            kind: DatasetKind::Papers,
            name: "papers-like".to_string(),
            num_vertices: 40_000,
            avg_in_degree: 14.5,
            feature_dim: 128,
            num_classes: 172,
            skew: 0.7,
            paper_num_vertices: 111_000_000,
            paper_num_edges: 1_620_000_000,
        }
    }

    /// A small custom dataset, convenient for unit tests.
    pub fn custom(
        num_vertices: usize,
        avg_in_degree: f64,
        feature_dim: usize,
        num_classes: usize,
    ) -> Self {
        DatasetSpec {
            kind: DatasetKind::Custom,
            name: format!("custom-{num_vertices}v"),
            num_vertices,
            avg_in_degree,
            feature_dim,
            num_classes,
            skew: 0.6,
            paper_num_vertices: num_vertices,
            paper_num_edges: (num_vertices as f64 * avg_in_degree) as usize,
        }
    }

    /// Returns the same spec with a different generated vertex count. The
    /// average in-degree, feature width and class count are preserved.
    pub fn scaled_to(mut self, num_vertices: usize) -> Self {
        self.num_vertices = num_vertices;
        self
    }

    /// Returns the same spec with a different average in-degree. Useful for
    /// keeping test graphs small and fast.
    pub fn with_avg_in_degree(mut self, avg_in_degree: f64) -> Self {
        self.avg_in_degree = avg_in_degree;
        self
    }

    /// Returns the same spec with a different feature width (e.g. to shrink
    /// the 602-wide Reddit features in quick tests).
    pub fn with_feature_dim(mut self, feature_dim: usize) -> Self {
        self.feature_dim = feature_dim;
        self
    }

    /// Target number of edges at the generated scale.
    pub fn target_edges(&self) -> usize {
        (self.num_vertices as f64 * self.avg_in_degree).round() as usize
    }

    /// Generates the full synthetic graph (topology + features + unit edge
    /// weights).
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::InvalidSpec`] if the spec asks for zero
    /// vertices.
    pub fn generate(&self, seed: u64) -> Result<DynamicGraph> {
        self.generate_weighted(seed, false)
    }

    /// Generates the synthetic graph with random edge weights in `(0, 1]`,
    /// for the `weighted sum` aggregator workloads.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::InvalidSpec`] if the spec asks for zero
    /// vertices.
    pub fn generate_weighted(&self, seed: u64, random_weights: bool) -> Result<DynamicGraph> {
        if self.num_vertices == 0 {
            return Err(crate::GraphError::InvalidSpec(
                "dataset must have at least one vertex".to_string(),
            ));
        }
        let config = PowerLawConfig {
            num_vertices: self.num_vertices,
            num_edges: self.target_edges(),
            skew: self.skew,
            seed,
        };
        let edges = powerlaw_edges(&config);
        let mut graph = if random_weights {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
            let weighted: Vec<_> = edges
                .into_iter()
                .map(|(s, d)| (s, d, rng.gen_range(0.05f32..1.0)))
                .collect();
            DynamicGraph::from_weighted_edges(self.num_vertices, self.feature_dim, &weighted)?
        } else {
            DynamicGraph::from_edges(self.num_vertices, self.feature_dim, &edges)?
        };
        let features = init::normal_like(self.num_vertices, self.feature_dim, seed.wrapping_add(1));
        graph.set_features(features)?;
        Ok(graph)
    }

    /// One-line summary in the format of the paper's Table 3, reporting both
    /// the paper-scale and generated-scale statistics.
    pub fn table3_row(&self, generated: Option<&DynamicGraph>) -> String {
        let generated_part = match generated {
            Some(g) => format!(
                " | generated |V|={} |E|={} avg-in={:.1}",
                g.num_vertices(),
                g.num_edges(),
                g.avg_in_degree()
            ),
            None => String::new(),
        };
        format!(
            "{:<14} paper |V|={} |E|={} feats={} classes={} avg-in={:.1}{}",
            self.name,
            self.paper_num_vertices,
            self.paper_num_edges,
            self.feature_dim,
            self.num_classes,
            self.avg_in_degree,
            generated_part
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_have_paper_statistics() {
        for spec in [
            DatasetSpec::arxiv_like(),
            DatasetSpec::reddit_like(),
            DatasetSpec::products_like(),
            DatasetSpec::papers_like(),
        ] {
            assert!(spec.paper_num_vertices > 0);
            assert!(spec.paper_num_edges > 0);
            assert!(spec.num_classes > 1);
            assert!(spec.feature_dim > 0);
        }
    }

    #[test]
    fn arxiv_like_matches_paper_density() {
        let spec = DatasetSpec::arxiv_like().scaled_to(3000);
        let g = spec.generate(1).unwrap();
        assert_eq!(g.num_vertices(), 3000);
        // Within 20% of the target average in-degree.
        assert!(
            (g.avg_in_degree() - 6.9).abs() < 1.5,
            "avg in-degree {}",
            g.avg_in_degree()
        );
        assert_eq!(g.feature_dim(), 128);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::custom(500, 4.0, 8, 5);
        let a = spec.generate(9).unwrap();
        let b = spec.generate(9).unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.features(), b.features());
    }

    #[test]
    fn weighted_generation_produces_non_unit_weights() {
        let spec = DatasetSpec::custom(300, 5.0, 4, 3);
        let g = spec.generate_weighted(2, true).unwrap();
        let has_non_unit = g.iter_edges().any(|(_, _, w)| (w - 1.0).abs() > 1e-6);
        assert!(has_non_unit);
        let all_positive = g.iter_edges().all(|(_, _, w)| w > 0.0);
        assert!(all_positive);
    }

    #[test]
    fn zero_vertices_rejected() {
        let spec = DatasetSpec::custom(0, 1.0, 4, 2);
        assert!(spec.generate(0).is_err());
    }

    #[test]
    fn scaled_to_and_with_methods() {
        let spec = DatasetSpec::products_like()
            .scaled_to(100)
            .with_avg_in_degree(3.0)
            .with_feature_dim(16);
        assert_eq!(spec.num_vertices, 100);
        assert_eq!(spec.target_edges(), 300);
        assert_eq!(spec.feature_dim, 16);
        assert_eq!(spec.kind, DatasetKind::Products);
    }

    #[test]
    fn table3_row_mentions_paper_and_generated() {
        let spec = DatasetSpec::arxiv_like()
            .scaled_to(200)
            .with_avg_in_degree(3.0);
        let g = spec.generate(0).unwrap();
        let row = spec.table3_row(Some(&g));
        assert!(row.contains("arxiv-like"));
        assert!(row.contains("169000"));
        assert!(row.contains("generated |V|=200"));
        let row_no_gen = spec.table3_row(None);
        assert!(!row_no_gen.contains("generated"));
    }

    #[test]
    fn dataset_kind_display() {
        assert_eq!(DatasetKind::Arxiv.to_string(), "arxiv");
        assert_eq!(DatasetKind::Reddit.to_string(), "reddit");
        assert_eq!(DatasetKind::Products.to_string(), "products");
        assert_eq!(DatasetKind::Papers.to_string(), "papers");
        assert_eq!(DatasetKind::Custom.to_string(), "custom");
    }
}
