//! Degree statistics, used to characterise synthetic datasets (Table 3) and
//! to sanity-check that generated graphs match their target density.

use crate::dynamic::DynamicGraph;
use crate::ids::VertexId;

/// Summary statistics of a graph's in-degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Mean in-degree (`|E|/|V|`).
    pub avg_in_degree: f64,
    /// Largest in-degree.
    pub max_in_degree: usize,
    /// Largest out-degree.
    pub max_out_degree: usize,
    /// Median in-degree.
    pub median_in_degree: usize,
    /// Fraction of vertices with zero in-degree.
    pub isolated_fraction: f64,
}

impl DegreeStats {
    /// Computes degree statistics for a graph.
    pub fn compute(graph: &DynamicGraph) -> Self {
        let n = graph.num_vertices();
        if n == 0 {
            return DegreeStats {
                num_vertices: 0,
                num_edges: 0,
                avg_in_degree: 0.0,
                max_in_degree: 0,
                max_out_degree: 0,
                median_in_degree: 0,
                isolated_fraction: 0.0,
            };
        }
        let mut in_degrees: Vec<usize> = (0..n)
            .map(|v| graph.in_degree(VertexId(v as u32)))
            .collect();
        let max_out = (0..n)
            .map(|v| graph.out_degree(VertexId(v as u32)))
            .max()
            .unwrap_or(0);
        let isolated = in_degrees.iter().filter(|&&d| d == 0).count();
        in_degrees.sort_unstable();
        DegreeStats {
            num_vertices: n,
            num_edges: graph.num_edges(),
            avg_in_degree: graph.avg_in_degree(),
            max_in_degree: *in_degrees.last().unwrap(),
            max_out_degree: max_out,
            median_in_degree: in_degrees[n / 2],
            isolated_fraction: isolated as f64 / n as f64,
        }
    }
}

impl std::fmt::Display for DegreeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} avg-in={:.2} max-in={} max-out={} median-in={} isolated={:.1}%",
            self.num_vertices,
            self.num_edges,
            self.avg_in_degree,
            self.max_in_degree,
            self.max_out_degree,
            self.median_in_degree,
            self.isolated_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_star_graph() {
        // 4 leaves all pointing at vertex 0.
        let mut g = DynamicGraph::new(5, 1);
        for s in 1..5u32 {
            g.add_edge(VertexId(s), VertexId(0), 1.0).unwrap();
        }
        let stats = DegreeStats::compute(&g);
        assert_eq!(stats.num_vertices, 5);
        assert_eq!(stats.num_edges, 4);
        assert_eq!(stats.max_in_degree, 4);
        assert_eq!(stats.max_out_degree, 1);
        assert_eq!(stats.median_in_degree, 0);
        assert!((stats.avg_in_degree - 0.8).abs() < 1e-9);
        assert!((stats.isolated_fraction - 0.8).abs() < 1e-9);
    }

    #[test]
    fn stats_on_empty_graph() {
        let g = DynamicGraph::new(0, 0);
        let stats = DegreeStats::compute(&g);
        assert_eq!(stats.num_vertices, 0);
        assert_eq!(stats.avg_in_degree, 0.0);
    }

    #[test]
    fn display_contains_key_numbers() {
        let mut g = DynamicGraph::new(2, 1);
        g.add_edge(VertexId(0), VertexId(1), 1.0).unwrap();
        let s = DegreeStats::compute(&g).to_string();
        assert!(s.contains("|V|=2"));
        assert!(s.contains("|E|=1"));
    }
}
