//! Linear neighbourhood aggregation functions (paper Table 1).
//!
//! Ripple's incremental model only works for *linear* aggregators, because a
//! change to one in-neighbour's embedding can then be folded into the stored
//! aggregate with a single scaled add — without touching the other
//! neighbours. The three functions here are the ones the paper's workloads
//! use.
//!
//! Throughout the workspace an "aggregate" is stored in **raw** form:
//!
//! * `Sum` — the plain sum of in-neighbour embeddings;
//! * `Mean` — the *unnormalised* sum (division by the in-degree happens at
//!   [`Aggregator::finalize`] time, so that degree changes caused by edge
//!   updates re-normalise automatically without touching the stored sum);
//! * `WeightedSum` — the sum of `edge_weight * embedding`.

/// A linear aggregation function over in-neighbour embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Aggregator {
    /// `x_v = Σ_{u ∈ N(v)} h_u` — used by GraphSAGE, GIN and GCN variants.
    #[default]
    Sum,
    /// `x_v = (1/|N(v)|) Σ_{u ∈ N(v)} h_u`.
    Mean,
    /// `x_v = Σ_{u ∈ N(v)} α_uv · h_u` with static per-edge weights.
    WeightedSum,
}

impl Aggregator {
    /// The coefficient applied to an in-neighbour's embedding (or embedding
    /// delta) when accumulating it into the **raw** aggregate of an edge with
    /// weight `edge_weight`.
    ///
    /// For `Sum` and `Mean` this is 1 (mean normalisation happens later); for
    /// `WeightedSum` it is the edge weight. This single method is what makes
    /// the incremental message of the paper (`m = α·h_new − α·h_old`) uniform
    /// across aggregators.
    #[inline]
    pub fn edge_coefficient(self, edge_weight: f32) -> f32 {
        match self {
            Aggregator::Sum | Aggregator::Mean => 1.0,
            Aggregator::WeightedSum => edge_weight,
        }
    }

    /// Whether [`Aggregator::finalize_into`] is the identity copy
    /// (`Sum`/`WeightedSum`). Batched evaluators use this to feed raw
    /// aggregate blocks to the layer directly, skipping the copy.
    #[inline]
    pub fn finalize_is_identity(self) -> bool {
        matches!(self, Aggregator::Sum | Aggregator::WeightedSum)
    }

    /// Converts a raw aggregate into the final aggregate fed to the layer's
    /// `Update` function, **writing** into `out` (same length as `raw`).
    /// Performs no heap allocation — the batched frontier evaluators call
    /// this once per packed row of their scratch arena.
    ///
    /// # Panics
    ///
    /// Panics if `raw` and `out` have different lengths.
    pub fn finalize_into(self, raw: &[f32], in_degree: usize, out: &mut [f32]) {
        assert_eq!(raw.len(), out.len(), "finalize_into length mismatch");
        match self {
            Aggregator::Sum | Aggregator::WeightedSum => out.copy_from_slice(raw),
            Aggregator::Mean => {
                if in_degree == 0 {
                    out.fill(0.0);
                    return;
                }
                ripple_tensor::scaled_copy(out, raw, 1.0 / in_degree as f32);
            }
        }
    }

    /// Converts a raw aggregate into the final aggregate fed to the layer's
    /// `Update` function, given the sink vertex's current in-degree. Thin
    /// allocating wrapper over [`Aggregator::finalize_into`].
    pub fn finalize(self, raw: &[f32], in_degree: usize) -> Vec<f32> {
        let mut out = vec![0.0; raw.len()];
        self.finalize_into(raw, in_degree, &mut out);
        out
    }

    /// Computes the raw aggregate of a set of in-neighbour rows taken from an
    /// embedding table, **overwriting** `out` (width `table.cols()`).
    /// Performs no heap allocation.
    ///
    /// `neighbors` and `weights` must be parallel slices (weights are ignored
    /// for `Sum`/`Mean`).
    ///
    /// This is the CSR sparse phase's inner loop: the neighbour slice makes
    /// upcoming embedding-row addresses visible *before* they are
    /// accumulated, so on non-scalar SIMD tiers the loop issues a software
    /// prefetch [`ripple_tensor::simd::PREFETCH_AHEAD`] neighbours ahead —
    /// hiding the gather latency that stalls this loop at mean degree ≥ 16.
    /// Prefetching never changes the accumulated values; the two loop bodies
    /// below perform the identical `axpy` sequence.
    ///
    /// # Panics
    ///
    /// Panics if `neighbors` and `weights` have different lengths, if `out`
    /// is not `table.cols()` wide, or if a neighbour index is out of bounds
    /// for `table`.
    pub fn raw_aggregate_into(
        self,
        table: &ripple_tensor::Matrix,
        neighbors: &[ripple_graph::VertexId],
        weights: &[f32],
        out: &mut [f32],
    ) {
        use ripple_tensor::simd;
        assert_eq!(
            neighbors.len(),
            weights.len(),
            "neighbour/weight length mismatch"
        );
        assert_eq!(out.len(), table.cols(), "raw_aggregate_into width mismatch");
        out.fill(0.0);
        if simd::prefetch_enabled() && neighbors.len() > simd::PREFETCH_AHEAD {
            for &u in neighbors.iter().take(simd::PREFETCH_AHEAD) {
                simd::prefetch_slice(table.row(u.index()));
            }
            for (i, (&u, &w)) in neighbors.iter().zip(weights.iter()).enumerate() {
                if let Some(ahead) = neighbors.get(i + simd::PREFETCH_AHEAD) {
                    simd::prefetch_slice(table.row(ahead.index()));
                }
                let coeff = self.edge_coefficient(w);
                ripple_tensor::axpy(out, coeff, table.row(u.index()));
            }
        } else {
            for (&u, &w) in neighbors.iter().zip(weights.iter()) {
                let coeff = self.edge_coefficient(w);
                ripple_tensor::axpy(out, coeff, table.row(u.index()));
            }
        }
    }

    /// Computes the raw aggregate of a set of in-neighbour rows taken from an
    /// embedding table. Thin allocating wrapper over
    /// [`Aggregator::raw_aggregate_into`].
    ///
    /// # Panics
    ///
    /// Panics if `neighbors` and `weights` have different lengths or if a
    /// neighbour index is out of bounds for `table`.
    pub fn raw_aggregate(
        self,
        table: &ripple_tensor::Matrix,
        neighbors: &[ripple_graph::VertexId],
        weights: &[f32],
    ) -> Vec<f32> {
        let mut acc = vec![0.0f32; table.cols()];
        self.raw_aggregate_into(table, neighbors, weights, &mut acc);
        acc
    }

    /// Convenience: raw aggregate followed by [`Self::finalize`].
    pub fn aggregate(
        self,
        table: &ripple_tensor::Matrix,
        neighbors: &[ripple_graph::VertexId],
        weights: &[f32],
    ) -> Vec<f32> {
        let raw = self.raw_aggregate(table, neighbors, weights);
        self.finalize(&raw, neighbors.len())
    }

    /// Number of floating-point accumulate operations performed when
    /// aggregating `k` neighbours — used by the experiment harness to report
    /// the operation-count advantage of incremental computation (§4.3.3).
    pub fn ops_for_neighbors(self, k: usize) -> usize {
        match self {
            Aggregator::Sum => k,
            Aggregator::Mean => k + 1,
            Aggregator::WeightedSum => 2 * k,
        }
    }

    /// All aggregators, for exhaustive property tests.
    pub fn all() -> [Aggregator; 3] {
        [Aggregator::Sum, Aggregator::Mean, Aggregator::WeightedSum]
    }
}

impl std::fmt::Display for Aggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Aggregator::Sum => "sum",
            Aggregator::Mean => "mean",
            Aggregator::WeightedSum => "weighted-sum",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_graph::VertexId;
    use ripple_tensor::Matrix;

    fn table() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap()
    }

    #[test]
    fn sum_aggregation() {
        let t = table();
        let agg = Aggregator::Sum.aggregate(&t, &[VertexId(0), VertexId(2)], &[1.0, 1.0]);
        assert_eq!(agg, vec![6.0, 8.0]);
    }

    #[test]
    fn mean_aggregation_normalises_by_degree() {
        let t = table();
        let agg = Aggregator::Mean.aggregate(&t, &[VertexId(0), VertexId(1)], &[1.0, 1.0]);
        assert_eq!(agg, vec![2.0, 3.0]);
        // Raw form is unnormalised.
        let raw = Aggregator::Mean.raw_aggregate(&t, &[VertexId(0), VertexId(1)], &[1.0, 1.0]);
        assert_eq!(raw, vec![4.0, 6.0]);
    }

    #[test]
    fn weighted_sum_uses_edge_weights() {
        let t = table();
        let agg = Aggregator::WeightedSum.aggregate(&t, &[VertexId(0), VertexId(1)], &[2.0, 0.5]);
        assert_eq!(agg, vec![3.5, 6.0]);
    }

    #[test]
    fn empty_neighbourhood_gives_zero() {
        let t = table();
        for agg in Aggregator::all() {
            assert_eq!(agg.aggregate(&t, &[], &[]), vec![0.0, 0.0]);
        }
        assert_eq!(Aggregator::Mean.finalize(&[4.0], 0), vec![0.0]);
    }

    #[test]
    fn edge_coefficients() {
        assert_eq!(Aggregator::Sum.edge_coefficient(3.0), 1.0);
        assert_eq!(Aggregator::Mean.edge_coefficient(3.0), 1.0);
        assert_eq!(Aggregator::WeightedSum.edge_coefficient(3.0), 3.0);
    }

    #[test]
    fn finalize_only_rescales_mean() {
        let raw = vec![4.0, 8.0];
        assert_eq!(Aggregator::Sum.finalize(&raw, 4), raw);
        assert_eq!(Aggregator::WeightedSum.finalize(&raw, 4), raw);
        assert_eq!(Aggregator::Mean.finalize(&raw, 4), vec![1.0, 2.0]);
    }

    #[test]
    fn ops_counts() {
        assert_eq!(Aggregator::Sum.ops_for_neighbors(10), 10);
        assert_eq!(Aggregator::Mean.ops_for_neighbors(10), 11);
        assert_eq!(Aggregator::WeightedSum.ops_for_neighbors(10), 20);
    }

    #[test]
    fn display_names() {
        assert_eq!(Aggregator::Sum.to_string(), "sum");
        assert_eq!(Aggregator::Mean.to_string(), "mean");
        assert_eq!(Aggregator::WeightedSum.to_string(), "weighted-sum");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_weights_panic() {
        let t = table();
        let _ = Aggregator::Sum.raw_aggregate(&t, &[VertexId(0)], &[1.0, 2.0]);
    }

    #[test]
    fn into_variants_overwrite_stale_contents() {
        let t = table();
        let mut out = vec![9.0f32; 2];
        Aggregator::WeightedSum.raw_aggregate_into(
            &t,
            &[VertexId(0), VertexId(1)],
            &[2.0, 0.5],
            &mut out,
        );
        assert_eq!(out, vec![3.5, 6.0]);
        let mut finalized = vec![9.0f32; 2];
        Aggregator::Mean.finalize_into(&[4.0, 6.0], 2, &mut finalized);
        assert_eq!(finalized, vec![2.0, 3.0]);
        Aggregator::Mean.finalize_into(&[4.0, 6.0], 0, &mut finalized);
        assert_eq!(finalized, vec![0.0, 0.0]);
        Aggregator::Sum.finalize_into(&[1.0, 2.0], 7, &mut finalized);
        assert_eq!(finalized, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn raw_aggregate_into_rejects_wrong_width() {
        let t = table();
        let mut out = vec![0.0f32; 3];
        Aggregator::Sum.raw_aggregate_into(&t, &[VertexId(0)], &[1.0], &mut out);
    }
}
