//! Neighbourhood fanout sampling (used only by vertex-wise inference).
//!
//! Training-style GNN systems cap the number of in-neighbours aggregated per
//! vertex ("fanout") to keep computation graphs small. The paper's Fig 2a
//! shows why that is unacceptable for serving: sampled inference is faster
//! but non-deterministic and less accurate than full-neighbourhood inference.
//! This module provides the sampler and the agreement metric used to
//! reproduce that figure.

use rand::rngs::SmallRng;
use rand::seq::index::sample;
use ripple_graph::VertexId;

/// Selects at most `fanout` in-neighbours (and their parallel weights)
/// uniformly at random without replacement. If the neighbourhood is already
/// within the fanout it is returned unchanged.
///
/// # Panics
///
/// Panics if `neighbors` and `weights` have different lengths.
pub fn sample_neighbors(
    neighbors: &[VertexId],
    weights: &[f32],
    fanout: usize,
    rng: &mut SmallRng,
) -> (Vec<VertexId>, Vec<f32>) {
    assert_eq!(
        neighbors.len(),
        weights.len(),
        "neighbour/weight length mismatch"
    );
    if neighbors.len() <= fanout {
        return (neighbors.to_vec(), weights.to_vec());
    }
    let chosen = sample(rng, neighbors.len(), fanout);
    let mut ns = Vec::with_capacity(fanout);
    let mut ws = Vec::with_capacity(fanout);
    for idx in chosen.iter() {
        ns.push(neighbors[idx]);
        ws.push(weights[idx]);
    }
    (ns, ws)
}

/// Fraction of entries on which two label vectors agree. Used as the
/// "inference accuracy" of sampled vertex-wise inference relative to the
/// deterministic full-neighbourhood prediction (Fig 2a): with no trained
/// model, agreement with the exact computation is the quantity that isolates
/// the *sampling* error the paper talks about.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn label_agreement(reference: &[usize], predicted: &[usize]) -> f64 {
    assert_eq!(
        reference.len(),
        predicted.len(),
        "label vector length mismatch"
    );
    if reference.is_empty() {
        return 1.0;
    }
    let matches = reference
        .iter()
        .zip(predicted.iter())
        .filter(|(a, b)| a == b)
        .count();
    matches as f64 / reference.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn small_neighbourhoods_are_untouched() {
        let ns = vec![VertexId(1), VertexId(2)];
        let ws = vec![1.0, 2.0];
        let mut rng = SmallRng::seed_from_u64(0);
        let (sn, sw) = sample_neighbors(&ns, &ws, 5, &mut rng);
        assert_eq!(sn, ns);
        assert_eq!(sw, ws);
    }

    #[test]
    fn sampling_respects_fanout_and_keeps_pairs() {
        let ns: Vec<VertexId> = (0..100).map(VertexId).collect();
        let ws: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let mut rng = SmallRng::seed_from_u64(7);
        let (sn, sw) = sample_neighbors(&ns, &ws, 10, &mut rng);
        assert_eq!(sn.len(), 10);
        assert_eq!(sw.len(), 10);
        for (n, w) in sn.iter().zip(sw.iter()) {
            assert_eq!(
                n.0 as f32, *w,
                "weights must stay parallel to their neighbours"
            );
        }
        // No duplicates.
        let unique: std::collections::HashSet<_> = sn.iter().collect();
        assert_eq!(unique.len(), 10);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let ns: Vec<VertexId> = (0..50).map(VertexId).collect();
        let ws = vec![1.0; 50];
        let a = sample_neighbors(&ns, &ws, 5, &mut SmallRng::seed_from_u64(3));
        let b = sample_neighbors(&ns, &ws, 5, &mut SmallRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn agreement_metric() {
        assert_eq!(label_agreement(&[1, 2, 3, 4], &[1, 2, 3, 4]), 1.0);
        assert_eq!(label_agreement(&[1, 2, 3, 4], &[1, 2, 0, 0]), 0.5);
        assert_eq!(label_agreement(&[], &[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn agreement_length_mismatch_panics() {
        let _ = label_agreement(&[1], &[1, 2]);
    }
}
