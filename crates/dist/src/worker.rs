//! Shared per-worker state helpers of the distributed engines.
//!
//! Both engines keep one [`EmbeddingStore`] per worker (the incremental
//! engine's live inside its [`ripple_core::ShardEngine`]s), full-sized but
//! *authoritative only for the rows of vertices that worker owns* — exactly
//! the ownership discipline of a real deployment, where reading a remote row
//! without first communicating it would be a bug. [`gather_store`] assembles
//! the authoritative rows of a set of per-worker stores back into one store,
//! which is how every exactness test compares a distributed run against the
//! single-machine engines.

use crate::{DistError, Result};
use ripple_gnn::{EmbeddingStore, GnnModel};
use ripple_graph::partition::Partitioning;
use ripple_graph::{DynamicGraph, VertexId};

/// Validates that graph, model, bootstrap store and partitioning fit
/// together.
pub(crate) fn validate_shapes(
    graph: &DynamicGraph,
    model: &GnnModel,
    store: &EmbeddingStore,
    partitioning: &Partitioning,
) -> Result<()> {
    if store.num_vertices() != graph.num_vertices() {
        return Err(DistError::Mismatch(format!(
            "store covers {} vertices, graph has {}",
            store.num_vertices(),
            graph.num_vertices()
        )));
    }
    if store.num_layers() != model.num_layers() {
        return Err(DistError::Mismatch(format!(
            "store has {} layers, model has {}",
            store.num_layers(),
            model.num_layers()
        )));
    }
    if graph.feature_dim() != model.input_dim() {
        return Err(DistError::Mismatch(format!(
            "graph features are {}-wide, model expects {}",
            graph.feature_dim(),
            model.input_dim()
        )));
    }
    if partitioning.num_vertices() != graph.num_vertices() {
        return Err(DistError::Mismatch(format!(
            "partitioning covers {} vertices, graph has {}",
            partitioning.num_vertices(),
            graph.num_vertices()
        )));
    }
    Ok(())
}

/// Groups vertices by their owning partition, sorted within each partition
/// so that per-worker processing (and therefore float accumulation) order is
/// reproducible across runs even when the input set is hash-ordered.
pub(crate) fn group_by_part(
    vertices: impl IntoIterator<Item = VertexId>,
    partitioning: &Partitioning,
) -> Vec<Vec<VertexId>> {
    let mut by_part = vec![Vec::new(); partitioning.num_parts()];
    for v in vertices {
        by_part[partitioning.part_of(v).index()].push(v);
    }
    for part in &mut by_part {
        part.sort_unstable();
    }
    by_part
}

/// Assembles the authoritative (owner-held) rows of every per-worker store
/// into one [`EmbeddingStore`], the distributed counterpart of reading a
/// single-machine engine's store.
///
/// # Panics
///
/// Panics if `stores` is empty or the stores disagree with the partitioning
/// on vertex count (engine constructors enforce both).
pub fn gather_store(stores: &[EmbeddingStore], partitioning: &Partitioning) -> EmbeddingStore {
    let mut gathered = stores[0].clone();
    let num_layers = gathered.num_layers();
    for v in 0..partitioning.num_vertices() {
        let vid = VertexId(v as u32);
        let owner = partitioning.part_of(vid).index();
        if owner == 0 {
            continue;
        }
        let src = &stores[owner];
        for l in 0..=num_layers {
            gathered
                .set_embedding(l, vid, src.embedding(l, vid))
                .expect("stores share one shape");
        }
        for l in 1..=num_layers {
            gathered
                .set_aggregate(l, vid, src.aggregate(l, vid))
                .expect("stores share one shape");
        }
    }
    gathered
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_gnn::layer_wise::full_inference;
    use ripple_gnn::Workload;
    use ripple_graph::partition::{HashPartitioner, Partitioner};
    use ripple_graph::synth::DatasetSpec;

    #[test]
    fn gather_reassembles_owner_rows() {
        let graph = DatasetSpec::custom(40, 3.0, 4, 3).generate(1).unwrap();
        let model = Workload::GcS.build_model(4, 6, 3, 2, 0).unwrap();
        let store = full_inference(&graph, &model).unwrap();
        let partitioning = HashPartitioner::new().partition(&graph, 3).unwrap();

        // Perturb each worker's copy on rows it does NOT own; the gathered
        // store must ignore those rows entirely.
        let mut stores = vec![store.clone(); 3];
        for (p, s) in stores.iter_mut().enumerate() {
            for v in 0..40u32 {
                let vid = VertexId(v);
                if partitioning.part_of(vid).index() != p {
                    s.set_embedding(2, vid, &[9.0, 9.0, 9.0]).unwrap();
                }
            }
        }
        let gathered = gather_store(&stores, &partitioning);
        assert_eq!(gathered.max_diff_all_layers(&store).unwrap(), 0.0);
    }

    #[test]
    fn shape_validation_rejects_mismatches() {
        let graph = DatasetSpec::custom(30, 3.0, 4, 3).generate(2).unwrap();
        let model = Workload::GcS.build_model(4, 6, 3, 2, 0).unwrap();
        let store = full_inference(&graph, &model).unwrap();
        let partitioning = HashPartitioner::new().partition(&graph, 2).unwrap();
        assert!(validate_shapes(&graph, &model, &store, &partitioning).is_ok());

        let other_model = Workload::GcS.build_model(4, 6, 3, 3, 0).unwrap();
        assert!(validate_shapes(&graph, &other_model, &store, &partitioning).is_err());

        let small = EmbeddingStore::zeroed(&model, 10);
        assert!(validate_shapes(&graph, &model, &small, &partitioning).is_err());

        let small_graph = DatasetSpec::custom(10, 2.0, 4, 3).generate(2).unwrap();
        let bad_parts = HashPartitioner::new().partition(&small_graph, 2).unwrap();
        assert!(validate_shapes(&graph, &model, &store, &bad_parts).is_err());

        let wrong_width = Workload::GcS.build_model(6, 6, 3, 2, 0).unwrap();
        let wrong_store = EmbeddingStore::zeroed(&wrong_width, 30);
        assert!(validate_shapes(&graph, &wrong_width, &wrong_store, &partitioning).is_err());
    }

    #[test]
    fn grouping_is_sorted_within_each_partition() {
        let graph = DatasetSpec::custom(20, 2.0, 4, 3).generate(4).unwrap();
        let partitioning = HashPartitioner::new().partition(&graph, 3).unwrap();
        let scrambled = [7u32, 3, 19, 0, 12, 9, 6, 15].map(VertexId);
        let grouped = group_by_part(scrambled, &partitioning);
        assert_eq!(grouped.iter().map(Vec::len).sum::<usize>(), scrambled.len());
        for (p, vertices) in grouped.iter().enumerate() {
            assert!(
                vertices.windows(2).all(|w| w[0] < w[1]),
                "partition {p} unsorted"
            );
            assert!(vertices
                .iter()
                .all(|&v| partitioning.part_of(v).index() == p));
        }
    }
}
