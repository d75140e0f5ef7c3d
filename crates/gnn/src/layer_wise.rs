//! Full-graph layer-wise inference and frontier re-evaluation.
//!
//! This is the paper's basic (and bootstrap) inference strategy: compute the
//! hop-1 embeddings for **all** vertices, then hop-2 from hop-1, and so on
//! (Fig 1, right). It avoids the neighbourhood-explosion and redundant
//! recomputation of vertex-wise inference, and it produces the
//! [`EmbeddingStore`] that both the recompute baseline and the Ripple engine
//! start from when updates begin streaming.
//!
//! # Execution model
//!
//! Each hop is evaluated **batched**: the per-vertex neighbourhood
//! aggregation (inherently sparse) fills packed scratch matrices, and the
//! dense `Update` step then runs as 1–2 register-blocked GEMMs over the whole
//! block ([`crate::GnnLayer::forward_batch`]) instead of `|V|` independent
//! matvecs. [`full_inference_with_pool`] additionally shards the vertex range
//! over a [`WorkerPool`]. The batched path is **bit-identical** to the
//! per-vertex reference ([`full_inference_per_vertex`]) because every kernel
//! accumulates in the same per-element order — `tests/kernel_parity.rs` pins
//! this for every `LayerKind x Aggregator` combination.
//!
//! # Topology access
//!
//! Every evaluator reads adjacency through the [`GraphView`] trait, so the
//! same kernels run against [`DynamicGraph`]'s `Vec` lists, an immutable
//! [`ripple_graph::CsrGraph`], or the engines' incrementally maintained
//! [`ripple_graph::CsrSnapshot`]. The bootstrap pass
//! ([`full_inference_with_pool`]) snapshots the graph into CSR form once and
//! streams one contiguous index/weight slice per vertex — the sparse phase
//! walks two flat arrays instead of chasing per-vertex heap allocations.
//! Because a CSR snapshot preserves the dynamic lists' per-vertex neighbour
//! order, the streamed result is bit-identical to the dynamic-list walk.

use crate::embeddings::EmbeddingStore;
use crate::model::GnnModel;
use crate::{GnnError, Result};
use ripple_graph::{DynamicGraph, GraphView, VertexId};
use ripple_tensor::{Matrix, Scratch, WorkerPool};

/// Checks that a feature width matches the model input width.
fn validate_feature_dim(feature_dim: usize, model: &GnnModel) -> Result<()> {
    if feature_dim != model.input_dim() {
        return Err(GnnError::FeatureDimMismatch {
            model: model.input_dim(),
            graph: feature_dim,
        });
    }
    Ok(())
}

/// Runs full layer-wise inference over every vertex of the graph, returning a
/// store with all layer embeddings and raw aggregates populated. Each hop is
/// evaluated as batched GEMM blocks on the calling thread; use
/// [`full_inference_with_pool`] to shard hops across workers.
///
/// # Errors
///
/// Returns [`GnnError::FeatureDimMismatch`] if the graph's feature width does
/// not match the model's input dimension.
pub fn full_inference(graph: &DynamicGraph, model: &GnnModel) -> Result<EmbeddingStore> {
    full_inference_with_pool(graph, model, &WorkerPool::new(1))
}

/// Runs full layer-wise inference with each hop's vertex range sharded over
/// `pool`. The graph is snapshotted into CSR form once and every hop streams
/// contiguous index/weight slices from it; see [`full_inference_on`] for the
/// view-generic evaluator underneath.
///
/// # Errors
///
/// Returns [`GnnError::FeatureDimMismatch`] if the graph's feature width does
/// not match the model's input dimension.
pub fn full_inference_with_pool(
    graph: &DynamicGraph,
    model: &GnnModel,
    pool: &WorkerPool,
) -> Result<EmbeddingStore> {
    validate_feature_dim(graph.feature_dim(), model)?;
    let csr = graph.to_csr();
    full_inference_on(&csr, graph.features(), model, pool)
}

/// Runs full layer-wise inference against any [`GraphView`], taking the
/// layer-0 embeddings from `features` (one row per vertex): the hop's
/// aggregate and embedding tables are pre-split into one contiguous row
/// block per worker (via [`pool::split_ranges`], the same arithmetic
/// [`WorkerPool::map_ranges`] shards with), and every worker aggregates and
/// GEMM-evaluates its block **in place** — no chunk-local result buffers, no
/// copy-back. The result is bit-identical for any thread count and for any
/// view presenting the same per-vertex neighbour order.
///
/// [`pool::split_ranges`]: ripple_tensor::pool::split_ranges
///
/// # Errors
///
/// Returns [`GnnError::FeatureDimMismatch`] if the feature width does not
/// match the model's input dimension, or [`GnnError::StoreMismatch`] if
/// `features` does not cover the view's vertices.
pub fn full_inference_on<G: GraphView + Sync>(
    view: &G,
    features: &Matrix,
    model: &GnnModel,
    pool: &WorkerPool,
) -> Result<EmbeddingStore> {
    validate_feature_dim(features.cols(), model)?;
    let n = view.num_vertices();
    if features.rows() != n {
        return Err(GnnError::StoreMismatch(format!(
            "feature table covers {} vertices, view has {n}",
            features.rows()
        )));
    }
    let mut store = EmbeddingStore::zeroed(model, n);

    // Layer 0 embeddings are the input features.
    *store.embeddings_mut(0) = features.clone();

    let aggregator = model.aggregator();
    for (hop, layer) in model.iter_layers() {
        let (prev, cur_emb, cur_agg) = store.propagation_views_mut(hop);
        let in_dim = layer.input_dim();
        let out_dim = layer.output_dim();

        // One contiguous vertex range — and the matching row blocks of the
        // hop's tables — per worker.
        let parts = pool.threads();
        let ranges = ripple_tensor::pool::split_ranges(n, parts);
        let mut states: Vec<(&mut [f32], &mut [f32], Scratch)> = Vec::with_capacity(parts);
        {
            let mut agg_rest = cur_agg.as_mut_slice();
            let mut emb_rest = cur_emb.as_mut_slice();
            for range in &ranges {
                let (agg_block, agg_tail) = agg_rest.split_at_mut(range.len() * in_dim);
                let (emb_block, emb_tail) = emb_rest.split_at_mut(range.len() * out_dim);
                agg_rest = agg_tail;
                emb_rest = emb_tail;
                states.push((agg_block, emb_block, Scratch::new()));
            }
        }

        let prefetch = ripple_tensor::simd::prefetch_enabled();
        let results = pool.map_ranges(&mut states, n, |state, range| -> Result<()> {
            let (agg_block, emb_block, scratch) = state;
            let m = range.len();
            // Sparse phase: raw aggregates straight into the store block,
            // streaming one contiguous index/weight slice per vertex. The
            // CSR stream makes the *next* vertex's neighbour ids visible
            // while the current vertex accumulates, so on non-scalar tiers
            // its first embedding rows are prefetched one vertex early —
            // by the time the accumulate loop reaches them the lines are in
            // flight (the in-row lookahead inside `raw_aggregate_into`
            // covers the rest of the row).
            for (i, v) in range.clone().enumerate() {
                let vid = VertexId(v as u32);
                let (neighbors, weights) = view.in_adjacency(vid);
                if prefetch && v + 1 < range.end {
                    let (next_neighbors, _) = view.in_adjacency(VertexId(v as u32 + 1));
                    for u in next_neighbors
                        .iter()
                        .take(ripple_tensor::simd::PREFETCH_AHEAD)
                    {
                        ripple_tensor::simd::prefetch_slice(prev.row(u.index()));
                    }
                }
                aggregator.raw_aggregate_into(
                    prev,
                    neighbors,
                    weights,
                    &mut agg_block[i * in_dim..(i + 1) * in_dim],
                );
            }
            // Dense phase: finalize (a no-op view for sum/weighted-sum) and
            // evaluate the whole block as 1–2 GEMMs, writing embeddings
            // straight into the store block.
            let agg_rows: &[f32] = if aggregator.finalize_is_identity() {
                agg_block
            } else {
                scratch.lhs.resize_reuse(m, in_dim);
                for (i, v) in range.clone().enumerate() {
                    let vid = VertexId(v as u32);
                    aggregator.finalize_into(
                        &agg_block[i * in_dim..(i + 1) * in_dim],
                        view.in_degree(vid),
                        scratch.lhs.row_mut(i),
                    );
                }
                scratch.lhs.as_slice()
            };
            // A contiguous vertex range means the self operand is simply the
            // matching block of the previous hop's table — zero-copy.
            let self_rows: &[f32] = if layer.depends_on_self() {
                &prev.as_slice()[range.start * in_dim..range.end * in_dim]
            } else {
                &[]
            };
            layer.forward_block(self_rows, agg_rows, m, &mut scratch.tmp, emb_block)
        });
        for result in results {
            result?;
        }
    }
    Ok(store)
}

/// The row-at-a-time reference implementation of [`full_inference`]: one
/// matvec per vertex per hop, no batching, no sharding. Kept as the parity
/// baseline (`tests/kernel_parity.rs` asserts the batched path is
/// bit-identical to it) and as the "before" side of the kernel-throughput
/// benchmark.
///
/// # Errors
///
/// Returns [`GnnError::FeatureDimMismatch`] if the graph's feature width does
/// not match the model's input dimension.
pub fn full_inference_per_vertex(graph: &DynamicGraph, model: &GnnModel) -> Result<EmbeddingStore> {
    validate_feature_dim(graph.feature_dim(), model)?;
    let n = graph.num_vertices();
    let mut store = EmbeddingStore::zeroed(model, n);
    *store.embeddings_mut(0) = graph.features().clone();

    let aggregator = model.aggregator();
    let mut tmp = Vec::new();
    for (hop, layer) in model.iter_layers() {
        // Reading hop-1 while writing hop through split views avoids the
        // row copy the old implementation paid per vertex.
        let (prev, cur_emb, cur_agg) = store.propagation_views_mut(hop);
        let mut finalized = vec![0.0f32; layer.input_dim()];
        for v in 0..n {
            let vid = VertexId(v as u32);
            aggregator.raw_aggregate_into(
                prev,
                graph.in_neighbors(vid),
                graph.in_weights(vid),
                cur_agg.row_mut(v),
            );
            aggregator.finalize_into(cur_agg.row(v), graph.in_degree(vid), &mut finalized);
            layer.forward_into(prev.row(v), &finalized, &mut tmp, cur_emb.row_mut(v))?;
        }
    }
    Ok(store)
}

/// Recomputes (from scratch) the embeddings of a *subset* of vertices at one
/// hop, reading the previous hop's embeddings from `store` and writing both
/// the raw aggregate and the embedding back. Returns the number of
/// neighbour-accumulate operations performed, which is the cost metric the
/// paper contrasts with Ripple's `2·k'` (§4.3.3).
///
/// This is the building block of the layer-wise *recompute-on-update*
/// baseline (RC): for each affected vertex it pulls **all** in-neighbours,
/// regardless of how many of them actually changed. The previous hop is read
/// through a split borrow of the store, so no row is copied.
///
/// # Errors
///
/// Propagates tensor shape errors if the store does not match the model.
pub fn recompute_vertices_at_hop<G: GraphView + ?Sized>(
    graph: &G,
    model: &GnnModel,
    store: &mut EmbeddingStore,
    hop: usize,
    vertices: &[VertexId],
) -> Result<usize> {
    let layer = model.layer(hop)?;
    let aggregator = model.aggregator();
    let (prev, cur_emb, cur_agg) = store.propagation_views_mut(hop);
    let mut finalized = vec![0.0f32; layer.input_dim()];
    let mut tmp = Vec::new();
    let mut ops = 0usize;
    for &vid in vertices {
        let neighbors = graph.in_neighbors(vid);
        aggregator.raw_aggregate_into(
            prev,
            neighbors,
            graph.in_weights(vid),
            cur_agg.row_mut(vid.index()),
        );
        ops += aggregator.ops_for_neighbors(neighbors.len());
        aggregator.finalize_into(cur_agg.row(vid.index()), neighbors.len(), &mut finalized);
        layer.forward_into(
            prev.row(vid.index()),
            &finalized,
            &mut tmp,
            cur_emb.row_mut(vid.index()),
        )?;
    }
    Ok(ops)
}

/// Re-evaluates hop `hop` for a slice of vertices against an **immutable**
/// store, leaving the new embeddings as the rows of `scratch.out` (a flat
/// row-major `vertices.len() x output_dim` block, in input order). Nothing in
/// the store is written, so worker threads can evaluate disjoint slices of an
/// affected frontier concurrently without locking — the incremental engines
/// fold all pending mailbox deltas into the stored aggregates *before*
/// calling this, then commit the returned rows in a deterministic order
/// afterwards.
///
/// The whole slice is evaluated as one batched block: stored raw aggregates
/// are finalized into `scratch.lhs`, self embeddings (for self-dependent
/// layers) are gathered into `scratch.lhs2`, and the layer runs as 1–2 GEMMs
/// plus a fused bias/activation pass. Per vertex, the float operations are
/// identical to the serial per-vertex path, which is what keeps parallel
/// propagation bit-identical to serial propagation for linear aggregators.
/// Once the scratch buffers have reached steady-state capacity the call
/// performs **zero heap allocations**.
///
/// # Errors
///
/// Propagates layer lookup and tensor shape errors.
pub fn reevaluate_slice_into<G: GraphView + ?Sized>(
    graph: &G,
    model: &GnnModel,
    store: &EmbeddingStore,
    hop: usize,
    vertices: &[VertexId],
    scratch: &mut Scratch,
) -> Result<()> {
    let layer = model.layer(hop)?;
    let aggregator = model.aggregator();
    let in_dim = layer.input_dim();

    // The vertex slice makes upcoming aggregate/embedding row addresses
    // visible ahead of the copy loops — same prefetch discipline as the
    // sparse aggregation phase (no effect on values).
    let prefetch = ripple_tensor::simd::prefetch_enabled();
    let ahead = ripple_tensor::simd::PREFETCH_AHEAD;
    scratch.lhs.resize_reuse(vertices.len(), in_dim);
    for (i, &v) in vertices.iter().enumerate() {
        if prefetch {
            if let Some(a) = vertices.get(i + ahead) {
                ripple_tensor::simd::prefetch_slice(store.aggregate(hop, *a));
            }
        }
        aggregator.finalize_into(
            store.aggregate(hop, v),
            graph.in_degree(v),
            scratch.lhs.row_mut(i),
        );
    }
    if layer.depends_on_self() {
        let prev = store.embeddings(hop - 1);
        scratch.lhs2.resize_reuse(vertices.len(), in_dim);
        for (i, &v) in vertices.iter().enumerate() {
            if prefetch {
                if let Some(a) = vertices.get(i + ahead) {
                    ripple_tensor::simd::prefetch_slice(prev.row(a.index()));
                }
            }
            scratch.lhs2.row_mut(i).copy_from_slice(prev.row(v.index()));
        }
    } else {
        scratch.lhs2.resize_reuse(0, in_dim);
    }
    layer.forward_batch(
        &scratch.lhs2,
        &scratch.lhs,
        &mut scratch.tmp,
        &mut scratch.out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aggregator, LayerKind, Workload};
    use ripple_graph::synth::DatasetSpec;

    fn small_graph() -> DynamicGraph {
        DatasetSpec::custom(60, 4.0, 6, 4).generate(3).unwrap()
    }

    /// [`reevaluate_slice_into`] with one freshly allocated embedding per
    /// vertex, in input order.
    fn reevaluate_slice<G: GraphView + ?Sized>(
        graph: &G,
        model: &GnnModel,
        store: &EmbeddingStore,
        hop: usize,
        vertices: &[VertexId],
    ) -> Result<Vec<Vec<f32>>> {
        let mut scratch = Scratch::new();
        reevaluate_slice_into(graph, model, store, hop, vertices, &mut scratch)?;
        Ok(scratch.out.iter_rows().map(<[f32]>::to_vec).collect())
    }

    #[test]
    fn full_inference_populates_every_layer() {
        let g = small_graph();
        let model = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[6, 8, 4], 1).unwrap();
        let store = full_inference(&g, &model).unwrap();
        assert_eq!(store.embeddings(0), g.features());
        // Some vertex must have a non-zero hop-2 embedding.
        let nonzero = (0..60).any(|v| {
            store
                .embedding(2, VertexId(v))
                .iter()
                .any(|&x| x.abs() > 1e-6)
        });
        assert!(nonzero);
    }

    #[test]
    fn feature_dim_mismatch_rejected() {
        let g = small_graph();
        let model = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[9, 8, 4], 1).unwrap();
        assert!(matches!(
            full_inference(&g, &model),
            Err(GnnError::FeatureDimMismatch { .. })
        ));
        assert!(matches!(
            full_inference_per_vertex(&g, &model),
            Err(GnnError::FeatureDimMismatch { .. })
        ));
    }

    #[test]
    fn hop1_embedding_matches_manual_computation() {
        // Graph: 0 -> 2, 1 -> 2 with sum aggregation and identity-activation
        // final layer; hop-1 aggregate of 2 is feature(0) + feature(1).
        let mut g = DynamicGraph::new(3, 2);
        g.add_edge(VertexId(0), VertexId(2), 1.0).unwrap();
        g.add_edge(VertexId(1), VertexId(2), 1.0).unwrap();
        let mut feats = ripple_tensor::Matrix::zeros(3, 2);
        feats.set_row(0, &[1.0, 2.0]).unwrap();
        feats.set_row(1, &[3.0, 4.0]).unwrap();
        g.set_features(feats).unwrap();

        let model = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[2, 2], 5).unwrap();
        let store = full_inference(&g, &model).unwrap();
        assert_eq!(store.aggregate(1, VertexId(2)), &[4.0, 6.0]);
        let manual = model
            .layer(1)
            .unwrap()
            .forward(&[0.0, 0.0], &[4.0, 6.0])
            .unwrap();
        assert_eq!(store.embedding(1, VertexId(2)), manual.as_slice());
        // Isolated vertex 0 aggregates nothing.
        assert_eq!(store.aggregate(1, VertexId(0)), &[0.0, 0.0]);
    }

    #[test]
    fn all_workloads_run_end_to_end() {
        let g = DatasetSpec::custom(40, 3.0, 5, 3)
            .generate_weighted(2, true)
            .unwrap();
        for workload in Workload::all() {
            let model = workload.build_model(5, 8, 3, 2, 11).unwrap();
            let store = full_inference(&g, &model).unwrap();
            assert_eq!(store.num_layers(), 2);
        }
    }

    /// The batched bootstrap path must be bit-identical to the per-vertex
    /// reference for every workload and thread count.
    #[test]
    fn batched_full_inference_bitwise_matches_per_vertex_reference() {
        let g = DatasetSpec::custom(90, 5.0, 6, 4)
            .generate_weighted(7, true)
            .unwrap();
        for workload in Workload::all() {
            let model = workload.build_model(6, 8, 4, 3, 13).unwrap();
            let reference = full_inference_per_vertex(&g, &model).unwrap();
            for threads in [1usize, 4] {
                let batched =
                    full_inference_with_pool(&g, &model, &WorkerPool::new(threads)).unwrap();
                assert!(
                    batched == reference,
                    "workload {workload} at {threads} threads diverged from the reference"
                );
            }
        }
    }

    /// Every topology view — dynamic lists, immutable CSR, CSR snapshot
    /// with a live overlay — must evaluate to bit-identical stores, since
    /// all of them present the same per-vertex neighbour order.
    #[test]
    fn full_inference_on_any_view_is_bit_identical() {
        use ripple_graph::{CsrSnapshot, GraphUpdate};
        let mut g = DatasetSpec::custom(70, 5.0, 6, 4)
            .generate_weighted(11, true)
            .unwrap();
        let model = GnnModel::new(LayerKind::Sage, Aggregator::Mean, &[6, 8, 4], 5).unwrap();
        let mut snap = CsrSnapshot::from_dynamic(&g);
        // Dirty the overlay so reads mix base slices and overlay rows.
        let updates = vec![
            GraphUpdate::add_weighted_edge(VertexId(0), VertexId(42), 0.75),
            GraphUpdate::add_weighted_edge(VertexId(3), VertexId(42), 1.25),
            GraphUpdate::delete_edge(VertexId(0), VertexId(42)),
        ];
        for u in &updates {
            g.apply(u).unwrap();
            snap.apply(u).unwrap();
        }
        let pool = WorkerPool::new(2);
        let via_dynamic = full_inference_on(&g, g.features(), &model, &pool).unwrap();
        let via_csr = full_inference_on(&g.to_csr(), g.features(), &model, &pool).unwrap();
        let via_snapshot = full_inference_on(&snap, g.features(), &model, &pool).unwrap();
        assert!(via_dynamic == via_csr, "CSR view diverged");
        assert!(via_dynamic == via_snapshot, "snapshot view diverged");
        // And the snapshot keeps agreeing after a compaction.
        snap.compact();
        let compacted = full_inference_on(&snap, g.features(), &model, &pool).unwrap();
        assert!(via_dynamic == compacted, "compacted snapshot diverged");
        // A feature table that does not cover the view is rejected.
        assert!(matches!(
            full_inference_on(&snap, &Matrix::zeros(3, 6), &model, &pool),
            Err(GnnError::StoreMismatch(_))
        ));
    }

    #[test]
    fn recompute_subset_reproduces_full_inference() {
        let g = small_graph();
        let model = GnnModel::new(LayerKind::Sage, Aggregator::Mean, &[6, 8, 4], 2).unwrap();
        let reference = full_inference(&g, &model).unwrap();
        let mut store = full_inference(&g, &model).unwrap();
        // Corrupt a few rows, then recompute exactly those vertices.
        let victims = vec![VertexId(1), VertexId(5), VertexId(17)];
        for &v in &victims {
            store.set_embedding(1, v, &[9.0; 8]).unwrap();
            store.set_aggregate(1, v, &[9.0; 6]).unwrap();
        }
        let ops = recompute_vertices_at_hop(&g, &model, &mut store, 1, &victims).unwrap();
        assert!(ops > 0);
        assert!(store.max_diff_all_layers(&reference).unwrap() < 1e-5);
    }

    #[test]
    fn reevaluate_slice_without_deltas_reproduces_stored_embeddings() {
        let g = small_graph();
        let model = GnnModel::new(LayerKind::Sage, Aggregator::Mean, &[6, 8, 4], 7).unwrap();
        let store = full_inference(&g, &model).unwrap();
        let vertices: Vec<VertexId> = (0..60).map(VertexId).collect();
        for hop in 1..=2 {
            let evals = reevaluate_slice(&g, &model, &store, hop, &vertices).unwrap();
            for (&v, new_embedding) in vertices.iter().zip(&evals) {
                assert_eq!(new_embedding.as_slice(), store.embedding(hop, v));
            }
        }
    }

    #[test]
    fn reevaluate_slice_sees_aggregates_folded_before_the_call() {
        // The engines' apply-then-evaluate contract: fold a pending delta
        // into the stored aggregate, and the slice evaluation must reflect
        // it exactly.
        let g = small_graph();
        let model = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[6, 8, 4], 9).unwrap();
        let mut store = full_inference(&g, &model).unwrap();
        let v = VertexId(11);
        let delta = vec![0.5f32; 6];
        ripple_tensor::add_assign(store.aggregate_mut(1, v), &delta);

        let evals = reevaluate_slice(&g, &model, &store, 1, &[v]).unwrap();
        let finalized = model
            .aggregator()
            .finalize(store.aggregate(1, v), g.in_degree(v));
        let expected_emb = model
            .layer(1)
            .unwrap()
            .forward(store.embedding(0, v), &finalized)
            .unwrap();
        assert_eq!(evals[0], expected_emb);
        assert_ne!(evals[0].as_slice(), store.embedding(1, v));
    }

    #[test]
    fn reevaluate_slice_preserves_input_order_and_is_splittable() {
        // Evaluating a slice in one call or as two disjoint sub-slices must
        // produce bit-identical results — the property parallel workers rely
        // on.
        let g = small_graph();
        let model = GnnModel::new(LayerKind::Gin, Aggregator::Sum, &[6, 8, 4], 3).unwrap();
        let mut store = full_inference(&g, &model).unwrap();
        // Perturb some aggregates so the evaluation is not a no-op replay.
        for v in (0..40).step_by(3) {
            ripple_tensor::add_assign(store.aggregate_mut(1, VertexId(v)), &[0.25; 6]);
        }
        let vertices: Vec<VertexId> = (0..40).map(VertexId).collect();
        let whole = reevaluate_slice(&g, &model, &store, 1, &vertices).unwrap();
        let mut split = reevaluate_slice(&g, &model, &store, 1, &vertices[..17]).unwrap();
        split.extend(reevaluate_slice(&g, &model, &store, 1, &vertices[17..]).unwrap());
        assert_eq!(whole, split);
    }

    #[test]
    fn reevaluate_slice_into_reuses_scratch_across_calls() {
        let g = small_graph();
        let model = GnnModel::new(LayerKind::Sage, Aggregator::Mean, &[6, 8, 4], 5).unwrap();
        let store = full_inference(&g, &model).unwrap();
        let vertices: Vec<VertexId> = (0..30).map(VertexId).collect();
        let mut scratch = Scratch::new();
        reevaluate_slice_into(&g, &model, &store, 1, &vertices, &mut scratch).unwrap();
        assert_eq!(scratch.out.shape(), (30, 8));
        let first = scratch.out.clone();
        // A second call over a smaller slice reuses the buffers and yields
        // the matching prefix rows.
        reevaluate_slice_into(&g, &model, &store, 1, &vertices[..5], &mut scratch).unwrap();
        assert_eq!(scratch.out.shape(), (5, 8));
        for i in 0..5 {
            assert_eq!(scratch.out.row(i), first.row(i));
        }
    }

    #[test]
    fn recompute_ops_scale_with_degree() {
        let g = small_graph();
        let model = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[6, 4], 0).unwrap();
        let mut store = full_inference(&g, &model).unwrap();
        let all: Vec<VertexId> = (0..60).map(VertexId).collect();
        let ops = recompute_vertices_at_hop(&g, &model, &mut store, 1, &all).unwrap();
        assert_eq!(ops, g.num_edges());
    }
}
