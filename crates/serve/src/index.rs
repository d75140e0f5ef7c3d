//! Epoch-versioned IVF similarity index over final-layer embeddings.
//!
//! A classic inverted-file (IVF) layout with coarse k-means centroids and
//! one postings list per cluster, serving both top-k read modes:
//!
//! * [`ReadMode::Approx`](crate::ReadMode::Approx) ranks the clusters by a
//!   maximum-inner-product bound, probes the `nprobe` best and scores only
//!   their members — sublinear, with approximate *recall*;
//! * [`ReadMode::Exact`](crate::ReadMode::Exact) visits clusters in
//!   descending bound order and stops once the k-th best score beats every
//!   unvisited cluster's bound (see `TopKIndex::exact_bounds` for the
//!   rounding slack) — the same answer as a full scan, bit for bit.
//!
//! The per-cluster **radii** back both: `dot(x, q) ≤ dot(c, q) + radius·‖q‖`
//! for every member `x` of cluster `c`. Scores always come from the
//! published snapshot table, never from index state, so every returned
//! `(vertex, score)` is bit-identical to what a full scan reports for it.
//!
//! # Publication
//!
//! The index is published exactly like the store: an [`Arc`] swap behind an
//! atomic epoch mirror ([`VersionedIndex`]), one writer
//! ([`IndexMaintainer`], owned by the scheduler thread) and lock-free
//! readers ([`IndexReader`]). Each flush the maintainer consumes the same
//! dirty-row set the [`crate::versioned::SnapshotPublisher`] gets and
//! **repairs** only the touched postings: moved rows are reassigned to their
//! nearest centroid, vanished rows are tombstoned, and clusters drifting
//! past the imbalance threshold are lazily split or merged. The maintainer
//! double-buffers like the snapshot publisher — the index retired two epochs
//! ago is reclaimed via [`Arc::try_unwrap`] and repaired with the union of
//! the last two dirty sets, so steady-state publication is O(affected), not
//! O(|V|). [`IndexStats`] counts repairs vs. full rebuilds to prove the
//! incrementality.
//!
//! An index published at epoch `e` describes exactly the snapshot table
//! published at epoch `e` — the pairing a pruned exact read relies on. Two
//! publications keep it: recovery resumes the index at the store's epoch
//! ([`IndexMaintainer::bootstrap_at`]), and the non-final windows of an
//! admission group, which repair from a store already ahead of their
//! snapshots, publish *unpaired* ([`IndexMaintainer::publish_unpaired`]).
//!
//! # Determinism
//!
//! Centroids are seeded and refined with the workspace's deterministic
//! `rand` shim and stay **fixed** after the bootstrap build (splits add a
//! deterministically chosen member row; merges remove a centroid). The
//! assignment is always the pure function *nearest centroid by L2 distance,
//! ties to the lower cluster index* — which is what makes incremental
//! repair reproducible: repairing N epochs of dirty rows yields bit-for-bit
//! the same index as rebuilding from the final store under the same
//! centroids (pinned by `tests/topk_index.rs`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ripple_gnn::EmbeddingStore;
use ripple_graph::VertexId;
use ripple_tensor::ops::{row_matmul_into, row_sq_dist_into};
use ripple_tensor::{vector, Matrix};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Sentinel assignment for rows that are not indexed: beyond the store,
/// deleted, or owned by another shard.
const TOMBSTONE: u32 = u32::MAX;

/// Tuning knobs of the IVF index, carried inside
/// [`crate::ServeConfig::index`].
///
/// The defaults are sized for the serving workloads in this repo; all knobs
/// are validated by [`crate::ServeConfigBuilder::index`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexParams {
    /// Number of coarse clusters; `0` picks `√|V|` (clamped to `[1, 4096]`)
    /// at build time.
    pub clusters: usize,
    /// Lloyd refinement iterations of the bootstrap k-means build.
    pub kmeans_iters: usize,
    /// Seed of the deterministic centroid initialisation.
    pub seed: u64,
    /// Imbalance threshold: a cluster larger than `split_factor ×` the mean
    /// cluster size is lazily split; one smaller than `mean /
    /// split_factor` is lazily merged away. Must be `> 1.0`.
    pub split_factor: f64,
}

impl Default for IndexParams {
    fn default() -> Self {
        IndexParams {
            clusters: 0,
            kmeans_iters: 4,
            seed: 0x05ee_d1df,
            split_factor: 4.0,
        }
    }
}

impl IndexParams {
    /// The cluster count used for a table of `rows` indexed rows: the
    /// configured count, or `round(sqrt(rows))` when left at 0 (auto),
    /// clamped to `[1, 4096]` and never above `rows`.
    pub fn effective_clusters(&self, rows: usize) -> usize {
        let auto = if self.clusters > 0 {
            self.clusters
        } else {
            (rows as f64).sqrt().round() as usize
        };
        auto.clamp(1, 4096).min(rows.max(1))
    }
}

/// Point-in-time counters of one shard's [`IndexMaintainer`], proving that
/// steady-state epochs repair instead of rebuilding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Full k-means builds (the bootstrap build; stays at 1 per shard in
    /// steady state).
    pub builds: u64,
    /// Full k-means **re**builds after bootstrap (dimension changes only —
    /// zero in steady state, asserted by the bench).
    pub rebuilds: u64,
    /// Publications that repaired the index incrementally.
    pub repairs: u64,
    /// Rows re-examined by incremental repairs.
    pub rows_repaired: u64,
    /// Repaired rows that actually changed cluster (or were tombstoned).
    pub rows_moved: u64,
    /// Lazy cluster splits (imbalance above threshold).
    pub splits: u64,
    /// Lazy cluster merges (underfull or empty clusters).
    pub merges: u64,
    /// Publications that reclaimed the retired double buffer.
    pub buffer_reuses: u64,
    /// Publications that fell back to cloning the live index (warm-up, a
    /// slow reader, or a structural change in the last two epochs).
    pub clone_fallbacks: u64,
}

impl IndexStats {
    /// Element-wise sum — used to aggregate per-shard stats.
    pub fn merged(self, other: IndexStats) -> IndexStats {
        IndexStats {
            builds: self.builds + other.builds,
            rebuilds: self.rebuilds + other.rebuilds,
            repairs: self.repairs + other.repairs,
            rows_repaired: self.rows_repaired + other.rows_repaired,
            rows_moved: self.rows_moved + other.rows_moved,
            splits: self.splits + other.splits,
            merges: self.merges + other.merges,
            buffer_reuses: self.buffer_reuses + other.buffer_reuses,
            clone_fallbacks: self.clone_fallbacks + other.clone_fallbacks,
        }
    }
}

/// Lock-free shared counters behind [`IndexStats`]; the maintainer writes
/// from the scheduler thread, session handles snapshot from anywhere.
#[derive(Debug, Default)]
pub struct SharedIndexStats {
    builds: AtomicU64,
    rebuilds: AtomicU64,
    repairs: AtomicU64,
    rows_repaired: AtomicU64,
    rows_moved: AtomicU64,
    splits: AtomicU64,
    merges: AtomicU64,
    buffer_reuses: AtomicU64,
    clone_fallbacks: AtomicU64,
}

impl SharedIndexStats {
    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> IndexStats {
        IndexStats {
            builds: self.builds.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            rows_repaired: self.rows_repaired.load(Ordering::Relaxed),
            rows_moved: self.rows_moved.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            buffer_reuses: self.buffer_reuses.load(Ordering::Relaxed),
            clone_fallbacks: self.clone_fallbacks.load(Ordering::Relaxed),
        }
    }

    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// One published, immutable IVF index over a store's final layer.
///
/// Readers obtain it through [`IndexReader::index`] and use
/// [`TopKIndex::candidates`] to turn a query vector into the member set of
/// its `nprobe` best clusters; scoring happens against the snapshot table,
/// never against index state.
#[derive(Debug, Clone)]
pub struct TopKIndex {
    /// Epoch this index was published at; advances in lockstep with the
    /// store epochs of the same scheduler.
    epoch: u64,
    /// Bumped by every structural change (split / merge / rebuild); a
    /// retired buffer from before a structural change cannot be
    /// dirty-repaired and is discarded instead.
    structure_epoch: u64,
    /// Final-layer embedding width.
    dim: usize,
    /// `num_clusters × dim`, row-major.
    centroids: Vec<f32>,
    /// Cluster per vertex id ([`TOMBSTONE`] = not indexed).
    assign: Vec<u32>,
    /// Member vertex ids per cluster, ascending.
    postings: Vec<Vec<u32>>,
    /// Per-cluster upper bound on the (computed) L2 distance from the
    /// centroid to any member, folded through [`fold_radius`]. Monotone
    /// under repair (a member moving in can only raise it, a member leaving
    /// never lowers it), recomputed exactly on build and split. Both read
    /// modes use it as a maximum-inner-product bound, `dot(x, q) ≤
    /// dot(c, q) + radius · ‖q‖` for every member `x` of `c`. A loose
    /// (stale) radius costs probe order and pruning, never bound validity;
    /// that validity is what lets an exact read skip a cluster.
    radii: Vec<f32>,
    /// The `dim × num_clusters` transpose of `centroids`, the layout both
    /// cluster scans use: assignment runs `row_sq_dist_into` over it (one
    /// row's distance to every centroid, 8 clusters per SIMD lane group),
    /// and the per-query centroid scan runs `row_matmul_into` over it.
    /// Derived state: refreshed the moment the centroid table changes
    /// (build, split, merge), so no assignment ever reads a stale table,
    /// and deliberately excluded from [`TopKIndex::contents_eq`].
    centroids_t: Matrix,
    /// `‖c‖` per centroid, in `f64` — the exact bound's slack scales with
    /// it. Derived state, refreshed with `centroids_t`.
    centroid_norms: Vec<f64>,
    /// Indexed (non-tombstoned) rows.
    active: usize,
    /// Whether this index describes exactly the snapshot table published at
    /// the same epoch, so an exact read may prune on it. Cleared by
    /// [`IndexMaintainer::publish_unpaired`].
    paired: bool,
}

/// The `dim × clusters` transpose of the row-major centroid table — the
/// layout [`nearest_centroid`] feeds to `row_sq_dist_into` and
/// [`TopKIndex::candidates`] feeds to `row_matmul_into`, both with a
/// sequential inner loop over clusters.
fn transpose_centroids(centroids: &[f32], dim: usize) -> Matrix {
    if dim == 0 {
        return Matrix::zeros(0, 0);
    }
    let clusters = centroids.len() / dim;
    let mut out = Matrix::zeros(dim, clusters);
    let data = out.as_mut_slice();
    for c in 0..clusters {
        for (d, &x) in centroids[c * dim..(c + 1) * dim].iter().enumerate() {
            data[d * clusters + c] = x;
        }
    }
    out
}

/// `‖c‖` per centroid of the row-major table, accumulated in `f64`.
fn centroid_norms(centroids: &[f32], dim: usize) -> Vec<f64> {
    centroids
        .chunks_exact(dim.max(1))
        .map(|c| {
            c.iter()
                .map(|&x| f64::from(x) * f64::from(x))
                .sum::<f64>()
                .sqrt()
        })
        .collect()
}

/// Folds one member's squared centroid distance into its cluster's radius.
/// A non-finite distance — a NaN or infinite row, or an overflowing sum —
/// makes the radius `+∞`: `f32::max` would drop a NaN and leave a bound
/// the member's score can exceed.
fn fold_radius(radius: &mut f32, squared_dist: f32) {
    let dist = squared_dist.sqrt();
    *radius = if dist.is_finite() {
        radius.max(dist)
    } else {
        f32::INFINITY
    };
}

/// The nearest centroid to `row` by squared L2 distance, and that distance
/// (so maintenance paths fold it into the cluster's radius bound without a
/// second pass). This is *the* assignment function — build, Lloyd
/// refinement, repair and merge call it, and a split's one-new-centroid
/// comparison reproduces it — which is what makes incremental repair equal
/// a from-scratch rebuild under the same centroids.
///
/// `row_sq_dist_into` scores every centroid of the transposed table
/// `centroids_t` into the caller's `dists` scratch (resized to the cluster
/// count, so steady-state calls do not allocate); each distance is the
/// scalar chain `Σ (c − x)²` over ascending dims on every SIMD tier. A
/// scalar argmin follows: a distance wins only when strictly below the best
/// so far, starting from `+∞`, so ties go to the lower cluster index and a
/// NaN never wins (a row with no finite distance lands in cluster 0 at
/// `+∞`).
fn nearest_centroid(centroids_t: &Matrix, row: &[f32], dists: &mut Vec<f32>) -> (u32, f32) {
    dists.resize(centroids_t.cols(), 0.0);
    if row_sq_dist_into(row, centroids_t, dists).is_err() {
        // A row of another width than the centroids has no distance to
        // them: like a row with no finite one, it lands in cluster 0 at
        // `+∞`, which makes that cluster's radius (and so every bound on
        // it) `+∞` too, so exact reads still scan it.
        return (0, f32::INFINITY);
    }
    let mut best = 0u32;
    let mut best_dist = f32::INFINITY;
    for (c, &dist) in dists.iter().enumerate() {
        if dist < best_dist {
            best_dist = dist;
            best = c as u32;
        }
    }
    (best, best_dist)
}

fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

impl TopKIndex {
    /// Builds the bootstrap index: deterministic seeded k-means over the
    /// final-layer rows of `store` (restricted to `owned` vertices when
    /// given), then one assignment pass.
    fn build(store: &EmbeddingStore, owned: Option<&[bool]>, params: &IndexParams) -> TopKIndex {
        let table = store.embeddings(store.num_layers());
        let dim = table.cols();
        let n = table.rows();
        let is_owned = |v: usize| owned.is_none_or(|o| o.get(v).copied().unwrap_or(false));
        let mut members: Vec<u32> = (0..n as u32).filter(|&v| is_owned(v as usize)).collect();
        let k = params.effective_clusters(members.len());

        // Seed centroids from k distinct member rows (partial Fisher–Yates
        // over the member list, deterministic per seed).
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let mut centroids = Vec::with_capacity(k * dim);
        if members.is_empty() {
            centroids.resize(k * dim, 0.0);
        } else {
            for i in 0..k {
                let j = rng.gen_range(i..members.len());
                members.swap(i, j);
                centroids.extend_from_slice(table.row(members[i] as usize));
            }
            members.sort_unstable();
        }

        // Lloyd refinement; an emptied cluster keeps its previous centroid.
        let mut sums = vec![0.0f32; k * dim];
        let mut counts = vec![0u32; k];
        let mut dists = Vec::with_capacity(k);
        for _ in 0..params.kmeans_iters {
            let centroids_t = transpose_centroids(&centroids, dim);
            sums.iter_mut().for_each(|s| *s = 0.0);
            counts.iter_mut().for_each(|c| *c = 0);
            for &v in &members {
                let row = table.row(v as usize);
                let c = nearest_centroid(&centroids_t, row, &mut dists).0 as usize;
                counts[c] += 1;
                vector::add_assign(&mut sums[c * dim..(c + 1) * dim], row);
            }
            for c in 0..k {
                if counts[c] > 0 {
                    vector::scaled_copy(
                        &mut centroids[c * dim..(c + 1) * dim],
                        &sums[c * dim..(c + 1) * dim],
                        1.0 / counts[c] as f32,
                    );
                }
            }
        }

        // Final assignment under the frozen centroids.
        let centroids_t = transpose_centroids(&centroids, dim);
        let norms = centroid_norms(&centroids, dim);
        let mut index = TopKIndex {
            epoch: 0,
            structure_epoch: 0,
            dim,
            centroids,
            assign: vec![TOMBSTONE; n],
            postings: vec![Vec::new(); k],
            radii: vec![0.0; k],
            centroids_t,
            centroid_norms: norms,
            active: 0,
            paired: true,
        };
        for &v in &members {
            let (c, dist) = nearest_centroid(&index.centroids_t, table.row(v as usize), &mut dists);
            index.assign[v as usize] = c;
            index.postings[c as usize].push(v);
            fold_radius(&mut index.radii[c as usize], dist);
            index.active += 1;
        }
        index
    }

    /// The epoch this index was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bumped on every split / merge / rebuild.
    pub fn structure_epoch(&self) -> u64 {
        self.structure_epoch
    }

    /// The indexed embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of coarse clusters.
    pub fn num_clusters(&self) -> usize {
        self.postings.len()
    }

    /// Number of indexed (non-tombstoned) rows.
    pub fn len(&self) -> usize {
        self.active
    }

    /// Whether no row is indexed.
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }

    /// The per-vertex cluster assignment (`u32::MAX` = not indexed).
    pub fn assignments(&self) -> &[u32] {
        &self.assign
    }

    /// The member vertex ids per cluster, ascending within each cluster.
    pub fn postings(&self) -> &[Vec<u32>] {
        &self.postings
    }

    /// The flat `num_clusters × dim` centroid table.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Per-cluster upper bounds on the centroid→member L2 distance (see the
    /// field doc: exact after build/split, monotone-loose under repair, `+∞`
    /// for a cluster holding a non-finite row).
    pub fn radii(&self) -> &[f32] {
        &self.radii
    }

    /// `dot(centroid, query)` for every cluster, in cluster order: the one
    /// centroid scan behind both read modes' bounds.
    fn centroid_scores(&self, query: &[f32]) -> Vec<f32> {
        if self.dim > 0 && query.len() == self.dim {
            // Hot path: one query × centroidsᵀ kernel scores every cluster
            // with a sequential inner loop over clusters — the accumulation
            // order per score is the same ascending-dimension sum as the
            // scalar dot below, so both paths score bit-identically. The
            // kernel refuses a transposed table out of step with the
            // centroid table; the scalar path then scores.
            let mut scores = vec![0.0f32; self.postings.len()];
            if row_matmul_into(query, &self.centroids_t, &mut scores).is_ok() {
                return scores;
            }
        }
        self.centroids
            .chunks_exact(self.dim.max(1))
            .map(|centroid| dot(centroid, query))
            .collect()
    }

    /// The member vertices of the `nprobe` clusters with the largest
    /// **maximum-inner-product bound** `dot(centroid, query) + radius·‖query‖`
    /// (ties towards the lower cluster index). The radius term is what keeps
    /// recall up for dot-product retrieval over L2 clusters: a high-dot
    /// member far from its (low-dot) centroid still surfaces, because its
    /// cluster's bound is inflated by exactly that distance.
    /// `nprobe ≥` [`TopKIndex::num_clusters`] returns every indexed vertex,
    /// which is what makes a full-probe read identical to the exact scan.
    pub fn candidates(&self, query: &[f32], nprobe: usize) -> Vec<u32> {
        if nprobe == 0 {
            return Vec::new();
        }
        let query_norm = dot(query, query).sqrt();
        let mut ranked: Vec<(f32, u32)> = self
            .centroid_scores(query)
            .iter()
            .enumerate()
            .map(|(c, &s)| (s + self.radii[c] * query_norm, c as u32))
            .collect();
        let cmp = |a: &(f32, u32), b: &(f32, u32)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
        // Partial selection: with thousands of clusters a full sort would
        // rival the candidate scoring itself. `cmp` is a total order (ids
        // are unique), so the selected prefix is exactly the sorted top
        // `nprobe`.
        if nprobe < ranked.len() {
            ranked.select_nth_unstable_by(nprobe - 1, cmp);
            ranked.truncate(nprobe);
        }
        ranked.sort_unstable_by(cmp);
        let total: usize = ranked
            .iter()
            .map(|&(_, c)| self.postings[c as usize].len())
            .sum();
        let mut out = Vec::with_capacity(total);
        for &(_, c) in &ranked {
            out.extend_from_slice(&self.postings[c as usize]);
        }
        out
    }

    /// Per-cluster upper bounds `(bound, cluster)` on the score an exact
    /// read computes for any member — the pruning bounds of
    /// [`ReadMode::Exact`](crate::ReadMode::Exact). The read pairs this
    /// index with the snapshot table of `epoch`, which has
    /// `rows` rows, of which the read covers `covered` (all of them, or a
    /// shard's owned rows).
    ///
    /// `None` when the index cannot vouch for that snapshot, and the read
    /// must scan every row instead: a different epoch, an unpaired
    /// publication, a different width, an index that does not hold exactly
    /// the covered rows, or any bound that is not finite (a `+∞` radius, or
    /// a score that could overflow `f32`).
    ///
    /// # Error analysis
    ///
    /// The bound must cover the *computed* score `ŝ_x` of every member `x`,
    /// not just the real `x·q`. With `d` the width, `u = 2⁻²⁴`,
    /// `γ = (d+2)u / (1 − (d+2)u)` and `η = 2⁻¹⁴⁹` (the subnormal step, the
    /// most an underflowing product can lose):
    ///
    /// * each `f32` dot product, in any summation order, is within
    ///   `γ·‖a‖‖b‖ + d·η` of the real one — so `ŝ_x ≤ x·q + γ‖x‖‖q‖ + dη`
    ///   and the centroid score `ŝ_c ≥ c·q − γ‖c‖‖q‖ − dη`;
    /// * the stored radius `r` is `≥` the computed distance of every member
    ///   (the pairing invariant), and a computed squared distance loses at
    ///   most a factor `1 − γ` plus `d·η` of underflow, so
    ///   `‖x − c‖ ≤ R := (r / (1 − u) + √(dη))·(1 + γ)`;
    /// * `x·q = c·q + (x − c)·q ≤ c·q + R‖q‖` and `‖x‖ ≤ ‖c‖ + R`.
    ///
    /// Together: `ŝ_x ≤ ŝ_c + R‖q‖ + γ(2‖c‖ + R)‖q‖ + 2dη`. The bound adds
    /// `2γ` instead of `γ`, which absorbs every rounding of its own `f64`
    /// arithmetic (each at most `2⁻⁵³` relative, `2²⁹` times below `u`).
    /// The analysis assumes no intermediate of `ŝ_x` overflows; every one
    /// is at most `(‖c‖ + R)‖q‖(1 + γ)`, so a cluster where that reaches
    /// `f32::MAX` has no bound and the read falls back.
    pub(crate) fn exact_bounds(
        &self,
        query: &[f32],
        epoch: u64,
        rows: usize,
        covered: usize,
    ) -> Option<Vec<(f64, u32)>> {
        let vouches = self.paired
            && self.epoch == epoch
            && self.dim > 0
            && self.dim == query.len()
            && self.assign.len() == rows
            && self.active == covered;
        if !vouches {
            return None;
        }
        const U: f64 = f32::EPSILON as f64 / 2.0;
        let eta = f64::from(f32::from_bits(1));
        let d = query.len() as f64;
        let gamma = (d + 2.0) * U / (1.0 - (d + 2.0) * U);
        let query_norm = query
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
            .sqrt();
        let underflow = (d * eta).sqrt();
        let mut bounds = Vec::with_capacity(self.postings.len());
        for (c, score) in self.centroid_scores(query).into_iter().enumerate() {
            let norm = self.centroid_norms[c];
            let reach = (f64::from(self.radii[c]) / (1.0 - U) + underflow) * (1.0 + gamma);
            let magnitude = (norm + reach) * query_norm * (1.0 + gamma);
            let bound = f64::from(score)
                + reach * query_norm
                + 2.0 * gamma * (2.0 * norm + reach) * query_norm
                + 2.0 * d * eta;
            // A NaN magnitude (a NaN centroid, or `∞ · 0`) makes the bound
            // NaN too, so the second test catches it.
            if magnitude >= f64::from(f32::MAX) || !bound.is_finite() {
                return None;
            }
            bounds.push((bound, c as u32));
        }
        Some(bounds)
    }

    /// A from-scratch reassignment of `store` under **this** index's
    /// centroids — the oracle the repair-determinism test compares against
    /// (incremental repair must land on exactly this state). The derived
    /// tables are re-derived from the centroids, not copied, so a stale
    /// transposed table in `self` cannot hide in the oracle.
    pub fn rebuilt_with_same_centroids(
        &self,
        store: &EmbeddingStore,
        owned: Option<&[bool]>,
    ) -> TopKIndex {
        let table = store.embeddings(store.num_layers());
        let n = table.rows();
        let is_owned = |v: usize| owned.is_none_or(|o| o.get(v).copied().unwrap_or(false));
        let mut out = TopKIndex {
            epoch: self.epoch,
            structure_epoch: self.structure_epoch,
            dim: self.dim,
            centroids: self.centroids.clone(),
            assign: vec![TOMBSTONE; n],
            postings: vec![Vec::new(); self.postings.len()],
            radii: vec![0.0; self.postings.len()],
            centroids_t: transpose_centroids(&self.centroids, self.dim),
            centroid_norms: centroid_norms(&self.centroids, self.dim),
            active: 0,
            paired: true,
        };
        let mut dists = Vec::with_capacity(out.postings.len());
        for v in 0..n {
            if !is_owned(v) {
                continue;
            }
            let (c, dist) = nearest_centroid(&out.centroids_t, table.row(v), &mut dists);
            out.assign[v] = c;
            out.postings[c as usize].push(v as u32);
            fold_radius(&mut out.radii[c as usize], dist);
            out.active += 1;
        }
        out
    }

    /// Structural equality ignoring the epoch stamps: same centroids,
    /// assignment and postings.
    pub fn contents_eq(&self, other: &TopKIndex) -> bool {
        self.dim == other.dim
            && self.centroids == other.centroids
            && self.assign == other.assign
            && self.postings == other.postings
    }

    /// Re-derives `centroids_t` and `centroid_norms` from the centroid
    /// table; called right after every structural change, before any
    /// assignment reads the transposed table.
    fn refresh_derived(&mut self) {
        self.centroids_t = transpose_centroids(&self.centroids, self.dim);
        self.centroid_norms = centroid_norms(&self.centroids, self.dim);
    }

    /// Reassigns one vertex; returns whether it moved. `None` as `row`
    /// tombstones the vertex. `dists` is [`nearest_centroid`]'s scratch.
    fn reassign(&mut self, v: usize, row: Option<&[f32]>, dists: &mut Vec<f32>) -> bool {
        if v >= self.assign.len() {
            self.assign.resize(v + 1, TOMBSTONE);
        }
        let old = self.assign[v];
        let (new, dist) = match row {
            Some(row) => nearest_centroid(&self.centroids_t, row, dists),
            None => (TOMBSTONE, 0.0),
        };
        if old == new {
            if new != TOMBSTONE {
                // Same cluster, possibly a moved row: keep the bound valid.
                fold_radius(&mut self.radii[new as usize], dist);
            }
            return false;
        }
        if old != TOMBSTONE {
            let posting = &mut self.postings[old as usize];
            if let Ok(i) = posting.binary_search(&(v as u32)) {
                posting.remove(i);
            }
            self.active -= 1;
        }
        if new != TOMBSTONE {
            let posting = &mut self.postings[new as usize];
            if let Err(i) = posting.binary_search(&(v as u32)) {
                posting.insert(i, v as u32);
            }
            fold_radius(&mut self.radii[new as usize], dist);
            self.active += 1;
        }
        self.assign[v] = new;
        true
    }
}

/// Shared state between the one [`IndexMaintainer`] and every
/// [`IndexReader`] — the index-side mirror of
/// [`crate::versioned::VersionedStore`].
#[derive(Debug)]
pub struct VersionedIndex {
    epoch: AtomicU64,
    /// The latest published index. As in the store, the mutex guards only
    /// an `Arc` clone / swap, so a poisoned lock is still read.
    current: Mutex<Arc<TopKIndex>>,
}

impl VersionedIndex {
    /// A new reader handle starting at the current epoch; session handles
    /// mint readers here so that holding one never pins an old index.
    pub(crate) fn reader(self: &Arc<Self>) -> IndexReader {
        IndexReader {
            shared: Arc::clone(self),
            cached: self.current(),
        }
    }

    /// The latest published index (a pointer clone under the mutex).
    fn current(&self) -> Arc<TopKIndex> {
        self.current
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A reader's cached handle onto the latest published index. Cheap to
/// clone; refreshes lazily on access with one atomic epoch load.
#[derive(Debug, Clone)]
pub struct IndexReader {
    shared: Arc<VersionedIndex>,
    cached: Arc<TopKIndex>,
}

impl IndexReader {
    /// The freshest published index (one atomic load in steady state;
    /// re-clones the `Arc` under the pointer-swap mutex only when a newer
    /// epoch exists).
    pub fn index(&mut self) -> &Arc<TopKIndex> {
        if self.shared.epoch.load(Ordering::Acquire) != self.cached.epoch {
            self.cached = self.shared.current();
        }
        &self.cached
    }

    /// The index this handle currently caches, without refreshing.
    pub fn cached(&self) -> &Arc<TopKIndex> {
        &self.cached
    }

    /// The shared state, from which [`VersionedIndex::reader`] mints handles.
    pub(crate) fn shared(&self) -> &Arc<VersionedIndex> {
        &self.shared
    }

    /// Refreshes and returns the current index epoch.
    pub fn epoch(&mut self) -> u64 {
        self.index().epoch
    }
}

/// The single writer side of the index: consumes per-flush dirty-row sets
/// and publishes repaired epochs, double-buffering exactly like the
/// [`crate::versioned::SnapshotPublisher`].
#[derive(Debug)]
pub struct IndexMaintainer {
    params: IndexParams,
    shared: Arc<VersionedIndex>,
    /// The index retired by the previous publication, reclaimed (and
    /// dirty-repaired) once readers have moved on.
    retired: Option<Arc<TopKIndex>>,
    /// The previous publication's dirty set (`None` when unknown): the
    /// retired buffer is two epochs stale, so repairing it needs the union
    /// of the last two dirty sets.
    prev_dirty: Option<Vec<VertexId>>,
    /// Ownership mask for sharded sessions (`None` = this index covers
    /// every store row).
    owned: Option<Vec<bool>>,
    /// Structure epoch of the *live* index; a retired buffer that disagrees
    /// predates a split/merge and cannot be repaired.
    structure_epoch: u64,
    stats: Arc<SharedIndexStats>,
    /// [`nearest_centroid`]'s distance scratch, one slot per cluster,
    /// reused by every repair and merge.
    dists: Vec<f32>,
}

impl IndexMaintainer {
    /// Builds the epoch-0 index over `store` (restricted to `owned` rows
    /// when given) and returns the maintainer plus a first reader handle.
    pub fn bootstrap(
        store: &EmbeddingStore,
        owned: Option<Vec<bool>>,
        params: IndexParams,
    ) -> (IndexMaintainer, IndexReader) {
        IndexMaintainer::bootstrap_at(store, owned, params, 0)
    }

    /// [`IndexMaintainer::bootstrap`] at an explicit epoch — the recovery
    /// continuation, mirroring
    /// [`VersionedStore::bootstrap_at`](crate::VersionedStore::bootstrap_at).
    /// A recovered session resumes its store at the checkpoint epoch; the
    /// index built from that store must carry the same number, or a pinned
    /// snapshot and a newer index could share an epoch over different
    /// states.
    pub fn bootstrap_at(
        store: &EmbeddingStore,
        owned: Option<Vec<bool>>,
        params: IndexParams,
        epoch: u64,
    ) -> (IndexMaintainer, IndexReader) {
        let stats = Arc::new(SharedIndexStats::default());
        let mut built = TopKIndex::build(store, owned.as_deref(), &params);
        built.epoch = epoch;
        SharedIndexStats::bump(&stats.builds, 1);
        let shared = Arc::new(VersionedIndex {
            epoch: AtomicU64::new(epoch),
            current: Mutex::new(Arc::new(built)),
        });
        let reader = shared.reader();
        let maintainer = IndexMaintainer {
            params,
            shared,
            retired: None,
            prev_dirty: None,
            owned,
            structure_epoch: 0,
            stats,
            dists: Vec::new(),
        };
        (maintainer, reader)
    }

    /// A new reader handle starting at the current epoch.
    pub fn reader(&self) -> IndexReader {
        self.shared.reader()
    }

    /// The shared counters (cloned into session handles at spawn).
    pub fn shared_stats(&self) -> Arc<SharedIndexStats> {
        Arc::clone(&self.stats)
    }

    /// A point-in-time copy of the maintenance counters.
    pub fn stats(&self) -> IndexStats {
        self.stats.snapshot()
    }

    /// The epoch of the most recent publication (0 before any).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    fn is_owned(&self, v: usize) -> bool {
        self.owned
            .as_ref()
            .is_none_or(|o| o.get(v).copied().unwrap_or(false))
    }

    /// Publishes the index state for `store` as the next epoch. `dirty`
    /// names the store rows changed since the previous publication (`None`
    /// = unknown, forcing a full reassignment sweep). Call **before** the
    /// store publication of the same flush so the published index is never
    /// older than the store readers pair it with.
    pub fn publish(&mut self, store: &EmbeddingStore, dirty: Option<&[VertexId]>) -> u64 {
        self.publish_epoch(store, dirty, true)
    }

    /// [`IndexMaintainer::publish`] for an epoch whose snapshot table will
    /// *not* equal `store`: a non-final window of an admission group, which
    /// repairs from the post-group store while its snapshot holds only the
    /// rows committed so far. A split or merge there would size radii from
    /// rows that snapshot does not hold yet, so exact reads never prune on
    /// an unpaired epoch; approximate reads use it as usual.
    pub fn publish_unpaired(&mut self, store: &EmbeddingStore, dirty: Option<&[VertexId]>) -> u64 {
        self.publish_epoch(store, dirty, false)
    }

    fn publish_epoch(
        &mut self,
        store: &EmbeddingStore,
        dirty: Option<&[VertexId]>,
        paired: bool,
    ) -> u64 {
        let epoch = self.shared.epoch.load(Ordering::Relaxed) + 1;
        let mut index = match self.retired.take().map(Arc::try_unwrap) {
            Some(Ok(reusable))
                if dirty.is_some()
                    && self.prev_dirty.is_some()
                    && reusable.structure_epoch == self.structure_epoch =>
            {
                // The reclaimed buffer missed the previous publication's
                // changes and this one's: repair the union of both dirty
                // sets. A structural change in the last two epochs (split /
                // merge) falls through to the clone path instead — the
                // buffer's cluster numbering no longer matches.
                SharedIndexStats::bump(&self.stats.buffer_reuses, 1);
                let mut index = reusable;
                let prev = self.prev_dirty.take().unwrap_or_default();
                self.repair(&mut index, store, prev.iter().copied());
                self.repair(&mut index, store, dirty.unwrap_or(&[]).iter().copied());
                self.prev_dirty = Some(prev); // restore the capacity buffer
                index
            }
            still_shared => {
                // Warm-up, a slow reader, an unknown dirty set or a recent
                // structural change: start from a clone of the live index.
                drop(still_shared);
                SharedIndexStats::bump(&self.stats.clone_fallbacks, 1);
                let mut index: TopKIndex = (**self
                    .shared
                    .current
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner))
                .clone();
                match dirty {
                    Some(d) => self.repair(&mut index, store, d.iter().copied()),
                    None => {
                        // No dirty set: sweep every row under the frozen
                        // centroids (still no k-means rebuild).
                        let n = store.num_vertices() as u32;
                        self.repair(&mut index, store, (0..n).map(VertexId));
                    }
                }
                index
            }
        };

        // Rows appended since the buffer's epoch may be missing from every
        // dirty set it saw; index them explicitly.
        if index.assign.len() < store.num_vertices() {
            let from = index.assign.len() as u32;
            let to = store.num_vertices() as u32;
            self.repair(&mut index, store, (from..to).map(VertexId));
        }
        SharedIndexStats::bump(&self.stats.repairs, 1);

        self.rebalance(&mut index, store);

        index.epoch = epoch;
        index.paired = paired;
        // Remember this publication's dirty set for the next reclaim.
        match (dirty, &mut self.prev_dirty) {
            (Some(d), Some(buf)) => {
                buf.clear();
                buf.extend_from_slice(d);
            }
            (Some(d), slot @ None) => *slot = Some(d.to_vec()),
            (None, slot) => *slot = None,
        }
        let next = Arc::new(index);
        let previous = {
            let mut current = self
                .shared
                .current
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *current, next)
        };
        self.shared.epoch.store(epoch, Ordering::Release);
        self.retired = Some(previous);
        epoch
    }

    /// Re-derives the assignment of every row in `rows` from the frozen
    /// centroids (the pure assignment function), tombstoning rows that left
    /// the store or this shard's ownership.
    fn repair(
        &mut self,
        index: &mut TopKIndex,
        store: &EmbeddingStore,
        rows: impl Iterator<Item = VertexId>,
    ) {
        let table = store.embeddings(store.num_layers());
        let mut repaired = 0u64;
        let mut moved = 0u64;
        for v in rows {
            let vi = v.index();
            let row = (vi < table.rows() && self.is_owned(vi)).then(|| table.row(vi));
            if index.reassign(vi, row, &mut self.dists) {
                moved += 1;
            }
            repaired += 1;
        }
        SharedIndexStats::bump(&self.stats.rows_repaired, repaired);
        SharedIndexStats::bump(&self.stats.rows_moved, moved);
    }

    /// Lazily splits one overfull cluster and/or merges one underfull
    /// cluster per publication, keeping the assignment invariant intact
    /// (every change re-runs the pure nearest-centroid rule).
    fn rebalance(&mut self, index: &mut TopKIndex, store: &EmbeddingStore) {
        if index.active == 0 {
            return;
        }
        let table = store.embeddings(store.num_layers());
        let mean = index.active as f64 / index.postings.len() as f64;

        // Split: the largest cluster, when it outgrew the threshold and a
        // distinct member row exists to seed the new centroid from.
        let split_at = (self.params.split_factor * mean).max(1.0);
        let largest = index
            .postings
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.len().cmp(&b.1.len()).then(b.0.cmp(&a.0)))
            .map(|(c, p)| (c, p.len()))
            .filter(|&(_, len)| (len as f64) > split_at && index.postings.len() < index.active);
        if let Some((c, _)) = largest {
            let centroid_start = c * index.dim;
            let centroid = index.centroids[centroid_start..centroid_start + index.dim].to_vec();
            // New centroid: the member farthest from its centroid (ties to
            // the lower vertex id) — deterministic, no rand needed.
            let (farthest, dist) = index.postings[c]
                .iter()
                .map(|&v| (v, squared_l2(table.row(v as usize), &centroid)))
                .fold(
                    (u32::MAX, -1.0f32),
                    |best, (v, d)| {
                        if d > best.1 {
                            (v, d)
                        } else {
                            best
                        }
                    },
                );
            if dist > 0.0 {
                index
                    .centroids
                    .extend_from_slice(table.row(farthest as usize));
                index.postings.push(Vec::new());
                let new = (index.postings.len() - 1) as u32;
                // One pass over every indexed row: the old assignment was
                // the argmin over the previous centroids, so comparing it
                // against the new centroid alone re-establishes the global
                // argmin (ties keep the lower, i.e. old, index). The same
                // pass sees every row's distance to its final centroid, so
                // the radius bounds come out exact for free.
                let mut moved = 0u64;
                let mut radii = vec![0.0f32; index.postings.len()];
                for v in 0..index.assign.len() {
                    let cur = index.assign[v];
                    if cur == TOMBSTONE {
                        continue;
                    }
                    let row = table.row(v);
                    let cur_start = cur as usize * index.dim;
                    let cur_dist =
                        squared_l2(row, &index.centroids[cur_start..cur_start + index.dim]);
                    let new_start = new as usize * index.dim;
                    let new_dist =
                        squared_l2(row, &index.centroids[new_start..new_start + index.dim]);
                    if new_dist < cur_dist {
                        index.assign[v] = new;
                        moved += 1;
                        fold_radius(&mut radii[new as usize], new_dist);
                    } else {
                        fold_radius(&mut radii[cur as usize], cur_dist);
                    }
                }
                index.radii = radii;
                // Rebuild the postings in one ascending pass.
                index.postings.iter_mut().for_each(Vec::clear);
                for (v, &c) in index.assign.iter().enumerate() {
                    if c != TOMBSTONE {
                        index.postings[c as usize].push(v as u32);
                    }
                }
                index.refresh_derived();
                index.structure_epoch += 1;
                self.structure_epoch = index.structure_epoch;
                SharedIndexStats::bump(&self.stats.splits, 1);
                SharedIndexStats::bump(&self.stats.rows_moved, moved);
            }
        }

        // Merge: the smallest cluster, when it fell under the threshold
        // (empty clusters always qualify). Removal shifts higher cluster
        // indices down by one, preserving their relative order — so every
        // surviving tie still breaks the same way.
        if index.postings.len() > 1 {
            let mean = index.active as f64 / index.postings.len() as f64;
            let merge_below = mean / self.params.split_factor;
            let smallest = index
                .postings
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.len().cmp(&b.1.len()).then(a.0.cmp(&b.0)))
                .map(|(c, p)| (c, p.len()))
                .filter(|&(_, len)| (len as f64) < merge_below);
            if let Some((c, _)) = smallest {
                let members = index.postings.remove(c);
                index.centroids.drain(c * index.dim..(c + 1) * index.dim);
                index.refresh_derived();
                index.radii.remove(c);
                for a in index.assign.iter_mut() {
                    if *a != TOMBSTONE && *a > c as u32 {
                        *a -= 1;
                    }
                }
                for &v in &members {
                    let (c, dist) = nearest_centroid(
                        &index.centroids_t,
                        table.row(v as usize),
                        &mut self.dists,
                    );
                    index.assign[v as usize] = c;
                    let posting = &mut index.postings[c as usize];
                    if let Err(i) = posting.binary_search(&v) {
                        posting.insert(i, v);
                    }
                    fold_radius(&mut index.radii[c as usize], dist);
                }
                index.structure_epoch += 1;
                self.structure_epoch = index.structure_epoch;
                SharedIndexStats::bump(&self.stats.merges, 1);
                SharedIndexStats::bump(&self.stats.rows_moved, members.len() as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_gnn::{Aggregator, GnnModel, LayerKind};

    /// A 2-layer model whose final layer is 2 wide; `n` vertices at
    /// deterministic positions on a grid-ish layout.
    fn store(n: usize, f: impl Fn(usize) -> [f32; 2]) -> EmbeddingStore {
        let model = GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[3, 4, 2], 0).unwrap();
        let mut s = EmbeddingStore::zeroed(&model, n);
        for v in 0..n {
            s.set_embedding(2, VertexId(v as u32), &f(v)).unwrap();
        }
        s
    }

    fn params(clusters: usize) -> IndexParams {
        IndexParams {
            clusters,
            ..IndexParams::default()
        }
    }

    /// Every owned row sits in exactly one posting, and its assignment is
    /// the nearest centroid.
    fn assert_invariant(index: &TopKIndex, store: &EmbeddingStore, owned: Option<&[bool]>) {
        let table = store.embeddings(store.num_layers());
        let mut seen = 0usize;
        for (c, posting) in index.postings().iter().enumerate() {
            let mut prev = None;
            for &v in posting {
                assert_eq!(index.assignments()[v as usize], c as u32);
                assert!(prev.is_none_or(|p| p < v), "postings must be ascending");
                prev = Some(v);
                seen += 1;
            }
        }
        assert_eq!(seen, index.len());
        // Derived from the centroid table itself, not the index's copy.
        let centroids_t = transpose_centroids(index.centroids(), index.dim());
        let mut dists = Vec::new();
        for v in 0..table.rows() {
            let is_owned = owned.is_none_or(|o| o[v]);
            let a = index.assignments()[v];
            if !is_owned {
                assert_eq!(a, u32::MAX, "non-owned rows must be tombstoned");
                continue;
            }
            let expect = nearest_centroid(&centroids_t, table.row(v), &mut dists).0;
            assert_eq!(a, expect, "vertex {v} not assigned to its nearest centroid");
        }
    }

    #[test]
    fn build_assigns_every_row_to_its_nearest_centroid() {
        let s = store(40, |v| [(v % 8) as f32, (v / 8) as f32]);
        let (maintainer, reader) = IndexMaintainer::bootstrap(&s, None, params(5));
        let index = reader.cached();
        assert_eq!(index.num_clusters(), 5);
        assert_eq!(index.len(), 40);
        assert_invariant(index, &s, None);
        assert_eq!(maintainer.stats().builds, 1);
    }

    #[test]
    fn full_probe_returns_every_indexed_vertex() {
        let s = store(25, |v| [v as f32, (v * v % 7) as f32]);
        let (_m, reader) = IndexMaintainer::bootstrap(&s, None, params(4));
        let mut all = reader.cached().candidates(&[1.0, 0.5], usize::MAX);
        all.sort_unstable();
        assert_eq!(all, (0..25u32).collect::<Vec<_>>());
        // A reduced probe returns a subset.
        let some = reader.cached().candidates(&[1.0, 0.5], 1);
        assert!(!some.is_empty() && some.len() < 25);
    }

    #[test]
    fn ownership_mask_restricts_the_index_to_owned_rows() {
        let s = store(20, |v| [v as f32, 0.0]);
        let owned: Vec<bool> = (0..20).map(|v| v % 2 == 0).collect();
        let (_m, reader) = IndexMaintainer::bootstrap(&s, Some(owned.clone()), params(3));
        let index = reader.cached();
        assert_eq!(index.len(), 10);
        assert_invariant(index, &s, Some(&owned));
    }

    #[test]
    fn dirty_repair_moves_rows_and_matches_a_fresh_reassignment() {
        let mut s = store(30, |v| [(v % 6) as f32, (v / 6) as f32]);
        let (mut maintainer, mut reader) = IndexMaintainer::bootstrap(&s, None, params(4));
        for step in 1..=6u32 {
            // Move a couple of rows far away each epoch.
            let a = VertexId(step % 30);
            let b = VertexId((step * 7) % 30);
            s.set_embedding(2, a, &[step as f32 * 3.0, 0.0]).unwrap();
            s.set_embedding(2, b, &[0.0, step as f32 * 3.0]).unwrap();
            let epoch = maintainer.publish(&s, Some(&[a, b]));
            assert_eq!(epoch as u32, step);
            let index = reader.index();
            assert_eq!(index.epoch() as u32, step);
            assert_invariant(index, &s, None);
            assert!(index.contents_eq(&index.rebuilt_with_same_centroids(&s, None)));
        }
        let stats = maintainer.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.rebuilds, 0);
        assert_eq!(stats.repairs, 6);
        assert!(
            stats.buffer_reuses >= 3,
            "steady-state publications should reclaim the double buffer: {stats:?}"
        );
        assert!(stats.rows_moved >= 1);
    }

    #[test]
    fn unknown_dirty_set_forces_a_sweep_not_a_rebuild() {
        let mut s = store(20, |v| [v as f32, 1.0]);
        let (mut maintainer, mut reader) = IndexMaintainer::bootstrap(&s, None, params(3));
        s.set_embedding(2, VertexId(4), &[99.0, 0.0]).unwrap();
        maintainer.publish(&s, None);
        let index = reader.index();
        assert_invariant(index, &s, None);
        let stats = maintainer.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.rebuilds, 0, "a sweep keeps the seeded centroids");
        assert_eq!(stats.rows_repaired, 20);
    }

    #[test]
    fn overfull_cluster_splits_and_keeps_the_invariant() {
        // One tight blob plus a far outlier: k-means with k=2 separates
        // them, then the blob is inflated far past the imbalance threshold.
        let mut s = store(40, |v| if v == 0 { [100.0, 100.0] } else { [0.0, 0.0] });
        let p = IndexParams {
            clusters: 2,
            split_factor: 1.5,
            ..IndexParams::default()
        };
        let (mut maintainer, mut reader) = IndexMaintainer::bootstrap(&s, None, p);
        // Spread the blob out so a farthest member exists to seed the split.
        let dirty: Vec<VertexId> = (1..40).map(VertexId).collect();
        for (i, &v) in dirty.iter().enumerate() {
            s.set_embedding(2, v, &[i as f32, -(i as f32)]).unwrap();
        }
        maintainer.publish(&s, Some(&dirty));
        let index = reader.index();
        let stats = maintainer.stats();
        assert!(stats.splits >= 1, "expected a lazy split: {stats:?}");
        // The split may leave the old outlier cluster a starving singleton
        // that merges away in the same rebalance; either way the structure
        // changed and the assignment invariant must survive it.
        assert!(index.num_clusters() >= 2);
        assert!(index.structure_epoch() >= 1);
        assert_invariant(index, &s, None);
        assert!(index.contents_eq(&index.rebuilt_with_same_centroids(&s, None)));
    }

    #[test]
    fn underfull_cluster_merges_away_and_keeps_the_invariant() {
        // Three clusters; then collapse every row onto one point so two
        // clusters starve and merge away over the next publications.
        let mut s = store(30, |v| [(v % 3) as f32 * 50.0, 0.0]);
        let p = IndexParams {
            clusters: 3,
            split_factor: 2.0,
            ..IndexParams::default()
        };
        let (mut maintainer, mut reader) = IndexMaintainer::bootstrap(&s, None, p);
        let dirty: Vec<VertexId> = (0..30).map(VertexId).collect();
        for &v in &dirty {
            s.set_embedding(2, v, &[0.0, 0.0]).unwrap();
        }
        for _ in 0..4 {
            maintainer.publish(&s, Some(&dirty));
        }
        let index = reader.index();
        let stats = maintainer.stats();
        assert!(stats.merges >= 1, "starved clusters must merge: {stats:?}");
        assert!(index.num_clusters() < 3);
        assert_invariant(index, &s, None);
        assert!(index.contents_eq(&index.rebuilt_with_same_centroids(&s, None)));
    }

    /// A merge reassigns its orphans against the centroid table *after* the
    /// drain. Against a stale transposed table an orphan would win its
    /// removed cluster's old slot, which now names the next cluster up.
    #[test]
    fn merge_orphans_reassign_against_the_drained_table() {
        // Three blobs of ten rows, 50 apart.
        let mut s = store(30, |v| [(v % 3) as f32 * 50.0 + (v / 3) as f32 * 0.1, 0.0]);
        let p = IndexParams {
            clusters: 3,
            split_factor: 2.0,
            ..IndexParams::default()
        };
        let (mut maintainer, mut reader) = IndexMaintainer::bootstrap(&s, None, p);
        let before = Arc::clone(reader.cached());
        let sizes: Vec<usize> = before.postings().iter().map(Vec::len).collect();
        assert_eq!(sizes, [10, 10, 10]);
        // Starve cluster 0 to one member by moving the rest onto a member
        // of cluster 2: sizes 1 / 10 / 19, under the split threshold (20)
        // and with cluster 0 under the merge threshold (5).
        let orphan = before.postings()[0][0];
        let host = before.postings()[2][0];
        let host_row = s.embeddings(2).row(host as usize).to_vec();
        let dirty: Vec<VertexId> = before.postings()[0][1..]
            .iter()
            .map(|&v| VertexId(v))
            .collect();
        for &v in &dirty {
            s.set_embedding(2, v, &host_row).unwrap();
        }
        maintainer.publish(&s, Some(&dirty));
        let stats = maintainer.stats();
        assert_eq!((stats.splits, stats.merges), (0, 1), "{stats:?}");
        let index = reader.index();
        assert_eq!(index.num_clusters(), 2);
        // The orphan landed in a cluster whose index was above the removed
        // one (every survivor's was), now shifted down by one.
        let landed = index.assignments()[orphan as usize] as usize;
        assert!(index.postings()[landed].contains(&orphan));
        assert_invariant(index, &s, None);
        let rebuilt = index.rebuilt_with_same_centroids(&s, None);
        assert!(index.contents_eq(&rebuilt));
        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(index.radii()), bits(rebuilt.radii()));
        assert_eq!(
            index.centroids_t.as_slice(),
            transpose_centroids(index.centroids(), index.dim()).as_slice()
        );
    }

    #[test]
    fn readers_swap_lazily_and_slow_readers_force_clone_fallbacks() {
        let mut s = store(16, |v| [v as f32, 0.0]);
        let (mut maintainer, mut reader) = IndexMaintainer::bootstrap(&s, None, params(2));
        let stale = reader.clone(); // pins epoch 0
        for step in 1..=5u32 {
            s.set_embedding(2, VertexId(0), &[step as f32, 5.0])
                .unwrap();
            maintainer.publish(&s, Some(&[VertexId(0)]));
        }
        assert_eq!(stale.cached().epoch(), 0);
        assert_eq!(reader.index().epoch(), 5);
        assert!(maintainer.stats().clone_fallbacks >= 1);
        // A fresh reader starts at the current epoch.
        assert_eq!(maintainer.reader().cached().epoch(), 5);
    }

    #[test]
    fn non_finite_distances_fold_into_an_infinite_radius() {
        let mut r = 2.0f32;
        fold_radius(&mut r, 9.0);
        assert_eq!(r, 3.0);
        fold_radius(&mut r, 1.0);
        assert_eq!(r, 3.0, "a closer member never lowers the radius");
        for bad in [f32::NAN, f32::INFINITY] {
            let mut r = 2.0f32;
            fold_radius(&mut r, bad);
            assert_eq!(r, f32::INFINITY, "distance {bad}");
            fold_radius(&mut r, 1.0);
            assert_eq!(r, f32::INFINITY, "an infinite radius stays infinite");
        }
    }

    #[test]
    fn bootstrap_at_resumes_the_epoch_and_unpaired_publications_refuse_exact_bounds() {
        let s = store(30, |v| [(v % 6) as f32, (v / 6) as f32]);
        let query = [1.0, -0.5];
        let (mut maintainer, mut reader) = IndexMaintainer::bootstrap_at(&s, None, params(3), 7);
        assert_eq!(maintainer.epoch(), 7);
        let index = reader.index();
        assert_eq!(index.epoch(), 7);
        assert!(index.paired);
        let bounds = index
            .exact_bounds(&query, 7, 30, 30)
            .expect("paired, same epoch");
        assert_eq!(bounds.len(), index.num_clusters());
        // Every member's computed score sits under its cluster's bound.
        let table = s.embeddings(s.num_layers());
        for (v, &c) in index.assignments().iter().enumerate() {
            let score = ripple_tensor::vector::dot(table.row(v), &query);
            assert!(f64::from(score) <= bounds[c as usize].0);
        }
        // A different epoch, width or coverage: no vouching.
        assert!(index.exact_bounds(&query, 6, 30, 30).is_none());
        assert!(index.exact_bounds(&[1.0, 0.0, 0.0], 7, 30, 30).is_none());
        assert!(index.exact_bounds(&query, 7, 31, 30).is_none());
        assert!(index.exact_bounds(&query, 7, 30, 29).is_none());
        // Scores that could overflow f32 have no bound.
        assert!(index.exact_bounds(&[1e38, 1e38], 7, 30, 30).is_none());

        assert_eq!(maintainer.publish_unpaired(&s, Some(&[])), 8);
        let index = reader.index();
        assert!(!index.paired);
        assert!(index.exact_bounds(&query, 8, 30, 30).is_none());
        assert_eq!(maintainer.publish(&s, Some(&[])), 9);
        assert!(reader.index().exact_bounds(&query, 9, 30, 30).is_some());
    }

    /// Stores where the slack terms of [`TopKIndex::exact_bounds`] matter:
    /// near-duplicate rows whose products cancel (rounding dominates the
    /// radius term), and clusters spread so finely that squared distances
    /// underflow to a zero radius. Every row's *computed* score must sit
    /// under its cluster's bound, for every query that gets bounds at all.
    #[test]
    fn exact_bounds_cover_every_computed_member_score() {
        let cases: [(usize, f32, f32, f32); 4] = [
            // (width, centre scale, spread, query scale)
            (3, 1e4, 1e-3, 1.0),
            (8, 1e4, 1e-3, 1.0),
            (4, 1e-20, 1e-23, 1e25),
            (8, 1.0, 1e-7, 1.0),
        ];
        for (case, &(dim, centre, spread, query_scale)) in cases.iter().enumerate() {
            let n = 96;
            let model =
                GnnModel::new(LayerKind::GraphConv, Aggregator::Sum, &[3, 4, dim], 0).unwrap();
            let mut s = EmbeddingStore::zeroed(&model, n);
            let centres = ripple_tensor::init::uniform(4, dim, -centre, centre, case as u64);
            let jitter = ripple_tensor::init::uniform(n, dim, -spread, spread, 9 + case as u64);
            for v in 0..n {
                let row: Vec<f32> = centres
                    .row(v % 4)
                    .iter()
                    .zip(jitter.row(v))
                    .map(|(c, j)| c + j)
                    .collect();
                s.set_embedding(2, VertexId(v as u32), &row).unwrap();
            }
            let (_m, reader) = IndexMaintainer::bootstrap(&s, None, params(4));
            let index = reader.cached();
            let table = s.embeddings(2);
            let ids: Vec<u32> = (0..n as u32).collect();
            let mut scores = vec![0.0f32; n];
            for trial in 0..64u64 {
                let mut query = ripple_tensor::init::uniform(1, dim, -1.0, 1.0, 100 + trial)
                    .row(0)
                    .to_vec();
                // Every other query is orthogonal to one centre, so its
                // members' scores are all cancellation.
                if trial % 2 == 1 {
                    let c = centres.row(trial as usize % 4);
                    let wide = |a: &[f32], b: &[f32]| -> f64 {
                        a.iter()
                            .zip(b)
                            .map(|(x, y)| f64::from(*x) * f64::from(*y))
                            .sum()
                    };
                    let along = wide(&query, c) / wide(c, c);
                    for (q, x) in query.iter_mut().zip(c) {
                        *q = (f64::from(*q) - along * f64::from(*x)) as f32;
                    }
                }
                query.iter_mut().for_each(|q| *q *= query_scale);
                let bounds = index
                    .exact_bounds(&query, 0, n, n)
                    .unwrap_or_else(|| panic!("case {case}: finite inputs have bounds"));
                ripple_tensor::ops::score_rows_into(
                    table.as_slice(),
                    dim,
                    &ids,
                    &query,
                    &mut scores,
                )
                .unwrap();
                for (v, &score) in scores.iter().enumerate() {
                    let (bound, c) = bounds[index.assignments()[v] as usize];
                    assert_eq!(c, index.assignments()[v]);
                    assert!(
                        f64::from(score) <= bound,
                        "case {case}, trial {trial}: row {v} scores {score} over its bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_split_over_a_nan_row_leaves_its_cluster_without_a_finite_bound() {
        // 35 rows left of the origin, 5 right of it: the first publication
        // splits the left blob, recomputing every radius from scratch.
        let mut s = store(40, |v| {
            let (x, y) = ((v % 5) as f32 * 0.1, (v / 5) as f32 * 0.1);
            if v < 35 {
                [-10.0 - x, y]
            } else {
                [10.0 + x, y]
            }
        });
        let p = IndexParams {
            clusters: 2,
            split_factor: 1.5,
            ..IndexParams::default()
        };
        let (mut maintainer, mut reader) = IndexMaintainer::bootstrap(&s, None, p);
        s.set_embedding(2, VertexId(3), &[f32::NAN, f32::NAN])
            .unwrap();
        maintainer.publish(&s, Some(&[VertexId(3)]));
        assert!(maintainer.stats().splits >= 1);
        let index = reader.index();
        let c = index.assignments()[3] as usize;
        assert_eq!(index.radii()[c], f32::INFINITY);
        assert!(index.exact_bounds(&[1.0, 0.0], 1, 40, 40).is_none());
    }

    #[test]
    fn grown_stores_index_the_appended_rows() {
        let s = store(10, |v| [v as f32, 0.0]);
        let (mut maintainer, mut reader) = IndexMaintainer::bootstrap(&s, None, params(2));
        let grown = store(14, |v| [v as f32, 0.0]);
        maintainer.publish(&grown, Some(&[]));
        let index = reader.index();
        assert_eq!(index.len(), 14);
        assert_invariant(index, &grown, None);
    }
}
