//! Seed-driven input generator: graph, update stream and read probes.
//!
//! Everything the benchmark feeds the program is made here from `--seed`
//! with the benchmark's own RNG and its own power-law generator, so a later
//! change to `ripple_graph::synth` or the `rand` shim cannot move the
//! inputs. The program only ever receives the generated values.
//!
//! The stream generator tracks the live edge set, so every update is valid
//! against the topology at the moment it is applied (adds of absent edges,
//! deletes of present ones, feature rewrites of existing vertices), for as
//! many updates as a run needs, in the paper's equal thirds (§7.1.2): each
//! consecutive triple of updates holds one of each kind in a random order.

use ripple_graph::{DynamicGraph, GraphUpdate, VertexId};
use ripple_tensor::Matrix;
use std::collections::{HashMap, HashSet, VecDeque};

/// SplitMix64: tiny, seedable, and owned by the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole sequence is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Approximately standard normal: four 16-bit uniforms, centred and
    /// scaled to unit variance (Irwin–Hall).
    pub fn normal(&mut self) -> f32 {
        let bits = self.next_u64();
        let sum: u64 = (0..4).map(|i| (bits >> (16 * i)) & 0xffff).sum();
        ((sum as f64 / 65536.0 - 2.0) * 3f64.sqrt()) as f32
    }

    fn feature(&mut self, width: usize) -> Vec<f32> {
        (0..width).map(|_| self.normal()).collect()
    }
}

/// Shape of a generated graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphSpec {
    /// Number of vertices.
    pub vertices: usize,
    /// Target mean in-degree.
    pub avg_in_degree: f64,
    /// Vertex feature width.
    pub feature_dim: usize,
    /// Power-law exponent of the in-degree weights (`w_i ∝ rank^-skew`).
    pub skew: f64,
}

/// Cumulative table of `rank^-exponent` weights over `n` ranks.
fn power_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|r| {
            acc += ((r + 1) as f64).powf(-exponent);
            acc
        })
        .collect()
}

fn sample_cdf(cdf: &[f64], rng: &mut Rng) -> usize {
    let x = rng.unit() * cdf[cdf.len() - 1];
    cdf.partition_point(|&c| c <= x).min(cdf.len() - 1)
}

/// Chung-Lu style directed graph: uniform sources, power-law destinations
/// over a shuffled rank order, no self-loops or duplicates; standard-normal
/// features; unit edge weights.
pub fn generate_graph(spec: &GraphSpec, seed: u64) -> DynamicGraph {
    let n = spec.vertices;
    assert!(n > 1, "a generated graph needs at least two vertices");
    let mut rng = Rng::new(seed ^ 0x0067_7261_7068);
    let mut by_rank: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        by_rank.swap(i, rng.below(i + 1));
    }
    let cdf = power_cdf(n, spec.skew);
    let target = ((n as f64 * spec.avg_in_degree).round() as usize).min(n * (n - 1));
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(target * 2);
    let mut edges = Vec::with_capacity(target);
    let mut attempts = 0usize;
    while edges.len() < target && attempts < target * 50 + 1000 {
        attempts += 1;
        let src = rng.below(n) as u32;
        let dst = by_rank[sample_cdf(&cdf, &mut rng)];
        if src != dst && seen.insert((src, dst)) {
            edges.push((VertexId(src), VertexId(dst)));
        }
    }
    let mut graph = DynamicGraph::from_edges(n, spec.feature_dim, &edges)
        .expect("generated edges are in range, distinct and loop-free");
    let mut features = Matrix::zeros(n, spec.feature_dim);
    for x in features.as_mut_slice() {
        *x = rng.normal();
    }
    graph
        .set_features(features)
        .expect("feature table matches the graph shape");
    graph
}

/// How the stream picks its endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamKind {
    /// Every endpoint, deleted edge and rewritten vertex is uniform.
    Uniform,
    /// Endpoints are Zipf-distributed over the bootstrap graph's in-degree
    /// rank (hubs first), and a share of the updates re-touches one of the
    /// most recent keys: a feature rewrite of a just-rewritten vertex, the
    /// delete of a just-added edge, the re-add of a just-deleted one.
    HubChurn {
        /// Zipf exponent over the degree rank.
        zipf: f64,
        /// Share of updates that re-touch a recent key.
        retouch: f64,
        /// How many recent keys of each kind are remembered.
        recent: usize,
    },
}

/// The live edge set: uniform pick over all edges, per-destination pick for
/// hub-skewed deletes, O(1) membership.
#[derive(Debug)]
struct LiveEdges {
    edges: Vec<(u32, u32)>,
    slot: HashMap<(u32, u32), usize>,
    in_adj: Vec<Vec<u32>>,
}

impl LiveEdges {
    fn from_graph(graph: &DynamicGraph) -> Self {
        let mut live = LiveEdges {
            edges: Vec::with_capacity(graph.num_edges()),
            slot: HashMap::with_capacity(graph.num_edges() * 2),
            in_adj: vec![Vec::new(); graph.num_vertices()],
        };
        for (u, v, _) in graph.iter_edges() {
            live.insert(u.0, v.0);
        }
        live
    }

    fn contains(&self, u: u32, v: u32) -> bool {
        self.slot.contains_key(&(u, v))
    }

    fn insert(&mut self, u: u32, v: u32) {
        self.slot.insert((u, v), self.edges.len());
        self.edges.push((u, v));
        self.in_adj[v as usize].push(u);
    }

    fn remove(&mut self, u: u32, v: u32) {
        let at = self.slot.remove(&(u, v)).expect("removing a live edge");
        self.edges.swap_remove(at);
        if let Some(&moved) = self.edges.get(at) {
            self.slot.insert(moved, at);
        }
        let sources = &mut self.in_adj[v as usize];
        let i = sources
            .iter()
            .position(|&s| s == u)
            .expect("in-adjacency tracks the edge list");
        sources.swap_remove(i);
    }
}

/// Endless generator of updates that are valid in order against the graph it
/// was created from.
#[derive(Debug)]
pub struct StreamGen {
    rng: Rng,
    vertices: usize,
    feature_dim: usize,
    live: LiveEdges,
    /// Vertices by descending bootstrap in-degree (ties to the lower id).
    by_degree: Vec<u32>,
    /// Zipf table over `by_degree`; empty for a uniform stream.
    zipf_cdf: Vec<f64>,
    /// Share of updates that re-touch a recent key (0 for a uniform stream).
    retouch: f64,
    /// Recent keys remembered per kind (0 for a uniform stream).
    recent_cap: usize,
    recent_features: VecDeque<u32>,
    recent_added: VecDeque<(u32, u32)>,
    recent_deleted: VecDeque<(u32, u32)>,
    /// Kinds of the current triple still to be emitted.
    triple: Vec<u8>,
}

const ADD: u8 = 0;
const DELETE: u8 = 1;
const FEATURE: u8 = 2;

impl StreamGen {
    /// A stream over `graph` (which is not modified; the generator keeps its
    /// own copy of the edge set).
    pub fn new(graph: &DynamicGraph, kind: StreamKind, seed: u64) -> Self {
        let n = graph.num_vertices();
        let mut by_degree: Vec<u32> = (0..n as u32).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.in_degree(VertexId(v))), v));
        let (zipf_cdf, retouch, recent_cap) = match kind {
            StreamKind::Uniform => (Vec::new(), 0.0, 0),
            StreamKind::HubChurn {
                zipf,
                retouch,
                recent,
            } => (power_cdf(n, zipf), retouch, recent),
        };
        StreamGen {
            rng: Rng::new(seed ^ 0x7374_7265_616d),
            vertices: n,
            feature_dim: graph.feature_dim(),
            live: LiveEdges::from_graph(graph),
            by_degree,
            zipf_cdf,
            retouch,
            recent_cap,
            recent_features: VecDeque::new(),
            recent_added: VecDeque::new(),
            recent_deleted: VecDeque::new(),
            triple: Vec::new(),
        }
    }

    fn vertex(&mut self) -> u32 {
        if self.zipf_cdf.is_empty() {
            self.rng.below(self.vertices) as u32
        } else {
            self.by_degree[sample_cdf(&self.zipf_cdf, &mut self.rng)]
        }
    }

    fn remember<T>(ring: &mut VecDeque<T>, cap: usize, key: T) {
        if cap > 0 {
            if ring.len() == cap {
                ring.pop_front();
            }
            ring.push_back(key);
        }
    }

    /// A recent key for which `usable` holds, removed from the ring.
    fn take_recent<T: Copy>(
        rng: &mut Rng,
        ring: &mut VecDeque<T>,
        usable: impl Fn(T) -> bool,
    ) -> Option<T> {
        if ring.is_empty() {
            return None;
        }
        let start = rng.below(ring.len());
        let at = (0..ring.len())
            .map(|i| (start + i) % ring.len())
            .find(|&i| usable(ring[i]))?;
        ring.remove(at)
    }

    fn absent_edge(&mut self) -> (u32, u32) {
        // Hub pairs saturate under Zipf endpoints; after a few tries fall
        // back to uniform endpoints, which always find an absent pair fast.
        for attempt in 0.. {
            let (u, v) = if attempt < 16 {
                (self.vertex(), self.vertex())
            } else {
                (
                    self.rng.below(self.vertices) as u32,
                    self.rng.below(self.vertices) as u32,
                )
            };
            if u != v && !self.live.contains(u, v) {
                return (u, v);
            }
        }
        unreachable!("the attempt loop only ends by returning")
    }

    fn present_edge(&mut self) -> (u32, u32) {
        if !self.zipf_cdf.is_empty() {
            for _ in 0..16 {
                let v = self.vertex();
                let sources = &self.live.in_adj[v as usize];
                if !sources.is_empty() {
                    return (sources[self.rng.below(sources.len())], v);
                }
            }
        }
        self.live.edges[self.rng.below(self.live.edges.len())]
    }

    /// The next update of the stream.
    pub fn next_update(&mut self) -> GraphUpdate {
        if self.triple.is_empty() {
            self.triple = vec![ADD, DELETE, FEATURE];
            for i in (1..3).rev() {
                self.triple.swap(i, self.rng.below(i + 1));
            }
        }
        let mut kind = self.triple.pop().expect("refilled above");
        if kind == DELETE && self.live.edges.is_empty() {
            kind = ADD;
        }
        let retouch = self.retouch > 0.0 && self.rng.unit() < self.retouch;
        match kind {
            ADD => {
                let live = &self.live;
                let recent = retouch
                    .then(|| {
                        Self::take_recent(&mut self.rng, &mut self.recent_deleted, |(u, v)| {
                            !live.contains(u, v)
                        })
                    })
                    .flatten();
                let (u, v) = recent.unwrap_or_else(|| self.absent_edge());
                self.live.insert(u, v);
                Self::remember(&mut self.recent_added, self.recent_cap, (u, v));
                GraphUpdate::add_edge(VertexId(u), VertexId(v))
            }
            DELETE => {
                let live = &self.live;
                let recent = retouch
                    .then(|| {
                        Self::take_recent(&mut self.rng, &mut self.recent_added, |(u, v)| {
                            live.contains(u, v)
                        })
                    })
                    .flatten();
                let (u, v) = recent.unwrap_or_else(|| self.present_edge());
                self.live.remove(u, v);
                Self::remember(&mut self.recent_deleted, self.recent_cap, (u, v));
                GraphUpdate::delete_edge(VertexId(u), VertexId(v))
            }
            _ => {
                let recent = retouch
                    .then(|| Self::take_recent(&mut self.rng, &mut self.recent_features, |_| true))
                    .flatten();
                let v = recent.unwrap_or_else(|| self.vertex());
                Self::remember(&mut self.recent_features, self.recent_cap, v);
                GraphUpdate::update_feature(VertexId(v), self.rng.feature(self.feature_dim))
            }
        }
    }

    /// The next `n` updates of the stream.
    pub fn take(&mut self, n: usize) -> Vec<GraphUpdate> {
        (0..n).map(|_| self.next_update()).collect()
    }
}

/// Read probes: a fixed pool of top-k query vectors, plus a generator of
/// point-read ids.
#[derive(Debug, Clone)]
pub struct Probes {
    /// The top-k query pool: standard-normal directions of the embedding
    /// width, so different probes rank different vertices first.
    pub pool: Vec<Vec<f32>>,
    rng: Rng,
    vertices: usize,
}

impl Probes {
    /// A pool of `pool` queries of width `dim` made from `pool_seed`, and
    /// point-read ids over a `vertices`-vertex graph made from `seed`.
    pub fn new(vertices: usize, dim: usize, pool: usize, pool_seed: u64, seed: u64) -> Self {
        let mut pool_rng = Rng::new(pool_seed ^ 0x7072_6f62_6573);
        Probes {
            pool: (0..pool).map(|_| pool_rng.feature(dim)).collect(),
            rng: Rng::new(seed ^ 0x0070_6f69_6e74),
            vertices,
        }
    }

    /// Fills `ids` with the next uniform point-read targets.
    pub fn fill_point_ids(&mut self, ids: &mut [VertexId]) {
        for id in ids {
            *id = VertexId(self.rng.below(self.vertices) as u32);
        }
    }

    /// The `i`-th top-k query of round `round`. Rounds walk the pool in
    /// steps of `stride` — the number of leading queries a round also reads
    /// exactly — so the approx/exact pairs behind recall cover every probe
    /// equally often.
    pub fn query(&self, round: usize, i: usize, stride: usize) -> &[f32] {
        &self.pool[(round * stride + i) % self.pool.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_graph::UpdateKind;

    const SPEC: GraphSpec = GraphSpec {
        vertices: 400,
        avg_in_degree: 6.0,
        feature_dim: 8,
        skew: 0.65,
    };

    const HUB: StreamKind = StreamKind::HubChurn {
        zipf: 1.1,
        retouch: 0.25,
        recent: 64,
    };

    fn fingerprint(graph: &DynamicGraph, stream: &[GraphUpdate]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (u, v, w) in graph.iter_edges() {
            bytes.extend_from_slice(&u.0.to_le_bytes());
            bytes.extend_from_slice(&v.0.to_le_bytes());
            bytes.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        for x in graph.features().as_slice() {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(format!("{stream:?}").as_bytes());
        bytes
    }

    #[test]
    fn graph_hits_its_spec() {
        let g = generate_graph(&SPEC, 1);
        assert_eq!(g.num_vertices(), 400);
        assert_eq!(g.num_edges(), 2400);
        assert_eq!(g.feature_dim(), 8);
        let max_in = (0..400).map(|v| g.in_degree(VertexId(v))).max().unwrap();
        assert!(
            max_in > 30,
            "power-law hubs expected, max in-degree {max_in}"
        );
    }

    #[test]
    fn every_stream_applies_cleanly_in_order_and_kinds_are_in_thirds() {
        for kind in [StreamKind::Uniform, HUB] {
            let graph = generate_graph(&SPEC, 3);
            let stream = StreamGen::new(&graph, kind, 3).take(6000);
            let mut replay = graph.clone();
            for (i, update) in stream.iter().enumerate() {
                replay
                    .apply(update)
                    .unwrap_or_else(|e| panic!("{kind:?} update {i} ({update:?}) is invalid: {e}"));
            }
            let count = |k: UpdateKind| stream.iter().filter(|u| u.kind() == k).count();
            assert_eq!(count(UpdateKind::AddEdge), 2000);
            assert_eq!(count(UpdateKind::DeleteEdge), 2000);
            assert_eq!(count(UpdateKind::UpdateFeature), 2000);
        }
    }

    #[test]
    fn hub_churn_retouches_recent_keys_and_prefers_hubs() {
        let graph = generate_graph(&SPEC, 5);
        let stream = StreamGen::new(&graph, HUB, 5).take(3000);
        // A delete of an edge added within the previous 64 updates is what
        // the coalescer cancels; there must be plenty of them.
        let mut cancellable = 0;
        for (i, update) in stream.iter().enumerate() {
            if let GraphUpdate::DeleteEdge { src, dst } = update {
                let from = i.saturating_sub(64);
                cancellable += usize::from(stream[from..i].iter().any(|u| {
                    matches!(u, GraphUpdate::AddEdge { src: s, dst: d, .. } if s == src && d == dst)
                }));
            }
        }
        assert!(cancellable > 50, "only {cancellable} add→delete pairs");
        let hub = StreamGen::new(&graph, HUB, 5).by_degree[0];
        let touches_hub = stream
            .iter()
            .filter(|u| u.hop0_vertex().0 == hub || u.sink_vertex().is_some_and(|v| v.0 == hub))
            .count();
        assert!(touches_hub > 300, "hub touched only {touches_hub} times");
    }

    #[test]
    fn same_seed_same_bytes_and_different_seed_different_bytes() {
        let make = |seed: u64| {
            let graph = generate_graph(&SPEC, seed);
            let stream = StreamGen::new(&graph, HUB, seed).take(500);
            let probes = Probes::new(400, 8, 16, seed, seed).pool;
            (fingerprint(&graph, &stream), probes)
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7).0, make(8).0);
        assert_ne!(make(7).1, make(8).1);
    }
}
