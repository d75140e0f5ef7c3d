//! Closed-loop load generator for the serving subsystem.
//!
//! One writer thread streams a pre-generated, always-valid update sequence
//! through a [`crate::ServeClient`] while `N` reader threads hammer
//! [`QueryService`] handles with a configurable read mix (point embeddings,
//! predicted labels, top-k similarity). Everything operates closed-loop: the
//! writer is paced by queue backpressure, readers issue the next query as
//! soon as the previous one returns.
//!
//! The generator drives any [`ServeFrontend`]: a single engine behind one
//! scheduler, or — with [`LoadgenConfig::shards`] > 1 — a hash-partitioned
//! tier of shard engines. Epoch monotonicity is checked **per shard** in the
//! sharded case (stamps carry the owning shard; whole-graph reads carry the
//! min across the epoch vector, tracked in its own slot).
//!
//! The op *sequence* is deterministic (seeded via the workspace's
//! deterministic `rand` shim); wall-clock timings of course are not. The
//! report carries the serving-side headline numbers: p50/p95/p99 read
//! latency, update-visibility lag (enqueue → published epoch), epochs/sec —
//! and the safety counters the acceptance tests key on (epoch monotonicity
//! violations must be zero; every response is stamped).
//!
//! Configuration comes from `RIPPLE_SCALE`, `RIPPLE_THREADS` and the
//! `RIPPLE_SERVE_*` environment knobs (see [`LoadgenConfig::from_env`]); the
//! `serve_loadgen` binary is the CLI front end and emits the
//! `BENCH_serve.json` artifact in CI.

use crate::frontend::ServeFrontend;
use crate::histogram::LatencyHistogram;
use crate::index::IndexStats;
use crate::metrics::MetricsReport;
use crate::query::{ReadMode, TopKRequest};
use crate::scheduler::{spawn, BackpressurePolicy, ServeConfig, Submission};
use crate::shard::spawn_sharded;
use crate::QueryService;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ripple_core::{RippleConfig, RippleEngine};
use ripple_gnn::layer_wise::full_inference;
use ripple_gnn::Workload;
use ripple_graph::stream::{build_stream, StreamConfig};
use ripple_graph::synth::DatasetSpec;
use ripple_graph::{DynamicGraph, GraphUpdate, UpdateBatch, VertexId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one load-generator run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Vertices of the synthetic power-law graph.
    pub vertices: usize,
    /// Average in-degree of the graph.
    pub avg_degree: f64,
    /// Feature width.
    pub feature_dim: usize,
    /// Output classes (= final embedding width).
    pub classes: usize,
    /// GNN layers.
    pub layers: usize,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Raw updates the writer streams.
    pub updates: usize,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Worker threads of the driven engine (1 = serial [`RippleEngine`]).
    pub engine_threads: usize,
    /// Engine shards (1 = a single engine behind one scheduler; >1 drives a
    /// hash-partitioned tier via [`crate::spawn_sharded`]).
    pub shards: usize,
    /// `k` of the top-k read op.
    pub top_k: usize,
    /// How top-k reads execute: [`ReadMode::Exact`] scans, or
    /// [`ReadMode::Approx`] probes the session's IVF index.
    pub read_mode: ReadMode,
    /// Scheduler configuration.
    pub serve: ServeConfig,
    /// Seed for graph, stream and reader op sequences.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            vertices: 2_000,
            avg_degree: 6.0,
            feature_dim: 16,
            classes: 8,
            layers: 2,
            hidden_dim: 32,
            updates: 2_000,
            readers: 4,
            engine_threads: 1,
            shards: 1,
            top_k: 10,
            read_mode: ReadMode::Exact,
            serve: ServeConfig::default(),
            seed: 42,
        }
    }
}

impl LoadgenConfig {
    /// Builds a configuration from the environment:
    ///
    /// | knob | meaning | default |
    /// |------|---------|---------|
    /// | `RIPPLE_SCALE` | `tiny`/`small`/`medium` graph & stream sizes | `small` |
    /// | `RIPPLE_THREADS` | engine worker threads (`auto` = host cores) | 1 |
    /// | `RIPPLE_SERVE_READERS` | reader threads | 4 |
    /// | `RIPPLE_SERVE_SHARDS` | engine shards (>1 = sharded tier) | 1 |
    /// | `RIPPLE_SERVE_UPDATES` | raw updates streamed | scale-dependent |
    /// | `RIPPLE_SERVE_BATCH` | coalescing size window | 64 |
    /// | `RIPPLE_SERVE_DELAY_MS` | coalescing time window (ms) | 2 |
    /// | `RIPPLE_SERVE_QUEUE` | bounded queue capacity | 1024 |
    /// | `RIPPLE_SERVE_POLICY` | `block` or `shed` backpressure | `block` |
    /// | `RIPPLE_SERVE_READ_MODE` | `exact` or `approx` top-k reads | `exact` |
    /// | `RIPPLE_SERVE_NPROBE` | probed clusters of approx reads | 16 |
    pub fn from_env() -> Self {
        let scale = std::env::var("RIPPLE_SCALE").unwrap_or_default();
        let (vertices, avg_degree, feature_dim, updates) = match scale.to_lowercase().as_str() {
            "tiny" => (300, 4.0, 8, 300),
            "medium" => (10_000, 8.0, 32, 10_000),
            _ => (2_000, 6.0, 16, 2_000),
        };
        let mut config = LoadgenConfig {
            vertices,
            avg_degree,
            feature_dim,
            updates,
            ..Default::default()
        };
        config.engine_threads = match std::env::var("RIPPLE_THREADS").as_deref() {
            Ok("auto") => ripple_core::WorkerPool::host_sized().threads(),
            Ok(value) => value.parse().ok().filter(|&t| t >= 1).unwrap_or(1),
            Err(_) => 1,
        };
        if let Some(readers) = env_usize("RIPPLE_SERVE_READERS") {
            config.readers = readers.max(1);
        }
        if let Some(shards) = env_usize("RIPPLE_SERVE_SHARDS") {
            config.shards = shards.max(1);
        }
        if let Some(updates) = env_usize("RIPPLE_SERVE_UPDATES") {
            config.updates = updates;
        }
        if let Some(batch) = env_usize("RIPPLE_SERVE_BATCH") {
            config.serve.max_batch = batch.max(1);
        }
        if let Some(delay) = env_usize("RIPPLE_SERVE_DELAY_MS") {
            config.serve.max_delay = Duration::from_millis(delay as u64);
        }
        if let Some(capacity) = env_usize("RIPPLE_SERVE_QUEUE") {
            config.serve.queue_capacity = capacity.max(1);
        }
        if let Ok(policy) = std::env::var("RIPPLE_SERVE_POLICY") {
            config.serve.policy = match policy.to_lowercase().as_str() {
                "shed" => BackpressurePolicy::Shed,
                _ => BackpressurePolicy::Block,
            };
        }
        if let Ok(mode) = std::env::var("RIPPLE_SERVE_READ_MODE") {
            config.read_mode = match mode.to_lowercase().as_str() {
                "approx" => ReadMode::Approx {
                    nprobe: DEFAULT_NPROBE,
                },
                _ => ReadMode::Exact,
            };
        }
        if let Some(nprobe) = env_usize("RIPPLE_SERVE_NPROBE") {
            config.read_mode = ReadMode::Approx {
                nprobe: nprobe.max(1),
            };
        }
        config
    }
}

/// Probed clusters when `RIPPLE_SERVE_READ_MODE=approx` does not name a
/// count (also the top-k benchmark's operating point).
pub const DEFAULT_NPROBE: usize = 16;

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.parse().ok()
}

/// What one reader thread measured. Latencies go into a bounded HDR-style
/// histogram (constant memory), so soak runs of any length keep the reader
/// threads' footprint flat.
struct ReaderStats {
    latencies: LatencyHistogram,
    reads_during_updates: u64,
    epoch_violations: u64,
    unstamped_responses: u64,
    max_staleness: u64,
}

/// Result of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Reader threads used.
    pub readers: usize,
    /// Engine worker threads used.
    pub engine_threads: usize,
    /// Engine shards serving the run (1 = unsharded).
    pub shards: usize,
    /// Raw updates the writer offered.
    pub updates_offered: usize,
    /// Wall-clock of the measured phase (first submit → drain).
    pub elapsed: Duration,
    /// Epochs published during the run.
    pub epochs: u64,
    /// Epochs per wall-clock second.
    pub epochs_per_sec: f64,
    /// Total reads served across all readers.
    pub reads: u64,
    /// Reads served **while the writer was still streaming** — the
    /// concurrent-read evidence the acceptance criteria ask for.
    pub reads_during_updates: u64,
    /// Reads per wall-clock second.
    pub reads_per_sec: f64,
    /// Median read latency.
    pub read_p50: Duration,
    /// 95th-percentile read latency.
    pub read_p95: Duration,
    /// 99th-percentile read latency.
    pub read_p99: Duration,
    /// Largest staleness stamp any reader observed.
    pub max_staleness: u64,
    /// Epoch-went-backwards observations (must be 0: epochs are monotonic
    /// per reader handle).
    pub epoch_violations: u64,
    /// Responses missing a stamp (must be 0: every in-range query is
    /// stamped).
    pub unstamped_responses: u64,
    /// Scheduler/engine counters at the end of the run.
    pub metrics: MetricsReport,
}

impl LoadgenReport {
    /// `true` when the run upheld the serving contract: no epoch ever moved
    /// backwards for a reader, every response was stamped, no engine error.
    pub fn contract_upheld(&self) -> bool {
        self.epoch_violations == 0
            && self.unstamped_responses == 0
            && self.metrics.engine_errors == 0
    }

    /// The `BENCH_serve.json` artifact (hand-rolled: the offline serde shim
    /// has no serialiser).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"serve_loadgen\",\n");
        out.push_str(&format!("  {},\n", ripple_tensor::simd::env_json_fields()));
        out.push_str(&format!("  \"readers\": {},\n", self.readers));
        out.push_str(&format!("  \"engine_threads\": {},\n", self.engine_threads));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!(
            "  \"updates_offered\": {},\n",
            self.updates_offered
        ));
        out.push_str(&format!(
            "  \"elapsed_ms\": {:.3},\n",
            self.elapsed.as_secs_f64() * 1e3
        ));
        out.push_str(&format!("  \"epochs\": {},\n", self.epochs));
        out.push_str(&format!(
            "  \"epochs_per_sec\": {:.3},\n",
            self.epochs_per_sec
        ));
        out.push_str(&format!("  \"reads\": {},\n", self.reads));
        out.push_str(&format!(
            "  \"reads_during_updates\": {},\n",
            self.reads_during_updates
        ));
        out.push_str(&format!(
            "  \"reads_per_sec\": {:.3},\n",
            self.reads_per_sec
        ));
        out.push_str(&format!(
            "  \"read_p50_us\": {:.3},\n",
            self.read_p50.as_secs_f64() * 1e6
        ));
        out.push_str(&format!(
            "  \"read_p95_us\": {:.3},\n",
            self.read_p95.as_secs_f64() * 1e6
        ));
        out.push_str(&format!(
            "  \"read_p99_us\": {:.3},\n",
            self.read_p99.as_secs_f64() * 1e6
        ));
        out.push_str(&format!(
            "  \"mean_visibility_lag_us\": {:.3},\n",
            self.metrics.mean_visibility_lag.as_secs_f64() * 1e6
        ));
        out.push_str(&format!(
            "  \"max_visibility_lag_us\": {:.3},\n",
            self.metrics.max_visibility_lag.as_secs_f64() * 1e6
        ));
        out.push_str(&format!("  \"max_staleness\": {},\n", self.max_staleness));
        out.push_str(&format!("  \"enqueued\": {},\n", self.metrics.enqueued));
        out.push_str(&format!("  \"shed\": {},\n", self.metrics.shed));
        out.push_str(&format!("  \"coalesced\": {},\n", self.metrics.coalesced));
        out.push_str(&format!("  \"batches\": {},\n", self.metrics.batches));
        out.push_str(&format!(
            "  \"epoch_violations\": {},\n",
            self.epoch_violations
        ));
        out.push_str(&format!(
            "  \"unstamped_responses\": {},\n",
            self.unstamped_responses
        ));
        out.push_str(&format!(
            "  \"contract_upheld\": {}\n",
            self.contract_upheld()
        ));
        out.push('}');
        out.push('\n');
        out
    }
}

impl std::fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<8} {:<10} {:>8} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "shards", "readers", "epochs", "epochs/s", "reads/s", "p50 us", "p95 us", "p99 us"
        )?;
        writeln!(
            f,
            "{:<8} {:<10} {:>8} {:>10.2} {:>12.1} {:>12.2} {:>12.2} {:>12.2}",
            self.shards,
            self.readers,
            self.epochs,
            self.epochs_per_sec,
            self.reads_per_sec,
            self.read_p50.as_secs_f64() * 1e6,
            self.read_p95.as_secs_f64() * 1e6,
            self.read_p99.as_secs_f64() * 1e6
        )?;
        writeln!(
            f,
            "visibility lag: mean {:.3} ms, max {:.3} ms; max staleness {}; \
             reads during updates {}; coalesced {}; shed {}",
            self.metrics.mean_visibility_lag.as_secs_f64() * 1e3,
            self.metrics.max_visibility_lag.as_secs_f64() * 1e3,
            self.max_staleness,
            self.reads_during_updates,
            self.metrics.coalesced,
            self.metrics.shed
        )?;
        write!(
            f,
            "contract: epoch monotonic per reader per shard ({} violations), \
             stamped responses ({} missing), engine errors {}",
            self.epoch_violations, self.unstamped_responses, self.metrics.engine_errors
        )
    }
}

/// Runs one closed-loop serving session and reports what it measured.
///
/// # Panics
///
/// Panics on setup failures (dataset generation, bootstrap inference) and if
/// the scheduler fails to drain within a generous timeout — the load
/// generator treats those as fatal harness errors.
pub fn run_loadgen(config: &LoadgenConfig) -> LoadgenReport {
    // ------------------------------------------------------------------
    // Setup: synthetic graph, valid update stream, bootstrapped engine.
    // ------------------------------------------------------------------
    let spec = DatasetSpec::custom(
        config.vertices,
        config.avg_degree,
        config.feature_dim,
        config.classes,
    );
    let full = spec.generate(config.seed).expect("dataset generation");
    let plan = build_stream(
        &full,
        &StreamConfig {
            total_updates: config.updates,
            seed: config.seed ^ 0x5eed,
            ..Default::default()
        },
    )
    .expect("update stream");
    let model = Workload::GcS
        .build_model(
            config.feature_dim,
            config.hidden_dim,
            config.classes,
            config.layers,
            config.seed ^ 0x77,
        )
        .expect("model construction");
    let store = full_inference(&plan.snapshot, &model).expect("bootstrap inference");
    let stream: Vec<GraphUpdate> = plan
        .batches(1)
        .into_iter()
        .flat_map(UpdateBatch::into_updates)
        .collect();
    // ------------------------------------------------------------------
    // Serve: a single-engine session or a hash-partitioned shard tier —
    // the driving loop is written once against `ServeFrontend`.
    // ------------------------------------------------------------------
    let outcome = if config.shards > 1 {
        let handle = spawn_sharded(
            &plan.snapshot,
            &model,
            &store,
            RippleConfig::default(),
            config.serve.clone(),
            config.shards,
        )
        .expect("sharded serving tier");
        let outcome = drive(&handle, config, stream);
        handle.shutdown().expect("serving session failed");
        outcome
    } else {
        let engine = RippleEngine::new(plan.snapshot, model, store, RippleConfig::default())
            .expect("ripple engine")
            .with_threads(config.engine_threads);
        let handle = spawn(engine, config.serve.clone()).expect("serving session");
        let outcome = drive(&handle, config, stream);
        handle.shutdown().expect("serving session failed");
        outcome
    };

    let report = outcome.metrics;
    let secs = outcome.elapsed.as_secs_f64().max(1e-9);
    LoadgenReport {
        readers: config.readers.max(1),
        engine_threads: config.engine_threads,
        shards: config.shards.max(1),
        updates_offered: outcome.offered,
        elapsed: outcome.elapsed,
        epochs: report.epochs,
        epochs_per_sec: report.epochs as f64 / secs,
        reads: outcome.latencies.len(),
        reads_during_updates: outcome.reads_during_updates,
        reads_per_sec: outcome.latencies.len() as f64 / secs,
        read_p50: outcome.latencies.percentile(50.0),
        read_p95: outcome.latencies.percentile(95.0),
        read_p99: outcome.latencies.percentile(99.0),
        max_staleness: outcome.max_staleness,
        epoch_violations: outcome.epoch_violations,
        unstamped_responses: outcome.unstamped_responses,
        metrics: report,
    }
}

/// What [`drive`] measured, before it is shaped into a [`LoadgenReport`].
struct DriveOutcome {
    offered: usize,
    elapsed: Duration,
    latencies: LatencyHistogram,
    reads_during_updates: u64,
    epoch_violations: u64,
    unstamped_responses: u64,
    max_staleness: u64,
    metrics: MetricsReport,
}

/// The topology-agnostic measured phase: spawns the closed-loop readers,
/// streams the update sequence, quiesces, and joins the readers.
///
/// Epoch monotonicity is tracked per **slot**: one slot per shard (point
/// reads carry their owning shard) plus one for whole-graph reads, whose
/// stamp is the min across the epoch vector — monotonic in its own right,
/// but incomparable with any single shard's sequence.
fn drive<F: ServeFrontend>(
    frontend: &F,
    config: &LoadgenConfig,
    stream: Vec<GraphUpdate>,
) -> DriveOutcome {
    let metrics = frontend.metrics();
    let stop = Arc::new(AtomicBool::new(false));
    let writer_active = Arc::new(AtomicBool::new(true));
    let slots = frontend.num_shards() + 1;
    let started = Instant::now();

    let readers: Vec<_> = (0..config.readers.max(1))
        .map(|r| {
            let mut queries: QueryService = frontend.query_service();
            let stop = Arc::clone(&stop);
            let writer_active = Arc::clone(&writer_active);
            let seed = config.seed ^ (0x9e37_79b9_u64.wrapping_mul(r as u64 + 1));
            let num_vertices = config.vertices as u32;
            let classes = config.classes;
            let top_k = config.top_k;
            let read_mode = config.read_mode;
            std::thread::Builder::new()
                .name(format!("ripple-serve-reader-{r}"))
                .spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut stats = ReaderStats {
                        latencies: LatencyHistogram::new(),
                        reads_during_updates: 0,
                        epoch_violations: 0,
                        unstamped_responses: 0,
                        max_staleness: 0,
                    };
                    let mut last_epoch = vec![0u64; slots];
                    let mut query_vec = vec![0.0f32; classes];
                    while !stop.load(Ordering::Relaxed) {
                        let v = VertexId(rng.gen_range(0u32..num_vertices));
                        let start = Instant::now();
                        // Read mix: 10% top-k, 30% embedding, 60% label.
                        let stamp = match rng.gen_range(0u32..10) {
                            0 => {
                                for x in query_vec.iter_mut() {
                                    *x = rng.gen_range(-1.0f32..1.0);
                                }
                                let mut request = TopKRequest::new(query_vec.clone(), top_k);
                                request.mode = read_mode;
                                queries
                                    .top_k(&request)
                                    .ok()
                                    .map(|s| (s.epoch, s.staleness, s.shard))
                            }
                            1..=3 => queries
                                .read_embedding(v)
                                .ok()
                                .map(|s| (s.epoch, s.staleness, s.shard)),
                            _ => queries
                                .read_label(v)
                                .ok()
                                .map(|s| (s.epoch, s.staleness, s.shard)),
                        };
                        stats.latencies.record(start.elapsed());
                        match stamp {
                            Some((epoch, staleness, shard)) => {
                                let slot = shard.map_or(slots - 1, |p| p.index());
                                if epoch < last_epoch[slot] {
                                    stats.epoch_violations += 1;
                                }
                                last_epoch[slot] = epoch;
                                stats.max_staleness = stats.max_staleness.max(staleness);
                            }
                            // Every generated query is in range; a missing
                            // stamp would be a serving bug.
                            None => stats.unstamped_responses += 1,
                        }
                        if writer_active.load(Ordering::Relaxed) {
                            stats.reads_during_updates += 1;
                        }
                    }
                    stats
                })
                .expect("spawning reader thread")
        })
        .collect();

    // The writer: closed-loop submission paced by queue backpressure.
    let client = frontend.client();
    let mut offered = 0usize;
    for update in stream {
        offered += 1;
        if client.submit(update) == Submission::Closed {
            break;
        }
    }
    // Drain fully: close pending windows and (sharded) wait out in-flight
    // cross-shard deltas, then wait for every routed update to be visible.
    // A poisoned session surfaces through the engine-error counter below
    // and the caller's shutdown, so the drain tolerates a quiesce error.
    let _ = frontend.quiesce();
    let drain_deadline = Instant::now() + Duration::from_secs(120);
    while metrics.applied() < metrics.enqueued() {
        if metrics.engine_errors() > 0 {
            // The session is poisoned; shutdown below reports the error.
            break;
        }
        assert!(
            Instant::now() < drain_deadline,
            "scheduler failed to drain: applied {} of {}",
            metrics.applied(),
            metrics.enqueued()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    writer_active.store(false, Ordering::Relaxed);

    // On a single-core host the writer can drain before the reader threads
    // ever get scheduled; give them a bounded window to serve at least one
    // read so the report (and the contract assertions) are meaningful.
    let read_deadline = Instant::now() + Duration::from_secs(10);
    while metrics.reads() == 0 && Instant::now() < read_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }

    // The measured span closes where reading stops: reads served during the
    // grace window above must count against the time that produced them, or
    // reads/sec would be inflated by up to the window length.
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let reader_stats: Vec<ReaderStats> = readers
        .into_iter()
        .map(|t| t.join().expect("reader thread panicked"))
        .collect();

    // ------------------------------------------------------------------
    // Aggregate: merge the per-reader histograms — O(buckets) per reader,
    // no sample vector to sort no matter how long the run was.
    // ------------------------------------------------------------------
    let mut latencies = LatencyHistogram::new();
    let mut reads_during_updates = 0;
    let mut epoch_violations = 0;
    let mut unstamped_responses = 0;
    let mut max_staleness = 0;
    for stats in &reader_stats {
        latencies.merge(&stats.latencies);
        reads_during_updates += stats.reads_during_updates;
        epoch_violations += stats.epoch_violations;
        unstamped_responses += stats.unstamped_responses;
        max_staleness = max_staleness.max(stats.max_staleness);
    }
    DriveOutcome {
        offered,
        elapsed,
        latencies,
        reads_during_updates,
        epoch_violations,
        unstamped_responses,
        max_staleness,
        metrics: metrics.report(),
    }
}

/// One measured size point of the exact-vs-approx top-k benchmark.
#[derive(Debug, Clone)]
pub struct TopKBenchPoint {
    /// Vertices of the synthetic graph this point served.
    pub vertices: usize,
    /// Coarse clusters of the IVF index at this size.
    pub clusters: usize,
    /// Clusters probed per approximate query.
    pub nprobe: usize,
    /// Queries measured per mode.
    pub queries: usize,
    /// Median exact-scan latency.
    pub exact_p50: Duration,
    /// 99th-percentile exact-scan latency.
    pub exact_p99: Duration,
    /// Median approximate (IVF) latency.
    pub approx_p50: Duration,
    /// 99th-percentile approximate (IVF) latency.
    pub approx_p99: Duration,
    /// `exact_p50 / approx_p50` — the headline sublinearity evidence.
    pub speedup_p50: f64,
    /// Mean recall@10 of the approximate reads against the exact oracle.
    pub recall_at_10: f64,
    /// Index maintenance counters after warm-up + measurement.
    pub index: IndexStats,
}

/// Result of [`run_topk_bench`]: one point per graph size.
#[derive(Debug, Clone)]
pub struct TopKBenchReport {
    /// `k` used throughout (recall is recall@k).
    pub k: usize,
    /// The measured size points, in input order.
    pub points: Vec<TopKBenchPoint>,
}

impl TopKBenchReport {
    /// The `BENCH_topk.json` artifact (hand-rolled: the offline serde shim
    /// has no serialiser).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"serve_topk_bench\",\n");
        out.push_str(&format!("  {},\n", ripple_tensor::simd::env_json_fields()));
        out.push_str(&format!("  \"k\": {},\n", self.k));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"vertices\": {},\n", p.vertices));
            out.push_str(&format!("      \"clusters\": {},\n", p.clusters));
            out.push_str(&format!("      \"nprobe\": {},\n", p.nprobe));
            out.push_str(&format!("      \"queries\": {},\n", p.queries));
            out.push_str(&format!(
                "      \"exact_p50_us\": {:.3},\n",
                p.exact_p50.as_secs_f64() * 1e6
            ));
            out.push_str(&format!(
                "      \"exact_p99_us\": {:.3},\n",
                p.exact_p99.as_secs_f64() * 1e6
            ));
            out.push_str(&format!(
                "      \"approx_p50_us\": {:.3},\n",
                p.approx_p50.as_secs_f64() * 1e6
            ));
            out.push_str(&format!(
                "      \"approx_p99_us\": {:.3},\n",
                p.approx_p99.as_secs_f64() * 1e6
            ));
            out.push_str(&format!("      \"speedup_p50\": {:.3},\n", p.speedup_p50));
            out.push_str(&format!("      \"recall_at_10\": {:.4},\n", p.recall_at_10));
            out.push_str(&format!("      \"index_builds\": {},\n", p.index.builds));
            out.push_str(&format!(
                "      \"index_rebuilds\": {},\n",
                p.index.rebuilds
            ));
            out.push_str(&format!("      \"index_repairs\": {},\n", p.index.repairs));
            out.push_str(&format!(
                "      \"index_rows_repaired\": {},\n",
                p.index.rows_repaired
            ));
            out.push_str(&format!("      \"index_splits\": {},\n", p.index.splits));
            out.push_str(&format!("      \"index_merges\": {}\n", p.index.merges));
            out.push_str(if i + 1 == self.points.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl std::fmt::Display for TopKBenchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>10} {:>9} {:>7} {:>13} {:>13} {:>9} {:>10} {:>9} {:>9}",
            "|V|",
            "clusters",
            "nprobe",
            "exact p50 us",
            "approx p50 us",
            "speedup",
            "recall@10",
            "repairs",
            "rebuilds"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>10} {:>9} {:>7} {:>13.2} {:>13.2} {:>8.1}x {:>10.4} {:>9} {:>9}",
                p.vertices,
                p.clusters,
                p.nprobe,
                p.exact_p50.as_secs_f64() * 1e6,
                p.approx_p50.as_secs_f64() * 1e6,
                p.speedup_p50,
                p.recall_at_10,
                p.index.repairs,
                p.index.rebuilds
            )?;
        }
        Ok(())
    }
}

/// Benchmarks exact-scan vs approximate (IVF) top-k on single-engine
/// sessions of the given sizes: streams a warm-up update phase (so every
/// epoch exercises the index's dirty repair), then measures both read modes
/// over the same seeded query sequence and scores the approximate results
/// against the exact oracle.
///
/// # Panics
///
/// Panics on setup failures, and when the serving contract behind the
/// numbers is broken: any approximate score that is not bit-identical to
/// the exact score of the same vertex, mean recall@10 below 0.95, or any
/// post-bootstrap full index rebuild (repairs must carry every epoch).
pub fn run_topk_bench(sizes: &[usize], seed: u64) -> TopKBenchReport {
    const K: usize = 10;
    let points = sizes
        .iter()
        .map(|&vertices| run_topk_point(vertices, K, seed))
        .collect();
    TopKBenchReport { k: K, points }
}

fn run_topk_point(vertices: usize, k: usize, seed: u64) -> TopKBenchPoint {
    let feature_dim = 16;
    let classes = 16;
    let spec = DatasetSpec::custom(vertices, 6.0, feature_dim, classes);
    let full = spec.generate(seed).expect("dataset generation");
    let warmup_updates = (vertices / 10).clamp(200, 2_000);
    let plan = build_stream(
        &full,
        &StreamConfig {
            total_updates: warmup_updates,
            seed: seed ^ 0x70_9c,
            ..Default::default()
        },
    )
    .expect("update stream");
    let model = Workload::GcS
        .build_model(feature_dim, 32, classes, 2, seed ^ 0x77)
        .expect("model construction");
    let store = full_inference(&plan.snapshot, &model).expect("bootstrap inference");
    let stream: Vec<GraphUpdate> = plan
        .batches(1)
        .into_iter()
        .flat_map(UpdateBatch::into_updates)
        .collect();
    let engine = RippleEngine::new(plan.snapshot, model, store, RippleConfig::default())
        .expect("serial engine");
    // The benchmark's operating point, tuned for dot-product retrieval over
    // GNN embeddings: many small clusters probed by MIP bound beat few big
    // ones at the same probed fraction (the probe ranking gets more to work
    // with), so over-cluster relative to the √n default and probe a small
    // fraction. Smaller graphs have a flatter recall-vs-fraction curve and
    // need a larger fraction.
    let mut params = crate::IndexParams::default();
    let base = params.effective_clusters(vertices);
    let (cluster_mult, probe_frac) = if vertices >= 20_000 {
        (16, 0.04)
    } else if vertices >= 5_000 {
        (8, 0.12)
    } else {
        // Tiny graphs: postings average only a handful of rows, so the probe
        // fraction has to be large for recall — there is no sublinear win to
        // chase at this scale anyway, the point is exercising the same path.
        (1, 0.80)
    };
    params.clusters = base * cluster_mult;
    let clusters = params.effective_clusters(vertices);
    let nprobe = ((clusters as f64 * probe_frac).ceil() as usize).max(DEFAULT_NPROBE);
    let serve = ServeConfig::builder()
        .max_batch(64)
        .index(params)
        .build()
        .unwrap();
    let handle = spawn(engine, serve).expect("serving session");

    // Warm-up: stream the updates and drain, so the measured index state is
    // the product of per-epoch dirty repair, not the bootstrap build.
    let client = handle.client();
    for update in stream {
        if client.submit(update) == Submission::Closed {
            break;
        }
    }
    let metrics = handle.metrics();
    let drain_deadline = Instant::now() + Duration::from_secs(120);
    loop {
        handle.flush();
        if metrics.applied() >= metrics.enqueued() {
            break;
        }
        assert!(
            Instant::now() < drain_deadline && metrics.engine_errors() == 0,
            "warm-up failed to drain cleanly"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let warm = handle.index_stats().expect("benchmark sessions index");
    assert_eq!(warm.builds, 1, "exactly the bootstrap build");
    assert_eq!(
        warm.rebuilds, 0,
        "every warm-up epoch must repair, never rebuild: {warm:?}"
    );
    assert!(warm.repairs > 0, "warm-up published no repaired epochs");

    // Measure: the same seeded query sequence through both read modes, each
    // approximate read scored against the exact oracle answered on the same
    // snapshot (the session is drained, so both modes see identical state).
    let mut queries = handle.query_service();
    let num_queries = 200;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xbe9c);
    let mut exact_lat = LatencyHistogram::new();
    let mut approx_lat = LatencyHistogram::new();
    let mut recall_sum = 0.0f64;
    for _ in 0..num_queries {
        let query: Vec<f32> = (0..classes).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let started = Instant::now();
        let exact = queries
            .top_k(&TopKRequest::new(query.clone(), k))
            .expect("exact top-k");
        exact_lat.record(started.elapsed());
        let started = Instant::now();
        let approx = queries
            .top_k(&TopKRequest::new(query, k).approx(nprobe))
            .expect("approx top-k");
        approx_lat.record(started.elapsed());
        let mut hits = 0usize;
        for (v, score) in &approx.value {
            if let Some((_, exact_score)) = exact.value.iter().find(|(ev, _)| ev == v) {
                hits += 1;
                assert_eq!(
                    score.to_bits(),
                    exact_score.to_bits(),
                    "approx must score from the same snapshot as exact (vertex {v:?})"
                );
            }
        }
        recall_sum += hits as f64 / exact.value.len().max(1) as f64;
    }
    let recall_at_10 = recall_sum / num_queries as f64;
    assert!(
        recall_at_10 >= 0.95,
        "recall@{k} {recall_at_10:.4} under the 0.95 floor at |V|={vertices} (nprobe {nprobe}/{clusters})"
    );

    let index = handle.index_stats().expect("benchmark sessions index");
    handle.shutdown().expect("serving session failed");
    let exact_p50 = exact_lat.percentile(50.0);
    let approx_p50 = approx_lat.percentile(50.0);
    TopKBenchPoint {
        vertices,
        clusters,
        nprobe,
        queries: num_queries,
        exact_p50,
        exact_p99: exact_lat.percentile(99.0),
        approx_p50,
        approx_p99: approx_lat.percentile(99.0),
        speedup_p50: exact_p50.as_secs_f64() / approx_p50.as_secs_f64().max(1e-9),
        recall_at_10,
        index,
    }
}

/// One `nprobe` operating point of the recall-vs-nprobe sweep.
#[derive(Debug, Clone)]
pub struct NprobeSweepPoint {
    /// Clusters probed per approximate query at this point.
    pub nprobe: usize,
    /// Fraction of the index's clusters this probes.
    pub probe_fraction: f64,
    /// Mean recall@k against the exact oracle.
    pub recall: f64,
    /// Median approximate-read latency.
    pub approx_p50: Duration,
    /// `exact_p50 / approx_p50` at this operating point.
    pub speedup_p50: f64,
}

/// Result of [`run_nprobe_sweep`]: the recall-vs-nprobe trade-off curve of
/// one serving session, measured over a shared seeded query sequence.
#[derive(Debug, Clone)]
pub struct NprobeSweepReport {
    /// Vertices of the swept session's graph.
    pub vertices: usize,
    /// `k` used throughout (recall is recall@k).
    pub k: usize,
    /// Coarse clusters of the session's IVF index.
    pub clusters: usize,
    /// Queries measured per point.
    pub queries: usize,
    /// Median exact-scan latency (the sweep's common baseline).
    pub exact_p50: Duration,
    /// The measured points, in ascending `nprobe` order.
    pub points: Vec<NprobeSweepPoint>,
}

impl NprobeSweepReport {
    /// The `BENCH_nprobe.json` artifact (hand-rolled: the offline serde
    /// shim has no serialiser).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"serve_nprobe_sweep\",\n");
        out.push_str(&format!("  {},\n", ripple_tensor::simd::env_json_fields()));
        out.push_str(&format!("  \"vertices\": {},\n", self.vertices));
        out.push_str(&format!("  \"k\": {},\n", self.k));
        out.push_str(&format!("  \"clusters\": {},\n", self.clusters));
        out.push_str(&format!("  \"queries\": {},\n", self.queries));
        out.push_str(&format!(
            "  \"exact_p50_us\": {:.3},\n",
            self.exact_p50.as_secs_f64() * 1e6
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"nprobe\": {},\n", p.nprobe));
            out.push_str(&format!(
                "      \"probe_fraction\": {:.4},\n",
                p.probe_fraction
            ));
            out.push_str(&format!("      \"recall\": {:.4},\n", p.recall));
            out.push_str(&format!(
                "      \"approx_p50_us\": {:.3},\n",
                p.approx_p50.as_secs_f64() * 1e6
            ));
            out.push_str(&format!("      \"speedup_p50\": {:.3}\n", p.speedup_p50));
            out.push_str(if i + 1 == self.points.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl std::fmt::Display for NprobeSweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "recall-vs-nprobe, |V|={}, {} clusters, exact p50 {:.2} us",
            self.vertices,
            self.clusters,
            self.exact_p50.as_secs_f64() * 1e6
        )?;
        writeln!(
            f,
            "{:>7} {:>10} {:>10} {:>13} {:>9}",
            "nprobe", "fraction", "recall", "approx p50 us", "speedup"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>7} {:>10.3} {:>10.4} {:>13.2} {:>8.1}x",
                p.nprobe,
                p.probe_fraction,
                p.recall,
                p.approx_p50.as_secs_f64() * 1e6,
                p.speedup_p50
            )?;
        }
        Ok(())
    }
}

/// Sweeps the recall-vs-nprobe trade-off of one single-engine session: warms
/// the index through a streamed update phase (every epoch exercises dirty
/// repair), then measures each probe count over the same seeded query
/// sequence against the shared exact oracle. Recall must be non-decreasing
/// in `nprobe` up to measurement noise; the caller picks the knee.
///
/// # Panics
///
/// Panics on setup failures and if the session fails to drain — the sweep
/// treats those as fatal harness errors.
pub fn run_nprobe_sweep(
    vertices: usize,
    k: usize,
    nprobes: &[usize],
    seed: u64,
) -> NprobeSweepReport {
    let feature_dim = 16;
    let classes = 16;
    let spec = DatasetSpec::custom(vertices, 6.0, feature_dim, classes);
    let full = spec.generate(seed).expect("dataset generation");
    let warmup_updates = (vertices / 10).clamp(200, 2_000);
    let plan = build_stream(
        &full,
        &StreamConfig {
            total_updates: warmup_updates,
            seed: seed ^ 0x70_9c,
            ..Default::default()
        },
    )
    .expect("update stream");
    let model = Workload::GcS
        .build_model(feature_dim, 32, classes, 2, seed ^ 0x77)
        .expect("model construction");
    let store = full_inference(&plan.snapshot, &model).expect("bootstrap inference");
    let stream: Vec<GraphUpdate> = plan
        .batches(1)
        .into_iter()
        .flat_map(UpdateBatch::into_updates)
        .collect();
    let engine = RippleEngine::new(plan.snapshot, model, store, RippleConfig::default())
        .expect("serial engine");
    // Over-cluster like the top-k benchmark, so small probe counts leave
    // recall headroom to sweep through instead of saturating immediately.
    let mut params = crate::IndexParams::default();
    params.clusters = params.effective_clusters(vertices) * 8;
    let clusters = params.effective_clusters(vertices);
    let serve = ServeConfig::builder()
        .max_batch(64)
        .index(params)
        .build()
        .unwrap();
    let handle = spawn(engine, serve).expect("serving session");

    let client = handle.client();
    for update in stream {
        if client.submit(update) == Submission::Closed {
            break;
        }
    }
    let metrics = handle.metrics();
    let drain_deadline = Instant::now() + Duration::from_secs(120);
    loop {
        handle.flush();
        if metrics.applied() >= metrics.enqueued() {
            break;
        }
        assert!(
            Instant::now() < drain_deadline && metrics.engine_errors() == 0,
            "warm-up failed to drain cleanly"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The session is drained, so every point reads the same snapshot: the
    // shared query sequence makes the recall column directly comparable.
    let num_queries = 100;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xbe9c);
    let query_vecs: Vec<Vec<f32>> = (0..num_queries)
        .map(|_| (0..classes).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let mut queries = handle.query_service();
    let mut exact_lat = LatencyHistogram::new();
    let exact_oracle: Vec<_> = query_vecs
        .iter()
        .map(|q| {
            let started = Instant::now();
            let exact = queries
                .top_k(&TopKRequest::new(q.clone(), k))
                .expect("exact top-k");
            exact_lat.record(started.elapsed());
            exact.value
        })
        .collect();
    let exact_p50 = exact_lat.percentile(50.0);

    let mut points = Vec::with_capacity(nprobes.len());
    for &nprobe in nprobes {
        let nprobe = nprobe.max(1);
        let mut approx_lat = LatencyHistogram::new();
        let mut recall_sum = 0.0f64;
        for (q, oracle) in query_vecs.iter().zip(&exact_oracle) {
            let started = Instant::now();
            let approx = queries
                .top_k(&TopKRequest::new(q.clone(), k).approx(nprobe))
                .expect("approx top-k");
            approx_lat.record(started.elapsed());
            let hits = approx
                .value
                .iter()
                .filter(|(v, _)| oracle.iter().any(|(ov, _)| ov == v))
                .count();
            recall_sum += hits as f64 / oracle.len().max(1) as f64;
        }
        let approx_p50 = approx_lat.percentile(50.0);
        points.push(NprobeSweepPoint {
            nprobe,
            probe_fraction: nprobe as f64 / clusters.max(1) as f64,
            recall: recall_sum / num_queries as f64,
            approx_p50,
            speedup_p50: exact_p50.as_secs_f64() / approx_p50.as_secs_f64().max(1e-9),
        });
    }
    handle.shutdown().expect("serving session failed");
    NprobeSweepReport {
        vertices,
        k,
        clusters,
        queries: num_queries,
        exact_p50,
        points,
    }
}

/// One measured mode of the admission benchmark: a scenario run at one
/// in-flight depth (depth 0 is the serial baseline every other depth is
/// bit-compared against).
#[derive(Debug, Clone)]
pub struct AdmissionBenchPoint {
    /// Which workload shape this point ran.
    pub scenario: &'static str,
    /// In-flight admission depth (0 labels the serial baseline, which runs
    /// at depth 1).
    pub depth: usize,
    /// Windows committed (= epochs published).
    pub windows: u64,
    /// Windows committed inside concurrent groups of two or more.
    pub admitted_concurrent: u64,
    /// Footprint conflicts detected while staging.
    pub conflicts: u64,
    /// Windows that joined an already non-empty staged group.
    pub merged: u64,
    /// Windows serialized behind a conflicting in-flight group.
    pub serialized: u64,
    /// Wall-clock time from first submit to drained shutdown.
    pub elapsed: Duration,
    /// Bit-parity violations against the serial baseline: differing
    /// per-window commit stamps or a diverged final store. Must be zero —
    /// [`run_admission_bench`] also panics on any.
    pub parity_violations: u64,
}

/// Result of [`run_admission_bench`]: the serial baseline plus every
/// admission depth, for each scenario.
#[derive(Debug, Clone)]
pub struct AdmissionBenchReport {
    /// Measured points, grouped by scenario in depth order (serial first).
    pub points: Vec<AdmissionBenchPoint>,
}

impl AdmissionBenchReport {
    /// Total windows committed inside concurrent groups, across all points.
    pub fn admitted_concurrent(&self) -> u64 {
        self.points.iter().map(|p| p.admitted_concurrent).sum()
    }

    /// Total bit-parity violations across all points (must be zero).
    pub fn parity_violations(&self) -> u64 {
        self.points.iter().map(|p| p.parity_violations).sum()
    }

    /// The `BENCH_admission.json` artifact (hand-rolled: the offline serde
    /// shim has no serialiser).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"serve_admission_bench\",\n");
        out.push_str(&format!("  {},\n", ripple_tensor::simd::env_json_fields()));
        out.push_str(&format!(
            "  \"admitted_concurrent\": {},\n",
            self.admitted_concurrent()
        ));
        out.push_str(&format!(
            "  \"parity_violations\": {},\n",
            self.parity_violations()
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"scenario\": \"{}\",\n", p.scenario));
            out.push_str(&format!("      \"depth\": {},\n", p.depth));
            out.push_str(&format!("      \"windows\": {},\n", p.windows));
            out.push_str(&format!(
                "      \"admitted_concurrent\": {},\n",
                p.admitted_concurrent
            ));
            out.push_str(&format!("      \"conflicts\": {},\n", p.conflicts));
            out.push_str(&format!("      \"merged\": {},\n", p.merged));
            out.push_str(&format!("      \"serialized\": {},\n", p.serialized));
            out.push_str(&format!(
                "      \"elapsed_ms\": {:.3},\n",
                p.elapsed.as_secs_f64() * 1e3
            ));
            out.push_str(&format!(
                "      \"parity_violations\": {}\n",
                p.parity_violations
            ));
            out.push_str(if i + 1 == self.points.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl std::fmt::Display for AdmissionBenchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>16} {:>6} {:>8} {:>9} {:>10} {:>7} {:>11} {:>11} {:>7}",
            "scenario",
            "depth",
            "windows",
            "admitted",
            "conflicts",
            "merged",
            "serialized",
            "elapsed ms",
            "parity"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>16} {:>6} {:>8} {:>9} {:>10} {:>7} {:>11} {:>11.2} {:>7}",
                p.scenario,
                p.depth,
                p.windows,
                p.admitted_concurrent,
                p.conflicts,
                p.merged,
                p.serialized,
                p.elapsed.as_secs_f64() * 1e3,
                if p.parity_violations == 0 {
                    "ok"
                } else {
                    "FAIL"
                },
            )?;
        }
        Ok(())
    }
}

/// One admission-bench workload: a bootstrap spine plus the update stream
/// and the window size that shapes its footprints.
struct AdmissionScenario {
    name: &'static str,
    graph: DynamicGraph,
    model: ripple_gnn::GnnModel,
    store: ripple_gnn::EmbeddingStore,
    updates: Vec<GraphUpdate>,
    max_batch: usize,
}

/// What one serial or admission run leaves behind for bit-comparison.
struct AdmissionRun {
    store: ripple_gnn::EmbeddingStore,
    stamps: Vec<(u64, u64, u64, u64)>,
    metrics: MetricsReport,
    elapsed: Duration,
}

fn run_admission_mode(scenario: &AdmissionScenario, depth: usize) -> AdmissionRun {
    let engine = RippleEngine::new(
        scenario.graph.clone(),
        scenario.model.clone(),
        scenario.store.clone(),
        RippleConfig::default(),
    )
    .expect("bench engine");
    let config = ServeConfig::builder()
        .max_batch(scenario.max_batch)
        .max_delay(Duration::from_secs(60))
        .record_batches(true)
        .concurrent_admission(depth)
        .build()
        .unwrap();
    let handle = spawn(engine, config).expect("bench session");
    let client = handle.client();
    let started = Instant::now();
    for update in &scenario.updates {
        client.submit(update.clone());
    }
    handle.flush().expect("bench scheduler alive");
    let elapsed = started.elapsed();
    let stamps = handle
        .flush_log()
        .expect("record_batches on")
        .snapshot()
        .into_iter()
        .map(|r| (r.window_seq, r.epoch, r.applied_seq, r.topology_epoch))
        .collect();
    let metrics = handle.metrics().report();
    let engine = handle.shutdown().expect("bench shutdown");
    AdmissionRun {
        store: engine.store().clone(),
        stamps,
        metrics,
        elapsed,
    }
}

/// Disconnected ring blocks: consecutive windows touch different
/// components, so footprints are pairwise disjoint and groups fill to the
/// in-flight cap — the best case for concurrent admission.
fn disjoint_blocks_scenario(seed: u64) -> AdmissionScenario {
    const BLOCKS: usize = 16;
    const PER: usize = 8;
    const DIM: usize = 8;
    const MAX_BATCH: usize = 4;
    let mut edges = Vec::new();
    for b in 0..BLOCKS {
        for i in 0..PER {
            edges.push((
                VertexId((b * PER + i) as u32),
                VertexId((b * PER + (i + 1) % PER) as u32),
            ));
        }
    }
    let graph = DynamicGraph::from_edges(BLOCKS * PER, DIM, &edges).expect("block graph");
    let model = Workload::GcS
        .build_model(DIM, 16, 4, 2, seed ^ 0xAD)
        .expect("bench model");
    let store = full_inference(&graph, &model).expect("bench bootstrap");
    let mut updates = Vec::new();
    for round in 0..4usize {
        for b in 0..BLOCKS {
            for j in 0..MAX_BATCH {
                updates.push(GraphUpdate::update_feature(
                    VertexId((b * PER + j) as u32),
                    vec![(round * BLOCKS + b + j) as f32 * 0.015_625; DIM],
                ));
            }
        }
    }
    AdmissionScenario {
        name: "disjoint-blocks",
        graph,
        model,
        store,
        updates,
        max_batch: MAX_BATCH,
    }
}

/// Hub churn: every window rewrites one hub vertex (plus a pseudorandom
/// bystander), so staged groups conflict with the very next window — the
/// worst case, where admission must serialize and still stay bit-exact.
fn hub_churn_scenario(seed: u64) -> AdmissionScenario {
    const DIM: usize = 8;
    let graph = DatasetSpec::custom(240, 4.0, DIM, 4)
        .generate(seed)
        .expect("hub graph");
    let model = Workload::GcS
        .build_model(DIM, 16, 4, 2, seed ^ 0xBE)
        .expect("bench model");
    let store = full_inference(&graph, &model).expect("bench bootstrap");
    let n = graph.num_vertices() as u64;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let updates = (0..192u64)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            if i % 2 == 0 {
                GraphUpdate::update_feature(VertexId(0), vec![(r % 16) as f32 * 0.0625; DIM])
            } else {
                GraphUpdate::update_feature(
                    VertexId((r % n) as u32),
                    vec![(r % 8) as f32 * 0.125; DIM],
                )
            }
        })
        .collect();
    AdmissionScenario {
        name: "hub-churn",
        graph,
        model,
        store,
        updates,
        max_batch: 4,
    }
}

/// Benchmarks footprint-based concurrent admission against the serial
/// pipeline on a best-case (disjoint blocks) and worst-case (hub churn)
/// stream, at in-flight depths 1, 2 and 4. Every depth is bit-compared
/// against the serial baseline: per-window commit stamps and the final
/// store must match exactly.
///
/// # Panics
///
/// Panics on setup failures, on any bit-parity violation, and if the
/// disjoint-blocks scenario fails to admit a single concurrent group at
/// depth >= 2 (the machinery the benchmark exists to measure).
pub fn run_admission_bench(seed: u64) -> AdmissionBenchReport {
    let mut points = Vec::new();
    for scenario in [disjoint_blocks_scenario(seed), hub_churn_scenario(seed)] {
        let serial = run_admission_mode(&scenario, 0);
        points.push(AdmissionBenchPoint {
            scenario: scenario.name,
            depth: 0,
            windows: serial.metrics.epochs,
            admitted_concurrent: 0,
            conflicts: 0,
            merged: 0,
            serialized: 0,
            elapsed: serial.elapsed,
            parity_violations: 0,
        });
        for depth in [1usize, 2, 4] {
            let run = run_admission_mode(&scenario, depth);
            let mut violations = 0u64;
            if run.stamps != serial.stamps {
                violations += 1;
            }
            if run.store != serial.store {
                violations += 1;
            }
            assert_eq!(
                violations, 0,
                "{} depth {depth}: admission diverged from the serial pipeline",
                scenario.name
            );
            if scenario.name == "disjoint-blocks" && depth >= 2 {
                assert!(
                    run.metrics.admitted_concurrent > 0,
                    "disjoint windows at depth {depth} must form concurrent groups"
                );
            }
            points.push(AdmissionBenchPoint {
                scenario: scenario.name,
                depth,
                windows: run.metrics.epochs,
                admitted_concurrent: run.metrics.admitted_concurrent,
                conflicts: run.metrics.conflicts,
                merged: run.metrics.merged,
                serialized: run.metrics.serialized,
                elapsed: run.elapsed,
                parity_violations: violations,
            });
        }
    }
    AdmissionBenchReport { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> LoadgenConfig {
        LoadgenConfig {
            vertices: 150,
            avg_degree: 4.0,
            feature_dim: 6,
            classes: 4,
            updates: 40,
            readers: 2,
            serve: ServeConfig::builder().max_batch(8).build().unwrap(),
            ..Default::default()
        }
    }

    #[test]
    fn tiny_run_upholds_the_serving_contract() {
        let report = run_loadgen(&tiny_config());
        assert!(report.contract_upheld(), "{report}");
        // The stream builder may produce slightly fewer updates than asked;
        // every offered update must have been accepted and applied.
        assert!(report.updates_offered >= 30);
        assert_eq!(report.metrics.applied, report.updates_offered as u64);
        assert!(report.epochs >= 1);
        assert!(report.reads > 0, "readers must have been served");
        assert!(report.read_p99 >= report.read_p50);
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"serve_loadgen\""));
        assert!(json.contains("\"contract_upheld\": true"));
        assert!(report.to_string().contains("contract"));
    }

    #[test]
    fn parallel_engine_runs_behind_the_scheduler() {
        let config = LoadgenConfig {
            engine_threads: 2,
            updates: 24,
            ..tiny_config()
        };
        let report = run_loadgen(&config);
        assert!(report.contract_upheld(), "{report}");
        assert_eq!(report.engine_threads, 2);
        assert_eq!(report.metrics.applied, report.updates_offered as u64);
    }

    #[test]
    fn approx_read_mode_upholds_the_serving_contract() {
        let config = LoadgenConfig {
            read_mode: ReadMode::Approx { nprobe: 4 },
            ..tiny_config()
        };
        let report = run_loadgen(&config);
        assert!(report.contract_upheld(), "{report}");
        assert!(report.reads > 0, "readers must have been served");
    }

    #[test]
    fn tiny_topk_bench_measures_both_modes() {
        let report = run_topk_bench(&[400], 7);
        assert_eq!(report.points.len(), 1);
        let p = &report.points[0];
        assert_eq!(p.vertices, 400);
        assert!(p.recall_at_10 >= 0.95);
        assert_eq!(p.index.rebuilds, 0);
        assert!(p.index.repairs > 0);
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"serve_topk_bench\""));
        assert!(json.contains("\"recall_at_10\""));
        assert!(report.to_string().contains("recall@10"));
    }

    #[test]
    fn tiny_nprobe_sweep_traces_the_recall_curve() {
        let report = run_nprobe_sweep(400, 10, &[1, 4, usize::MAX], 7);
        assert_eq!(report.points.len(), 3);
        assert!(report.clusters >= 1);
        // Probing everything visits every row: recall must be perfect, and
        // the curve is non-decreasing in nprobe (same drained snapshot).
        let last = report.points.last().unwrap();
        assert!(
            (last.recall - 1.0).abs() < 1e-9,
            "full probe must reach recall 1.0: {}",
            last.recall
        );
        assert!(report.points[0].recall <= last.recall + 1e-9);
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"serve_nprobe_sweep\""));
        assert!(json.contains("\"recall\""));
        assert!(report.to_string().contains("nprobe"));
    }

    #[test]
    fn admission_bench_admits_concurrently_with_zero_parity_violations() {
        let report = run_admission_bench(7);
        assert_eq!(report.parity_violations(), 0);
        assert!(
            report.admitted_concurrent() > 0,
            "the disjoint-blocks scenario must form concurrent groups: {report}"
        );
        let hub_conflicts: u64 = report
            .points
            .iter()
            .filter(|p| p.scenario == "hub-churn" && p.depth >= 2)
            .map(|p| p.conflicts)
            .sum();
        assert!(
            hub_conflicts > 0,
            "hub churn at depth >= 2 must detect conflicts: {report}"
        );
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"serve_admission_bench\""));
        assert!(json.contains("\"parity_violations\": 0"));
        assert!(report.to_string().contains("disjoint-blocks"));
    }

    #[test]
    fn sharded_run_upholds_the_serving_contract() {
        let config = LoadgenConfig {
            shards: 2,
            ..tiny_config()
        };
        let report = run_loadgen(&config);
        assert!(report.contract_upheld(), "{report}");
        assert_eq!(report.shards, 2);
        // A cross-shard edge update is routed (and applied) at both owners,
        // so `applied` can exceed the raw offered count — but it must match
        // the routed count exactly once the tier quiesces.
        assert_eq!(report.metrics.applied, report.metrics.enqueued);
        assert!(report.metrics.applied >= report.updates_offered as u64);
        assert!(report.epochs >= 1);
        assert!(report.reads > 0, "readers must have been served");
        assert!(report.to_json().contains("\"shards\": 2"));
    }
}
