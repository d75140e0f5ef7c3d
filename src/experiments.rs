//! Shared plumbing for the experiment harness binaries (`src/bin/fig*.rs`,
//! `src/bin/table3_datasets.rs`).
//!
//! Every binary regenerates one table or figure of the paper at a reduced,
//! configurable scale. The scale is controlled by the `RIPPLE_SCALE`
//! environment variable (`tiny`, `small`, `medium`); `small` is the default
//! and keeps the full Fig 9 sweep under a few minutes on a laptop while
//! preserving every qualitative trend. `EXPERIMENTS.md` records the output of
//! a `small` run next to the paper's numbers.

use crate::prelude::*;
use ripple_graph::synth::DatasetKind;

/// Experiment scale, mapped from the `RIPPLE_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few hundred vertices — used by integration tests of the binaries.
    Tiny,
    /// Thousands of vertices (default) — minutes per figure.
    Small,
    /// Tens of thousands of vertices — closer to the paper's trends, tens of
    /// minutes for the full sweep.
    Medium,
}

impl Scale {
    /// Reads the scale from `RIPPLE_SCALE` (defaults to [`Scale::Small`]).
    pub fn from_env() -> Self {
        match std::env::var("RIPPLE_SCALE")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "tiny" => Scale::Tiny,
            "medium" => Scale::Medium,
            _ => Scale::Small,
        }
    }

    /// Scaled vertex count and average in-degree for one of the paper's
    /// datasets. Dense graphs (Reddit) have their in-degree reduced along
    /// with the vertex count so that the affected-fraction behaviour is
    /// preserved without hundreds of millions of edges.
    pub fn dataset(self, kind: DatasetKind) -> DatasetSpec {
        let base = match kind {
            DatasetKind::Arxiv => DatasetSpec::arxiv_like(),
            DatasetKind::Reddit => DatasetSpec::reddit_like(),
            DatasetKind::Products => DatasetSpec::products_like(),
            DatasetKind::Papers => DatasetSpec::papers_like(),
            DatasetKind::Custom => DatasetSpec::custom(1000, 5.0, 32, 8),
        };
        match self {
            Scale::Tiny => {
                let (n, deg) = match kind {
                    DatasetKind::Arxiv => (400, 6.9),
                    DatasetKind::Reddit => (200, 20.0),
                    DatasetKind::Products => (300, 12.0),
                    DatasetKind::Papers => (500, 6.0),
                    DatasetKind::Custom => (200, 4.0),
                };
                base.scaled_to(n)
                    .with_avg_in_degree(deg)
                    .with_feature_dim(16)
            }
            Scale::Small => {
                // Vertex counts are chosen so that the L-hop neighbourhood of a
                // small batch stays well below the whole graph (the paper's
                // sparse-propagation regime); degrees of the two densest
                // graphs are reduced along with their vertex counts.
                let (n, deg, feats) = match kind {
                    DatasetKind::Arxiv => (20_000, 6.9, 64),
                    DatasetKind::Reddit => (3_000, 100.0, 64),
                    DatasetKind::Products => (12_000, 20.0, 64),
                    DatasetKind::Papers => (15_000, 10.0, 64),
                    DatasetKind::Custom => (1000, 5.0, 32),
                };
                base.scaled_to(n)
                    .with_avg_in_degree(deg)
                    .with_feature_dim(feats)
            }
            Scale::Medium => {
                let (n, deg) = match kind {
                    DatasetKind::Arxiv => (20_000, 6.9),
                    DatasetKind::Reddit => (2_000, 200.0),
                    DatasetKind::Products => (10_000, 50.5),
                    DatasetKind::Papers => (40_000, 14.5),
                    DatasetKind::Custom => (5000, 6.0),
                };
                base.scaled_to(n).with_avg_in_degree(deg)
            }
        }
    }

    /// Number of update batches replayed per experiment cell.
    pub fn batches_per_cell(self) -> usize {
        match self {
            Scale::Tiny => 3,
            Scale::Small => 5,
            Scale::Medium => 10,
        }
    }
}

/// Worker-thread count for the incremental engines, read from
/// `RIPPLE_THREADS`: a number, or `auto` for the host's available
/// parallelism (defaults to 1).
pub fn threads_from_env() -> usize {
    match std::env::var("RIPPLE_THREADS").as_deref() {
        Ok("auto") => ripple_core::WorkerPool::host_sized().threads(),
        Ok(value) => value.parse::<usize>().ok().filter(|&t| t >= 1).unwrap_or(1),
        Err(_) => 1,
    }
}

/// Full harness configuration: the experiment scale plus the engine thread
/// count used for the Ripple rows of the single-machine sweeps (Figs 9/10;
/// the remaining figures run single-threaded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Experiment scale (`RIPPLE_SCALE`).
    pub scale: Scale,
    /// Ripple engine worker threads (`RIPPLE_THREADS`, default 1).
    pub threads: usize,
}

impl HarnessConfig {
    /// Reads scale and thread count from the environment.
    pub fn from_env() -> Self {
        HarnessConfig {
            scale: Scale::from_env(),
            threads: threads_from_env(),
        }
    }
}

/// Hidden width used by every harness model (the paper does not report its
/// hidden width; 32 keeps the arithmetic light without changing any trend).
pub const HIDDEN_DIM: usize = 32;

/// One prepared experiment cell: a bootstrapped snapshot plus its update
/// stream, ready to be replayed by any strategy.
pub struct PreparedStream {
    /// The dataset specification used.
    pub spec: DatasetSpec,
    /// The initial snapshot graph.
    pub snapshot: DynamicGraph,
    /// The trained (deterministically initialised) model.
    pub model: GnnModel,
    /// Bootstrap embeddings of the snapshot.
    pub store: EmbeddingStore,
    /// The update stream batched at the requested size.
    pub batches: Vec<UpdateBatch>,
}

/// Prepares a snapshot + update stream + bootstrap embeddings for one
/// (dataset, workload, layers, batch size) cell.
///
/// # Panics
///
/// Panics on generation or inference errors — the harness binaries treat any
/// setup failure as fatal.
pub fn prepare_stream(
    spec: &DatasetSpec,
    workload: Workload,
    num_layers: usize,
    batch_size: usize,
    num_batches: usize,
    seed: u64,
) -> PreparedStream {
    let full = spec
        .generate_weighted(seed, workload.needs_edge_weights())
        .expect("dataset generation");
    let plan = build_stream(
        &full,
        &StreamConfig {
            holdout_fraction: 0.10,
            total_updates: batch_size * num_batches,
            seed: seed ^ 0xabcd,
        },
    )
    .expect("update stream");
    let model = workload
        .build_model(
            spec.feature_dim,
            HIDDEN_DIM,
            spec.num_classes,
            num_layers,
            seed ^ 0x77,
        )
        .expect("model construction");
    let store = full_inference(&plan.snapshot, &model).expect("bootstrap inference");
    let batches = plan.batches(batch_size);
    PreparedStream {
        spec: spec.clone(),
        snapshot: plan.snapshot,
        model,
        store,
        batches,
    }
}

/// The single-machine strategies compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// DGL-style layer-wise recompute (per-batch graph rebuild overhead).
    Drc,
    /// The paper's lightweight layer-wise recompute baseline.
    Rc,
    /// The Ripple incremental engine.
    Ripple,
    /// Vertex-wise recompute (DNC-style), only used by Fig 8.
    VertexWise,
}

impl Strategy {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Drc => "DRC",
            Strategy::Rc => "RC",
            Strategy::Ripple => "Ripple",
            Strategy::VertexWise => "DNC",
        }
    }
}

/// Replays a prepared stream through one strategy and returns its summary.
///
/// # Panics
///
/// Panics on engine errors — harness cells are expected to be valid.
pub fn run_strategy(prepared: &PreparedStream, strategy: Strategy) -> StreamSummary {
    run_strategy_with_threads(prepared, strategy, 1)
}

/// Like [`run_strategy`], but the Ripple strategy splits each hop across
/// `threads` workers ([`RippleEngine::with_threads`]); the other strategies
/// have no parallel variant and ignore the knob.
///
/// # Panics
///
/// Panics on engine errors — harness cells are expected to be valid.
pub fn run_strategy_with_threads(
    prepared: &PreparedStream,
    strategy: Strategy,
    threads: usize,
) -> StreamSummary {
    let graph = prepared.snapshot.clone();
    let model = prepared.model.clone();
    let store = prepared.store.clone();
    let mut engine: Box<dyn StreamingEngine> = match strategy {
        Strategy::Drc => Box::new(
            RecomputeEngine::new(graph, model, store, RecomputeConfig::drc()).expect("drc engine"),
        ),
        Strategy::Rc => Box::new(
            RecomputeEngine::new(graph, model, store, RecomputeConfig::rc()).expect("rc engine"),
        ),
        Strategy::Ripple => Box::new(
            RippleEngine::new(graph, model, store, RippleConfig::default())
                .expect("ripple engine")
                .with_threads(threads),
        ),
        Strategy::VertexWise => Box::new(ripple_core::batch::VertexWiseEngine::new(
            graph, model, store,
        )),
    };
    StreamRunner::run_to_summary(engine.as_mut(), &prepared.batches, strategy.name())
        .expect("stream processing")
}

/// Per-batch statistics for one strategy over a prepared stream (used by the
/// figures that need per-batch scatter rather than summaries, e.g. Fig 11).
///
/// # Panics
///
/// Panics on engine errors.
pub fn run_strategy_per_batch(prepared: &PreparedStream, strategy: Strategy) -> Vec<BatchStats> {
    let graph = prepared.snapshot.clone();
    let model = prepared.model.clone();
    let store = prepared.store.clone();
    let mut runner = StreamRunner::new();
    match strategy {
        Strategy::Ripple => {
            let mut e =
                RippleEngine::new(graph, model, store, RippleConfig::default()).expect("engine");
            runner.run(&mut e, &prepared.batches).expect("stream");
        }
        Strategy::Rc => {
            let mut e =
                RecomputeEngine::new(graph, model, store, RecomputeConfig::rc()).expect("engine");
            runner.run(&mut e, &prepared.batches).expect("stream");
        }
        Strategy::Drc => {
            let mut e =
                RecomputeEngine::new(graph, model, store, RecomputeConfig::drc()).expect("engine");
            runner.run(&mut e, &prepared.batches).expect("stream");
        }
        Strategy::VertexWise => {
            let mut e = ripple_core::batch::VertexWiseEngine::new(graph, model, store);
            runner.run(&mut e, &prepared.batches).expect("stream");
        }
    }
    runner.batch_stats().to_vec()
}

/// The shared sweep behind Fig 9 (2-layer, three graphs) and Fig 10 (3-layer,
/// Products): for every workload, graph and batch size, replay the same
/// stream through DRC, RC and Ripple and print throughput, median latency and
/// Ripple's speed-up over RC. The Ripple rows use `config.threads` workers.
pub fn single_machine_sweep(
    config: HarnessConfig,
    num_layers: usize,
    kinds: &[ripple_graph::synth::DatasetKind],
) {
    let scale = config.scale;
    let batch_sizes = [1usize, 10, 100, 1000];
    for &kind in kinds {
        let spec = scale.dataset(kind);
        println!("=== {} ({}-layer) ===", spec.name, num_layers);
        for workload in Workload::all() {
            println!("--- workload {workload} ---");
            println!(
                "{:<8} {:>10} {:>16} {:>18} {:>14}",
                "strategy", "batch", "thpt (up/s)", "median lat (ms)", "speedup vs RC"
            );
            for &batch_size in &batch_sizes {
                // Large batches are replayed over fewer batches to bound runtime.
                let num_batches = if batch_size >= 1000 {
                    2
                } else {
                    scale.batches_per_cell()
                };
                let prepared =
                    prepare_stream(&spec, workload, num_layers, batch_size, num_batches, 17);
                let mut rc_throughput = 0.0;
                for strategy in [Strategy::Drc, Strategy::Rc, Strategy::Ripple] {
                    let summary = run_strategy_with_threads(&prepared, strategy, config.threads);
                    if strategy == Strategy::Rc {
                        rc_throughput = summary.throughput;
                    }
                    let speedup = if strategy == Strategy::Ripple && rc_throughput > 0.0 {
                        format!("{:.1}x", summary.throughput / rc_throughput)
                    } else {
                        "-".to_string()
                    };
                    println!(
                        "{:<8} {:>10} {:>16.1} {:>18.3} {:>14}",
                        strategy.name(),
                        batch_size,
                        summary.throughput,
                        summary.median_latency.as_secs_f64() * 1e3,
                        speedup
                    );
                }
            }
        }
    }
    println!();
    println!("Expected shape (paper): Ripple > RC > DRC in throughput for every workload and");
    println!("batch size; the gap is largest on the denser graphs and larger batches.");
}

/// One row of the Fig 9 thread-scaling sweep: the Ripple engine's
/// throughput at one thread count, normalised against one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Worker threads of the Ripple engine.
    pub threads: usize,
    /// Batches processed per second.
    pub batches_per_sec: f64,
    /// Updates processed per second.
    pub updates_per_sec: f64,
    /// Throughput relative to the 1-thread [`RippleEngine`] on the same stream.
    pub speedup_vs_serial: f64,
}

/// The medium synthetic workload cell used by the thread-scaling sweep: a
/// power-law graph large enough that per-hop frontiers dwarf the pool's
/// spawn cost.
pub fn scaling_cell(scale: Scale) -> PreparedStream {
    let (n, deg, feats, batch, num_batches) = match scale {
        Scale::Tiny => (400, 5.0, 16, 50, 2),
        Scale::Small => (5_000, 8.0, 32, 200, 4),
        Scale::Medium => (20_000, 10.0, 32, 500, 5),
    };
    let spec = DatasetSpec::custom(n, deg, feats, 8);
    prepare_stream(&spec, Workload::GcS, 2, batch, num_batches, 29)
}

/// Replays the scaling cell through the 1-thread engine once (the baseline)
/// and then through [`RippleEngine::with_threads`] at every requested thread
/// count, returning one row per count.
///
/// # Panics
///
/// Panics on engine errors.
pub fn parallel_scaling_sweep(scale: Scale, thread_counts: &[usize]) -> Vec<ScalingRow> {
    let prepared = scaling_cell(scale);
    let num_batches = prepared.batches.len() as f64;
    let serial = run_strategy(&prepared, Strategy::Ripple);
    thread_counts
        .iter()
        .map(|&threads| {
            // The serial baseline doubles as the 1-thread row, so that row's
            // speedup is exactly 1.0 rather than run-to-run timing jitter.
            let summary = if threads <= 1 {
                serial.clone()
            } else {
                run_strategy_with_threads(&prepared, Strategy::Ripple, threads)
            };
            ScalingRow {
                threads,
                batches_per_sec: num_batches / summary.total_time.as_secs_f64(),
                updates_per_sec: summary.throughput,
                speedup_vs_serial: summary.throughput / serial.throughput,
            }
        })
        .collect()
}

/// Prints the thread-scaling table in the harness format.
pub fn print_scaling_rows(rows: &[ScalingRow]) {
    println!(
        "{:<8} {:>16} {:>16} {:>18}",
        "threads", "batches/s", "thpt (up/s)", "speedup vs serial"
    );
    for row in rows {
        println!(
            "{:<8} {:>16.2} {:>16.1} {:>17.2}x",
            row.threads, row.batches_per_sec, row.updates_per_sec, row.speedup_vs_serial
        );
    }
}

/// Serialises the thread-scaling rows as the `BENCH_parallel.json` artifact
/// consumed by CI, written by hand (the workspace has no serialiser).
pub fn scaling_rows_to_json(scale: Scale, rows: &[ScalingRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"fig9_parallel_scaling\",\n");
    out.push_str(&format!("  {},\n", ripple_tensor::simd::env_json_fields()));
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"workload\": \"GC-S\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"batches_per_sec\": {:.3}, \"updates_per_sec\": {:.3}, \"speedup_vs_serial\": {:.4}}}{}\n",
            row.threads,
            row.batches_per_sec,
            row.updates_per_sec,
            row.speedup_vs_serial,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints a standard experiment header with the scale in use, plus the
/// SIMD tier and core count the run will actually execute with — the two
/// facts without which its throughput numbers cannot be compared to anyone
/// else's.
pub fn print_header(title: &str, scale: Scale) {
    use ripple_tensor::simd;
    println!("==============================================================================");
    println!("{title}");
    println!("scale: {scale:?} (set RIPPLE_SCALE=tiny|small|medium to change)");
    println!(
        "simd: {} (detected {}; set RIPPLE_SIMD=scalar|avx2|auto to change), cores: {}",
        simd::active_tier(),
        simd::detected_tier(),
        simd::detected_cores()
    );
    println!("==============================================================================");
}

/// The distributed strategies compared in Figs 12 and 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistStrategy {
    /// Distributed layer-wise recompute.
    Rc,
    /// Distributed Ripple.
    Ripple,
}

impl DistStrategy {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            DistStrategy::Rc => "RC",
            DistStrategy::Ripple => "Ripple",
        }
    }
}

/// Replays a prepared stream through a distributed strategy on
/// `num_parts` partitions (LDG partitioning, 10 GbE network model) and
/// returns the per-stream summary.
///
/// # Panics
///
/// Panics on partitioning or engine errors.
pub fn run_distributed(
    prepared: &PreparedStream,
    strategy: DistStrategy,
    num_parts: usize,
) -> DistSummary {
    let partitioning = LdgPartitioner::new()
        .partition(&prepared.snapshot, num_parts)
        .expect("partitioning");
    let network = NetworkModel::ten_gbe();
    let mut stats = Vec::with_capacity(prepared.batches.len());
    match strategy {
        DistStrategy::Ripple => {
            let mut engine = DistRippleEngine::new(
                &prepared.snapshot,
                prepared.model.clone(),
                &prepared.store,
                partitioning,
                network,
            )
            .expect("dist ripple engine");
            for batch in &prepared.batches {
                stats.push(engine.process_batch(batch).expect("batch"));
            }
        }
        DistStrategy::Rc => {
            let mut engine = DistRecomputeEngine::new(
                &prepared.snapshot,
                prepared.model.clone(),
                &prepared.store,
                partitioning,
                network,
            )
            .expect("dist rc engine");
            for batch in &prepared.batches {
                stats.push(engine.process_batch(batch).expect("batch"));
            }
        }
    }
    DistSummary::from_stats(
        format!("dist-{}", strategy.name().to_lowercase()),
        num_parts,
        &stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_graph::synth::DatasetKind;

    #[test]
    fn distributed_helper_runs_both_strategies() {
        let spec = Scale::Tiny.dataset(DatasetKind::Papers);
        let prepared = prepare_stream(&spec, Workload::GcS, 2, 5, 2, 9);
        let ripple = run_distributed(&prepared, DistStrategy::Ripple, 3);
        let rc = run_distributed(&prepared, DistStrategy::Rc, 3);
        assert_eq!(ripple.total_updates, rc.total_updates);
        assert_eq!(ripple.num_parts, 3);
        assert!(ripple.throughput > 0.0);
        assert_eq!(DistStrategy::Rc.name(), "RC");
        assert_eq!(DistStrategy::Ripple.name(), "Ripple");
    }

    #[test]
    fn scale_from_env_defaults_to_small() {
        // The test environment does not set RIPPLE_SCALE.
        assert_eq!(Scale::from_env(), Scale::Small);
    }

    #[test]
    fn tiny_datasets_are_tiny() {
        let spec = Scale::Tiny.dataset(DatasetKind::Products);
        assert!(spec.num_vertices <= 500);
        assert!(spec.feature_dim <= 16);
        assert_eq!(spec.kind, DatasetKind::Products);
    }

    #[test]
    fn prepared_stream_is_consistent() {
        let spec = Scale::Tiny.dataset(DatasetKind::Arxiv);
        let prepared = prepare_stream(&spec, Workload::GcS, 2, 5, 2, 1);
        assert_eq!(prepared.batches.len(), 2);
        assert_eq!(prepared.model.num_layers(), 2);
        assert_eq!(
            prepared.store.num_vertices(),
            prepared.snapshot.num_vertices()
        );
    }

    #[test]
    fn strategies_run_and_agree() {
        let spec = Scale::Tiny.dataset(DatasetKind::Custom);
        let prepared = prepare_stream(&spec, Workload::GcS, 2, 5, 2, 3);
        let ripple = run_strategy(&prepared, Strategy::Ripple);
        let rc = run_strategy(&prepared, Strategy::Rc);
        assert_eq!(ripple.total_updates, rc.total_updates);
        assert!(ripple.throughput > 0.0);
        let per_batch = run_strategy_per_batch(&prepared, Strategy::Ripple);
        assert_eq!(per_batch.len(), 2);
    }

    #[test]
    fn parallel_ripple_strategy_agrees_with_serial() {
        let spec = Scale::Tiny.dataset(DatasetKind::Custom);
        let prepared = prepare_stream(&spec, Workload::GcS, 2, 5, 2, 3);
        let serial = run_strategy(&prepared, Strategy::Ripple);
        let parallel = run_strategy_with_threads(&prepared, Strategy::Ripple, 4);
        assert_eq!(serial.total_updates, parallel.total_updates);
        assert_eq!(serial.mean_affected_final, parallel.mean_affected_final);
        assert_eq!(serial.total_aggregate_ops, parallel.total_aggregate_ops);
    }

    #[test]
    fn scaling_sweep_produces_one_row_per_thread_count() {
        let rows = parallel_scaling_sweep(Scale::Tiny, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].threads, 1);
        assert_eq!(rows[1].threads, 2);
        for row in &rows {
            assert!(row.batches_per_sec > 0.0);
            assert!(row.updates_per_sec > 0.0);
            assert!(row.speedup_vs_serial > 0.0);
        }
        let json = scaling_rows_to_json(Scale::Tiny, &rows);
        assert!(json.contains("\"experiment\": \"fig9_parallel_scaling\""));
        assert!(json.contains("\"scale\": \"Tiny\""));
        assert!(json.contains("\"threads\": 2"));
        print_scaling_rows(&rows);
    }

    #[test]
    fn harness_config_mirrors_env_readers() {
        let config = HarnessConfig::from_env();
        assert_eq!(config.scale, Scale::from_env());
        assert_eq!(config.threads, threads_from_env());
        // Only assert the default when the knob is genuinely unset, so the
        // suite stays green under `RIPPLE_THREADS=n cargo test`.
        if std::env::var("RIPPLE_THREADS").is_err() {
            assert_eq!(config.threads, 1);
        }
    }

    #[test]
    fn strategy_names_match_paper() {
        assert_eq!(Strategy::Drc.name(), "DRC");
        assert_eq!(Strategy::Rc.name(), "RC");
        assert_eq!(Strategy::Ripple.name(), "Ripple");
        assert_eq!(Strategy::VertexWise.name(), "DNC");
    }
}
