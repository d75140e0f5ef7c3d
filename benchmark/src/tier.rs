//! The end-to-end half: drives the real serving tier through its stable
//! public surface (`spawn`, `UpdateClient::submit`, `ServeHandle::flush`,
//! `QueryService`, `ServeHandle::shutdown`) in a closed loop with one client
//! and one runnable thread at a time.
//!
//! A *burst* submits `64·B` updates and then blocks in `flush()` until their
//! epoch is published; `max_delay` is at its cap, so windows close on size or
//! flush only and every window boundary, coalescing decision, epoch and
//! count is a pure function of `--seed`. A *round* is the workload's write
//! bursts followed by its read block. Every timing metric is the tenth
//! percentile over measured rounds of the round's own statistic (see
//! [`over_rounds`]).

use crate::gen::{generate_graph, Probes, StreamGen};
use crate::stats::{lower_decile, max, median};
use crate::workloads::{WorkloadSpec, POINT_BLOCK, PROBE_POOL, TOP_K, WINDOW};
use ripple_core::{RippleConfig, RippleEngine};
use ripple_gnn::layer_wise::full_inference;
use ripple_gnn::GnnModel;
use ripple_graph::{DynamicGraph, GraphUpdate, VertexId};
use ripple_serve::{
    spawn, DurabilityConfig, FsyncPolicy, QueryService, ServeConfig, ServeError, ServeHandle,
    Submission, TopKRequest, UpdateClient,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Seed of the dataset (bootstrap graph) and of the model weights. They are
/// the workload's fixed artifacts — the paper's setting is a given dataset
/// and a trained model under varying traffic — so `--seed` draws the update
/// stream and the read probes, not these. (Measured: redrawing graph and
/// weights per seed moved `updates_per_s` by 13 % and approximate top-k
/// latency by 43 % between seeds, which is a different workload each time,
/// not run-to-run noise.)
pub const DATASET_SEED: u64 = 1;

/// Everything a run feeds the program, made before the clock starts.
#[derive(Debug)]
pub struct Inputs {
    /// The workload being run.
    pub spec: WorkloadSpec,
    /// The seed the inputs were made from.
    pub seed: u64,
    /// Bootstrap graph.
    pub graph: DynamicGraph,
    /// Model (weights from the seed).
    pub model: GnnModel,
    /// The whole update stream: `rounds` rounds, then the untimed tail.
    pub stream: Vec<GraphUpdate>,
    /// Rounds in `stream`, warm-up included.
    pub rounds: usize,
    /// Time the generator took (a note; not part of `setup_s`).
    pub gen_ms: f64,
}

impl Inputs {
    /// Generates the inputs of `rounds` rounds of `spec` from `seed`.
    pub fn generate(spec: &WorkloadSpec, seed: u64, rounds: usize) -> Inputs {
        let started = Instant::now();
        let graph = generate_graph(&spec.graph, DATASET_SEED);
        let model = spec
            .model
            .workload
            .build_model(
                spec.graph.feature_dim,
                spec.model.hidden,
                spec.model.classes,
                spec.model.layers,
                DATASET_SEED ^ 0x006d_6f64_656c,
            )
            .expect("workload model shapes are positive");
        let updates =
            rounds * spec.updates_per_round() + spec.tail_bursts() * spec.updates_per_burst();
        let stream = StreamGen::new(&graph, spec.stream, seed).take(updates);
        Inputs {
            spec: *spec,
            seed,
            graph,
            model,
            stream,
            rounds,
            gen_ms: started.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// WAL/checkpoint scratch under `benchmark/target/tmp/<pid>-<n>`, removed
/// when dropped — also on a failed gate or a panic unwinding through `run`.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

/// The benchmark package's own directory: where `cargo run` says it is, or
/// where it was when the binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

impl Scratch {
    /// A fresh, empty scratch directory.
    pub fn new() -> std::io::Result<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let root = package_dir().join("target").join("tmp").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A (not yet created) directory of the given name inside the scratch.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The tier configuration of a workload. `dir` is the durability directory
/// (used iff the workload is durable); `record` turns on
/// `record_batches(true)`, the only tier difference of a traced run.
pub fn serve_config(spec: &WorkloadSpec, dir: &Path, record: bool) -> ServeConfig {
    let mut builder = ServeConfig::builder()
        .max_batch(WINDOW)
        .max_delay(ServeConfig::MAX_DELAY)
        .queue_capacity(2 * spec.updates_per_burst())
        .record_batches(record);
    if let Some(every) = spec.checkpoint_every {
        builder = builder.durability(
            DurabilityConfig::new(dir)
                .fsync(FsyncPolicy::Always)
                .checkpoint_every(every),
        );
    }
    if let Some(depth) = spec.admission {
        builder = builder.concurrent_admission(depth);
    }
    builder.build().expect("workload tier configs are valid")
}

/// A spawned tier and what it cost to get its first read.
#[derive(Debug)]
pub struct Session {
    /// The running tier.
    pub handle: ServeHandle<RippleEngine>,
    /// Inputs in memory → first successful read.
    pub setup_s: f64,
    /// The `full_inference` share of `setup_s`.
    pub full_inference_ms: f64,
    /// The `spawn` share of `setup_s` (index bootstrap, empty-dir recovery).
    pub spawn_ms: f64,
}

/// The serial engine every session starts from (threads = 1, unsharded),
/// with the instant its construction began and the `full_inference` share.
/// The input clones the program gets to own are made before the clock
/// starts.
pub fn bootstrap_engine(inputs: &Inputs) -> Result<(RippleEngine, Instant, f64), String> {
    let graph = inputs.graph.clone();
    let model = inputs.model.clone();
    let started = Instant::now();
    let store = full_inference(&graph, &model).map_err(|e| format!("full_inference: {e}"))?;
    let full_inference_ms = started.elapsed().as_secs_f64() * 1e3;
    let engine = RippleEngine::new(graph, model, store, RippleConfig::default())
        .map_err(|e| format!("RippleEngine::new: {e}"))?;
    Ok((engine, started, full_inference_ms))
}

/// Bootstraps one session: `full_inference` + `RippleEngine::new` + `spawn`
/// + one `read_label`.
pub fn bootstrap(inputs: &Inputs, config: ServeConfig) -> Result<Session, String> {
    let (engine, started, full_inference_ms) = bootstrap_engine(inputs)?;
    let spawning = Instant::now();
    let handle = spawn(engine, config).map_err(|e| format!("spawn: {e}"))?;
    let spawn_ms = spawning.elapsed().as_secs_f64() * 1e3;
    handle
        .query_service()
        .read_label(VertexId(0))
        .map_err(|e| format!("first read: {e}"))?;
    Ok(Session {
        handle,
        setup_s: started.elapsed().as_secs_f64(),
        full_inference_ms,
        spawn_ms,
    })
}

/// Operation counts of a tier phase: what `attempted` and `failed` are made
/// of, plus the cross-checks the gate reads.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpCounts {
    /// Updates handed to `submit`.
    pub submitted: u64,
    /// `Submission::Shed` or `Submission::Closed` outcomes.
    pub refused: u64,
    /// Reads issued (warm-up pass included).
    pub reads: u64,
    /// Reads that returned `Err`.
    pub read_errors: u64,
    /// Bursts whose `flush()` epoch was not "one epoch per window".
    pub epoch_skips: u64,
    /// Approx/exact pairs compared.
    pub topk_pairs: u64,
    /// Pairs whose common ids carried different score bits, or that were
    /// served at different epochs.
    pub score_mismatches: u64,
}

/// What one read block measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadSample {
    /// Per-op `read_embedding` time: median over the round's 64-read blocks.
    pub point_ns: f64,
    /// Per-op `read_label` time over one 64-read block.
    pub label_ns: f64,
    /// Every timed approximate top-k read, µs.
    pub approx_us: Vec<f64>,
    /// Every timed exact top-k read, µs.
    pub exact_us: Vec<f64>,
    /// Σ |approx ∩ exact| over the round's pairs.
    pub recall_hits: u64,
    /// Pairs compared this round.
    pub recall_pairs: u64,
}

/// What one round measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundSample {
    /// Σ burst lag: the round's write time.
    pub write_ns: u64,
    /// Σ time inside the `submit` loops.
    pub submit_ns: u64,
    /// Per burst: first `submit` → `flush()` returns the epoch holding the
    /// burst's last update.
    pub burst_lag_ns: Vec<u64>,
    /// The read block.
    pub reads: ReadSample,
    /// Whole round, reads included.
    pub round_ns: u64,
}

/// The closed-loop client of one session; it owns the session's handle.
pub struct Tier {
    spec: WorkloadSpec,
    handle: ServeHandle<RippleEngine>,
    client: UpdateClient,
    probes: Probes,
    epoch: u64,
    /// Operation counts so far.
    pub counts: OpCounts,
}

impl Tier {
    /// A client for `handle`, with read probes made from `seed`.
    pub fn new(spec: &WorkloadSpec, handle: ServeHandle<RippleEngine>, seed: u64) -> Self {
        Tier {
            spec: *spec,
            client: handle.client(),
            handle,
            probes: Probes::new(
                spec.graph.vertices,
                spec.model.classes,
                PROBE_POOL,
                DATASET_SEED,
                seed,
            ),
            epoch: 0,
            counts: OpCounts::default(),
        }
    }

    fn session_error(&self, what: &str) -> String {
        match self.handle.failure() {
            Some(e) => format!("{what}: the scheduler stopped: {e}"),
            None => format!("{what}: the scheduler stopped"),
        }
    }

    /// One burst: submit `64·B` updates, block in `flush()`. Returns
    /// `(lag_ns, submit_ns)`.
    fn burst(
        &mut self,
        updates: &mut impl Iterator<Item = GraphUpdate>,
    ) -> Result<(u64, u64), String> {
        let started = Instant::now();
        for _ in 0..self.spec.updates_per_burst() {
            let update = updates.next().ok_or("the generated stream ran out")?;
            self.counts.submitted += 1;
            match self.client.submit(update) {
                Submission::Enqueued { .. } => {}
                Submission::Shed => self.counts.refused += 1,
                Submission::Closed => {
                    self.counts.refused += 1;
                    return Err(self.session_error("submit"));
                }
            }
        }
        let submit_ns = started.elapsed().as_nanos() as u64;
        let epoch = self
            .handle
            .flush()
            .ok_or_else(|| self.session_error("flush"))?;
        let lag_ns = started.elapsed().as_nanos() as u64;
        // Every logged window publishes exactly one epoch.
        if epoch != self.epoch + self.spec.windows_per_burst as u64 {
            self.counts.epoch_skips += 1;
        }
        self.epoch = epoch;
        Ok((lag_ns, submit_ns))
    }

    fn checked<T>(&mut self, result: Result<T, ServeError>) -> Option<T> {
        self.counts.reads += 1;
        if result.is_err() {
            self.counts.read_errors += 1;
        }
        result.ok()
    }

    /// The round's read block. A fresh `QueryService` per block, dropped at
    /// its end, so no reader pins a retired snapshot or index across the
    /// next write bursts (a pinned reader costs the publisher one full-store
    /// clone; that regime is listed as not covered).
    fn read_block(&mut self, round: usize) -> ReadSample {
        let mix = self.spec.reads;
        let mut q: QueryService = self.handle.query_service();
        let mut sample = ReadSample::default();

        // Untimed warm-up pass: pulls the fresh snapshot and index into this
        // reader with one read of each kind.
        let approx: Vec<TopKRequest> = (0..mix.approx)
            .map(|i| {
                let query = self.probes.query(round, i, mix.exact).to_vec();
                TopKRequest::new(query, TOP_K).approx(mix.nprobe)
            })
            .collect();
        let exact: Vec<TopKRequest> = approx
            .iter()
            .take(mix.exact)
            .map(|r| TopKRequest::new(r.query.clone(), TOP_K))
            .collect();
        let warm = q.read_embedding(VertexId(0));
        self.checked(warm);
        for warm in approx.first().into_iter().chain(exact.first()) {
            let result = q.top_k(warm);
            self.checked(result);
        }

        let mut ids = [VertexId(0); POINT_BLOCK];
        let mut block_ns = Vec::with_capacity(mix.point / POINT_BLOCK);
        for _ in 0..mix.point / POINT_BLOCK {
            self.probes.fill_point_ids(&mut ids);
            let started = Instant::now();
            let errors = ids
                .iter()
                .filter(|&&v| black_box(q.read_embedding(v)).is_err())
                .count();
            block_ns.push(started.elapsed().as_nanos() as f64 / POINT_BLOCK as f64);
            self.counts.reads += POINT_BLOCK as u64;
            self.counts.read_errors += errors as u64;
        }
        sample.point_ns = median(&block_ns);

        self.probes.fill_point_ids(&mut ids);
        let started = Instant::now();
        let errors = ids
            .iter()
            .filter(|&&v| black_box(q.read_label(v)).is_err())
            .count();
        sample.label_ns = started.elapsed().as_nanos() as f64 / POINT_BLOCK as f64;
        self.counts.reads += POINT_BLOCK as u64;
        self.counts.read_errors += errors as u64;

        let mut approx_results = Vec::with_capacity(exact.len());
        for (i, request) in approx.iter().enumerate() {
            let started = Instant::now();
            let result = q.top_k(request);
            sample
                .approx_us
                .push(started.elapsed().as_nanos() as f64 / 1e3);
            let result = self.checked(result);
            if i < exact.len() {
                approx_results.push(result);
            }
        }
        for (request, approx_result) in exact.iter().zip(approx_results) {
            let started = Instant::now();
            let result = q.top_k(request);
            sample
                .exact_us
                .push(started.elapsed().as_nanos() as f64 / 1e3);
            let (Some(exact_result), Some(approx_result)) = (self.checked(result), approx_result)
            else {
                continue;
            };
            // Scores come from the same snapshot on both paths, so every id
            // the two answers share must carry the same score bits.
            let mut identical = exact_result.epoch == approx_result.epoch;
            let mut hits = 0;
            for (v, score) in &approx_result.value {
                if let Some((_, reference)) = exact_result.value.iter().find(|(e, _)| e == v) {
                    hits += 1;
                    identical &= score.to_bits() == reference.to_bits();
                }
            }
            self.counts.topk_pairs += 1;
            self.counts.score_mismatches += u64::from(!identical);
            sample.recall_hits += hits;
            sample.recall_pairs += 1;
        }
        sample
    }

    /// One round: the workload's write bursts, then its read block.
    pub fn round(
        &mut self,
        round: usize,
        updates: &mut impl Iterator<Item = GraphUpdate>,
    ) -> Result<RoundSample, String> {
        let started = Instant::now();
        let mut sample = RoundSample::default();
        for _ in 0..self.spec.bursts_per_round {
            let (lag_ns, submit_ns) = self.burst(updates)?;
            sample.write_ns += lag_ns;
            sample.submit_ns += submit_ns;
            sample.burst_lag_ns.push(lag_ns);
        }
        sample.reads = self.read_block(round);
        sample.round_ns = started.elapsed().as_nanos() as u64;
        Ok(sample)
    }

    /// The untimed bursts after the last round.
    pub fn tail(&mut self, updates: &mut impl Iterator<Item = GraphUpdate>) -> Result<(), String> {
        for _ in 0..self.spec.tail_bursts() {
            self.burst(updates)?;
        }
        Ok(())
    }

    /// The last epoch a `flush()` returned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The session's handle (metrics, index counters, flush log).
    pub fn handle(&self) -> &ServeHandle<RippleEngine> {
        &self.handle
    }

    /// `ServeHandle::shutdown()`: stops the session and returns its engine.
    pub fn shutdown(self) -> Result<RippleEngine, String> {
        self.handle.shutdown().map_err(|e| format!("shutdown: {e}"))
    }

    /// Final-layer embeddings of 256 evenly spaced vertices as the tier
    /// serves them now (the gate compares them with the engine's store after
    /// `shutdown()`).
    pub fn served_embeddings(&mut self) -> Vec<(VertexId, Vec<f32>)> {
        let mut q = self.handle.query_service();
        let step = (self.spec.graph.vertices / PROBE_POOL).max(1);
        (0..self.spec.graph.vertices)
            .step_by(step)
            .filter_map(|v| {
                let v = VertexId(v as u32);
                let result = q.read_embedding(v);
                self.checked(result).map(|s| (v, s.value))
            })
            .collect()
    }
}

/// The estimator of every timing metric: the tenth percentile over `rounds`
/// of `stat(round)`, a time (lower = faster).
///
/// Interference on the shared box only ever slows a round down, for
/// anything from half a second to minutes. Over eight identical runs of
/// `sparse_stream` on a quiet box the median over rounds spread 5.8 % (IQR ÷
/// median), the first quartile 3.3 %, the tenth percentile 3.1 %. The tenth
/// percentile still rests on six of the fewest rounds a run may measure, and
/// it holds while a tenth of the rounds are undisturbed — with one of the
/// run's two CPUs slowed throughout and the other half the time, the first
/// quartile no longer does.
pub fn over_rounds(rounds: &[RoundSample], stat: impl Fn(&RoundSample) -> f64) -> f64 {
    lower_decile(&rounds.iter().map(stat).collect::<Vec<_>>())
}

fn ns_to_ms(values: &[u64]) -> Vec<f64> {
    values.iter().map(|&ns| ns as f64 / 1e6).collect()
}

/// The round-derived end-to-end metrics (everything but `setup_s` and
/// `peak_rss_mb`), each [`over_rounds`] of the round's own statistic; recall
/// is the mean over every timed pair.
pub fn round_metrics(spec: &WorkloadSpec, measured: &[RoundSample]) -> Vec<(&'static str, f64)> {
    let updates = spec.updates_per_round() as f64;
    let hits: u64 = measured.iter().map(|r| r.reads.recall_hits).sum();
    let pairs: u64 = measured.iter().map(|r| r.reads.recall_pairs).sum();
    vec![
        (
            "updates_per_s",
            updates / over_rounds(measured, |r| r.write_ns as f64 / 1e9),
        ),
        (
            "visible_lag_p50_ms",
            over_rounds(measured, |r| median(&ns_to_ms(&r.burst_lag_ns))),
        ),
        (
            "visible_lag_worst_ms",
            over_rounds(measured, |r| max(&ns_to_ms(&r.burst_lag_ns))),
        ),
        (
            "read_point_p50_us",
            over_rounds(measured, |r| r.reads.point_ns / 1e3),
        ),
        (
            "read_topk_approx_p50_us",
            over_rounds(measured, |r| median(&r.reads.approx_us)),
        ),
        (
            "read_topk_exact_p50_us",
            over_rounds(measured, |r| median(&r.reads.exact_us)),
        ),
        (
            "topk_recall_at_10",
            hits as f64 / (TOP_K as u64 * pairs.max(1)) as f64,
        ),
    ]
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
