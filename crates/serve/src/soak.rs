//! Kill-and-recover chaos harness for the durable serving tier.
//!
//! [`run_soak`] drives a durable single-engine session with an adversarial
//! update stream — hub churn on the power-law head, delete-heavy phases,
//! burst/quiescent alternation — and repeatedly **kills** it by arming one
//! of the [`crate::durability`] fail points, so crashes land before, inside
//! and after the WAL/checkpoint/publish critical sections. After every kill
//! it recovers the durability directory into a fresh engine and verifies
//! the recovered graph, store and topology epoch **bit-identical** against
//! a reference engine that replayed every durable window from bootstrap.
//!
//! The two-shard bit-identity story is pinned by `tests/durability.rs`; the
//! soak's job is wall-clock adversity on one engine: many cycles, random
//! crash sites, random crash offsets, and a report
//! ([`SoakReport::to_json`], the `BENCH_soak.json` artifact) of recoveries,
//! replayed windows, recovery latency and sustained epochs/sec.
//!
//! The `serve_soak` binary is the CLI front end (`--short`,
//! `--kill-every`, `--json`); see the README's durability section for the
//! environment knobs.

use crate::durability::{
    read_wal, DurabilityConfig, FailPoints, FsyncPolicy, RecoveryReport, FP_AFTER_PUBLISH,
    FP_CKPT_MID, FP_WAL_AFTER_APPEND, FP_WAL_BEFORE_APPEND, FP_WAL_TORN_APPEND,
};
use crate::metrics::ServeMetrics;
use crate::scheduler::{spawn, ServeConfig, Submission, UpdateScheduler};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ripple_core::{RippleConfig, RippleEngine};
use ripple_gnn::layer_wise::full_inference;
use ripple_gnn::{EmbeddingStore, GnnModel, Workload};
use ripple_graph::synth::DatasetSpec;
use ripple_graph::{DynamicGraph, GraphUpdate, VertexId};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fail-point sites the harness rotates kills through — collectively
/// they land crashes before, inside and after every critical section of the
/// durability path.
const KILL_SITES: [&str; 5] = [
    FP_WAL_BEFORE_APPEND,
    FP_WAL_TORN_APPEND,
    FP_WAL_AFTER_APPEND,
    FP_AFTER_PUBLISH,
    FP_CKPT_MID,
];

/// Configuration of one soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Vertices of the synthetic power-law graph.
    pub vertices: usize,
    /// Average in-degree of the graph.
    pub avg_degree: f64,
    /// Feature width.
    pub feature_dim: usize,
    /// Output classes (= final embedding width).
    pub classes: usize,
    /// Raw updates per generated burst (one coalescing window's worth or
    /// more).
    pub updates_per_burst: usize,
    /// Coalescing size window of the driven session.
    pub max_batch: usize,
    /// Checkpoint cadence in logged windows.
    pub checkpoint_every: u64,
    /// Fsync policy of the WAL and checkpoints.
    pub fsync: FsyncPolicy,
    /// How long a session lives before the harness arms a kill.
    pub kill_every: Duration,
    /// Minimum kill-and-recover cycles before the run may stop.
    pub min_cycles: u64,
    /// Minimum wall-clock length of the run.
    pub total_duration: Duration,
    /// Durability directory (wiped at the start of the run).
    pub dir: PathBuf,
    /// Seed for the graph, the stream phases and the crash offsets.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            vertices: 1_000,
            avg_degree: 6.0,
            feature_dim: 12,
            classes: 6,
            updates_per_burst: 96,
            max_batch: 32,
            checkpoint_every: 8,
            fsync: FsyncPolicy::Always,
            kill_every: Duration::from_secs(5),
            min_cycles: 4,
            total_duration: Duration::from_secs(120),
            dir: std::env::temp_dir().join(format!("ripple-soak-{}", std::process::id())),
            seed: 42,
        }
    }
}

impl SoakConfig {
    /// The CI smoke shape (`serve_soak --short`): a small graph and a short
    /// wall-clock budget that still forces several kill-and-recover cycles.
    pub fn short() -> Self {
        SoakConfig {
            vertices: 300,
            feature_dim: 8,
            classes: 4,
            updates_per_burst: 48,
            max_batch: 16,
            checkpoint_every: 4,
            fsync: FsyncPolicy::Never,
            kill_every: Duration::from_secs(2),
            min_cycles: 2,
            total_duration: Duration::from_secs(6),
            ..Default::default()
        }
    }

    /// Applies the durability environment knobs on top of `self`:
    /// `RIPPLE_SERVE_WAL_DIR` (directory), `RIPPLE_SERVE_CKPT_EVERY`
    /// (checkpoint cadence) and `RIPPLE_SERVE_FSYNC` (`always` / `never`).
    pub fn with_env(mut self) -> Self {
        if let Ok(dir) = std::env::var("RIPPLE_SERVE_WAL_DIR") {
            if !dir.is_empty() {
                self.dir = PathBuf::from(dir);
            }
        }
        if let Ok(every) = std::env::var("RIPPLE_SERVE_CKPT_EVERY") {
            if let Ok(every) = every.parse() {
                self.checkpoint_every = every;
            }
        }
        if let Ok(policy) = std::env::var("RIPPLE_SERVE_FSYNC") {
            match policy.to_lowercase().as_str() {
                "never" => self.fsync = FsyncPolicy::Never,
                "always" => self.fsync = FsyncPolicy::Always,
                _ => {}
            }
        }
        self
    }
}

/// Result of one soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Kill-and-recover cycles completed.
    pub cycles: u64,
    /// Recoveries whose recovered state failed bit-identity verification
    /// (must be 0).
    pub verification_failures: u64,
    /// Recoveries that restored a checkpoint (vs full WAL replay).
    pub from_checkpoint: u64,
    /// WAL windows replayed across all recoveries.
    pub replayed_windows: u64,
    /// Windows durably logged over the whole run.
    pub windows_logged: u64,
    /// Torn/corrupt bytes dropped from WAL tails across all recoveries.
    pub dropped_tail_bytes: u64,
    /// Raw updates offered across all sessions.
    pub updates_offered: u64,
    /// Epochs published across all sessions.
    pub epochs: u64,
    /// Epochs per wall-clock second, sustained across kills.
    pub epochs_per_sec: f64,
    /// Mean recovery wall-clock.
    pub mean_recovery: Duration,
    /// Worst recovery wall-clock.
    pub max_recovery: Duration,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
}

impl SoakReport {
    /// `true` when every recovery reproduced the reference state bit for
    /// bit and at least the demanded number of cycles ran.
    pub fn passed(&self, min_cycles: u64) -> bool {
        self.verification_failures == 0 && self.cycles >= min_cycles
    }

    /// The `BENCH_soak.json` artifact, written by hand (the workspace has no
    /// serialiser).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"serve_soak\",\n");
        out.push_str(&format!("  {},\n", ripple_tensor::simd::env_json_fields()));
        out.push_str(&format!("  \"cycles\": {},\n", self.cycles));
        out.push_str(&format!(
            "  \"verification_failures\": {},\n",
            self.verification_failures
        ));
        out.push_str(&format!(
            "  \"from_checkpoint\": {},\n",
            self.from_checkpoint
        ));
        out.push_str(&format!(
            "  \"replayed_windows\": {},\n",
            self.replayed_windows
        ));
        out.push_str(&format!("  \"windows_logged\": {},\n", self.windows_logged));
        out.push_str(&format!(
            "  \"dropped_tail_bytes\": {},\n",
            self.dropped_tail_bytes
        ));
        out.push_str(&format!(
            "  \"updates_offered\": {},\n",
            self.updates_offered
        ));
        out.push_str(&format!("  \"epochs\": {},\n", self.epochs));
        out.push_str(&format!(
            "  \"epochs_per_sec\": {:.3},\n",
            self.epochs_per_sec
        ));
        out.push_str(&format!(
            "  \"mean_recovery_ms\": {:.3},\n",
            self.mean_recovery.as_secs_f64() * 1e3
        ));
        out.push_str(&format!(
            "  \"max_recovery_ms\": {:.3},\n",
            self.max_recovery.as_secs_f64() * 1e3
        ));
        out.push_str(&format!(
            "  \"elapsed_ms\": {:.3},\n",
            self.elapsed.as_secs_f64() * 1e3
        ));
        out.push_str(&format!(
            "  \"passed\": {}\n",
            self.verification_failures == 0
        ));
        out.push('}');
        out.push('\n');
        out
    }
}

impl std::fmt::Display for SoakReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>7} {:>9} {:>10} {:>9} {:>10} {:>10} {:>12} {:>12}",
            "cycles",
            "verified",
            "from-ckpt",
            "replayed",
            "windows",
            "epochs/s",
            "mean rec ms",
            "max rec ms"
        )?;
        writeln!(
            f,
            "{:>7} {:>9} {:>10} {:>9} {:>10} {:>10.2} {:>12.3} {:>12.3}",
            self.cycles,
            self.cycles - self.verification_failures,
            self.from_checkpoint,
            self.replayed_windows,
            self.windows_logged,
            self.epochs_per_sec,
            self.mean_recovery.as_secs_f64() * 1e3,
            self.max_recovery.as_secs_f64() * 1e3
        )?;
        write!(
            f,
            "updates offered {}; epochs {}; dropped tail bytes {}; elapsed {:.2}s; verification failures {}",
            self.updates_offered,
            self.epochs,
            self.dropped_tail_bytes,
            self.elapsed.as_secs_f64(),
            self.verification_failures
        )
    }
}

/// The adversarial stream phases the generator cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Edge churn concentrated on a fixed hub set — the power-law head,
    /// where every touched window dirties large frontiers.
    HubChurn,
    /// Mostly deletions, shrinking the edge set the run built up.
    DeleteHeavy,
    /// Uniform mixed traffic at full rate.
    Burst,
    /// A trickle with a pause, so time-window flushes and empty windows
    /// happen too.
    Quiescent,
}

const PHASES: [Phase; 4] = [
    Phase::HubChurn,
    Phase::Burst,
    Phase::DeleteHeavy,
    Phase::Quiescent,
];

/// Shadow of the durable graph state, from which only valid updates are
/// generated (no duplicate adds, no deletes of absent edges).
struct Shadow {
    n: u32,
    feature_dim: usize,
    present: HashSet<(u32, u32)>,
    edges: Vec<(u32, u32)>,
}

impl Shadow {
    fn from_graph(graph: &DynamicGraph, feature_dim: usize) -> Self {
        let n = graph.num_vertices() as u32;
        let mut present = HashSet::new();
        let mut edges = Vec::new();
        for u in 0..n {
            for v in graph.out_neighbors(VertexId(u)) {
                present.insert((u, v.0));
                edges.push((u, v.0));
            }
        }
        Shadow {
            n,
            feature_dim,
            present,
            edges,
        }
    }

    fn add(&mut self, rng: &mut SmallRng, src_pool: u32) -> Option<GraphUpdate> {
        for _ in 0..8 {
            let src = rng.gen_range(0u32..src_pool.min(self.n));
            let dst = rng.gen_range(0u32..self.n);
            if src != dst && !self.present.contains(&(src, dst)) {
                self.present.insert((src, dst));
                self.edges.push((src, dst));
                return Some(GraphUpdate::add_edge(VertexId(src), VertexId(dst)));
            }
        }
        None
    }

    fn delete(&mut self, rng: &mut SmallRng) -> Option<GraphUpdate> {
        if self.edges.is_empty() {
            return None;
        }
        let i = rng.gen_range(0..self.edges.len());
        let (src, dst) = self.edges.swap_remove(i);
        self.present.remove(&(src, dst));
        Some(GraphUpdate::delete_edge(VertexId(src), VertexId(dst)))
    }

    fn rewrite(&self, rng: &mut SmallRng, vertex_pool: u32) -> GraphUpdate {
        let v = rng.gen_range(0u32..vertex_pool.min(self.n));
        let features = (0..self.feature_dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        GraphUpdate::update_feature(VertexId(v), features)
    }

    /// One burst of valid updates under `phase`.
    fn burst(&mut self, rng: &mut SmallRng, phase: Phase, len: usize) -> Vec<GraphUpdate> {
        let hubs = 8u32;
        let len = if phase == Phase::Quiescent { 4 } else { len };
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let update = match phase {
                Phase::HubChurn => match rng.gen_range(0u32..4) {
                    0 => Some(self.rewrite(rng, hubs)),
                    1 => self.delete(rng),
                    _ => self.add(rng, hubs),
                },
                Phase::DeleteHeavy => {
                    if rng.gen_range(0u32..10) < 7 {
                        self.delete(rng)
                    } else {
                        self.add(rng, self.n)
                    }
                }
                Phase::Burst | Phase::Quiescent => match rng.gen_range(0u32..3) {
                    0 => Some(self.rewrite(rng, self.n)),
                    1 => self.delete(rng),
                    _ => self.add(rng, self.n),
                },
            };
            match update {
                Some(u) => out.push(u),
                // The pool ran dry for this op (e.g. a delete on an empty
                // edge set); fall back to a rewrite so bursts always fill.
                None => out.push(self.rewrite(rng, self.n)),
            }
        }
        out
    }
}

/// Runs the kill-and-recover soak and reports what it measured.
///
/// # Panics
///
/// Panics on harness errors (dataset generation, bootstrap inference, an
/// unreadable durability directory). Verification *failures* do not panic —
/// they are counted in the report so the binary can assert on them after
/// writing the artifact.
pub fn run_soak(config: &SoakConfig) -> SoakReport {
    let spec = DatasetSpec::custom(
        config.vertices,
        config.avg_degree,
        config.feature_dim,
        config.classes,
    );
    let graph = spec.generate(config.seed).expect("dataset generation");
    let model = Workload::GcS
        .build_model(
            config.feature_dim,
            2 * config.feature_dim,
            config.classes,
            2,
            config.seed ^ 0x77,
        )
        .expect("model construction");
    let store = full_inference(&graph, &model).expect("bootstrap inference");
    let bootstrap = |g: &DynamicGraph, m: &GnnModel, s: &EmbeddingStore| {
        RippleEngine::new(g.clone(), m.clone(), s.clone(), RippleConfig::default())
            .expect("bootstrap engine")
    };

    // Fresh durability directory: a soak run owns its state end to end.
    let _ = std::fs::remove_dir_all(&config.dir);
    let fail_points = FailPoints::new();
    let durability = DurabilityConfig::new(&config.dir)
        .checkpoint_every(config.checkpoint_every)
        .fsync(config.fsync)
        // One segment for the whole run: the reference replay below reads
        // every durable window from the start of the log, so nothing may be
        // pruned out from under it. Rotation itself is pinned by the
        // durability unit tests.
        .segment_bytes(1 << 30)
        .fail_points(fail_points.clone());
    let serve_config = ServeConfig::builder()
        .max_batch(config.max_batch)
        .durability(durability)
        .build()
        .expect("soak serve config");

    // The reference: every durable window replayed from bootstrap, advanced
    // after each kill from a read-only WAL scan. Recovery must land every
    // session bit-identical to this engine.
    let mut reference = bootstrap(&graph, &model, &store);
    let mut next_ref_window = 1u64;
    let mut shadow = Shadow::from_graph(&graph, config.feature_dim);
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x50a4_c4a0);

    let started = Instant::now();
    let mut cycles = 0u64;
    let mut verification_failures = 0u64;
    let mut from_checkpoint = 0u64;
    let mut replayed_windows = 0u64;
    let mut dropped_tail_bytes = 0u64;
    let mut updates_offered = 0u64;
    let mut epochs = 0u64;
    let mut recovery_total = Duration::ZERO;
    let mut max_recovery = Duration::ZERO;

    loop {
        // ------------------------------------------------------------------
        // Session: spawn (recovering whatever the directory holds), drive
        // adversarial phases, then arm a kill and run into it.
        // ------------------------------------------------------------------
        let handle = spawn(bootstrap(&graph, &model, &store), serve_config.clone())
            .expect("soak session must recover and spawn");
        let client = handle.client();
        let metrics = handle.metrics();
        let session_started = Instant::now();
        let mut armed = false;
        let mut phase_idx = rng.gen_range(0..PHASES.len());
        loop {
            let phase = PHASES[phase_idx % PHASES.len()];
            phase_idx += 1;
            let burst = shadow.burst(&mut rng, phase, config.updates_per_burst);
            let mut closed = false;
            for update in burst {
                updates_offered += 1;
                if client.submit(update) == Submission::Closed {
                    closed = true;
                    break;
                }
            }
            let flushed = handle.flush();
            if closed || flushed.is_none() || handle.failure().is_some() {
                break;
            }
            if phase == Phase::Quiescent {
                std::thread::sleep(Duration::from_millis(5));
            }
            if !armed && session_started.elapsed() >= config.kill_every {
                // Kill: one of the critical-section fail points, offset a
                // random number of hits into its site.
                fail_points.arm(
                    KILL_SITES[(cycles as usize) % KILL_SITES.len()],
                    rng.gen_range(0u64..3),
                );
                armed = true;
            }
        }
        fail_points.disarm_all();
        epochs += metrics.epochs();
        // The kill: abandon the poisoned session without a clean stop. The
        // typed failure is the expected outcome; a clean shutdown here
        // would mean the armed fail point never fired.
        let _ = handle.shutdown();
        cycles += 1;

        // ------------------------------------------------------------------
        // Advance the reference over the windows that became durable, then
        // resync the generator's shadow to the durable graph (updates lost
        // in the crash must not leak into later bursts).
        // ------------------------------------------------------------------
        let scan = read_wal(&config.dir).expect("scanning the soak WAL");
        for frame in &scan.frames {
            if frame.window_seq < next_ref_window {
                continue;
            }
            if !frame.batch.is_empty() {
                reference
                    .process_batch(&frame.batch)
                    .expect("reference replay of a durable window");
            }
            next_ref_window = frame.window_seq + 1;
        }
        shadow = Shadow::from_graph(reference.graph(), config.feature_dim);

        // ------------------------------------------------------------------
        // Recover-and-verify: recovery into a fresh engine must reproduce
        // the reference bit for bit.
        // ------------------------------------------------------------------
        let report: Option<RecoveryReport> = match UpdateScheduler::new(
            bootstrap(&graph, &model, &store),
            serve_config.clone(),
            Arc::new(ServeMetrics::new()),
        ) {
            Ok((scheduler, _reader)) => {
                let report = scheduler.recovery_report();
                let recovered = scheduler.into_engine();
                let identical = recovered.store() == reference.store()
                    && recovered.graph() == reference.graph()
                    && recovered.topology_epoch() == reference.topology_epoch();
                if !identical {
                    verification_failures += 1;
                }
                report
            }
            Err(_) => {
                verification_failures += 1;
                None
            }
        };
        if let Some(report) = report {
            from_checkpoint += u64::from(report.from_checkpoint);
            replayed_windows += report.replayed_windows;
            dropped_tail_bytes += report.dropped_tail_bytes;
            recovery_total += report.recovery_time;
            max_recovery = max_recovery.max(report.recovery_time);
        }

        if cycles >= config.min_cycles && started.elapsed() >= config.total_duration {
            break;
        }
    }

    let elapsed = started.elapsed();
    let _ = std::fs::remove_dir_all(&config.dir);
    SoakReport {
        cycles,
        verification_failures,
        from_checkpoint,
        replayed_windows,
        windows_logged: next_ref_window.saturating_sub(1),
        dropped_tail_bytes,
        updates_offered,
        epochs,
        epochs_per_sec: epochs as f64 / elapsed.as_secs_f64().max(1e-9),
        mean_recovery: recovery_total
            .checked_div(cycles.max(1) as u32)
            .unwrap_or(Duration::ZERO),
        max_recovery,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_soak_survives_two_kills_bit_identically() {
        let config = SoakConfig {
            vertices: 150,
            avg_degree: 5.0,
            feature_dim: 6,
            classes: 4,
            updates_per_burst: 24,
            max_batch: 8,
            checkpoint_every: 3,
            fsync: FsyncPolicy::Never,
            kill_every: Duration::from_millis(20),
            min_cycles: 2,
            total_duration: Duration::from_millis(50),
            dir: std::env::temp_dir().join(format!("ripple-soak-test-{}", std::process::id())),
            seed: 9,
        };
        let report = run_soak(&config);
        assert!(report.passed(2), "{report}");
        assert!(report.cycles >= 2);
        assert_eq!(report.verification_failures, 0);
        assert!(report.windows_logged >= 1, "kills must land after logging");
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"serve_soak\""));
        assert!(json.contains("\"passed\": true"));
        assert!(report.to_string().contains("cycles"));
    }
}
