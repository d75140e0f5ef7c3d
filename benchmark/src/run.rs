//! One benchmark run: generate inputs, set up, drive the rounds, check the
//! outputs, assemble the metrics.
//!
//! `--trace 0` measures the end-to-end metrics on an untouched tier.
//! `--trace 1` runs the same workload and seed with `record_batches(true)`,
//! replays every recorded window through the shadow commit path and reports
//! the per-layer metrics.

use crate::cpu::Cpus;
use crate::gen::StreamGen;
use crate::json::Json;
use crate::recovery::{self, stores_identical, Recovery};
use crate::shadow::{RoundAcc, Shadow, COMMIT_STAGES};
use crate::stats::{lower_decile, max, median, percentile};
use crate::tier::{
    bootstrap, bootstrap_engine, over_rounds, package_dir, peak_rss_mb, round_metrics,
    serve_config, Inputs, OpCounts, RoundSample, Scratch, Tier,
};
use crate::workloads::{Rounds, WorkloadSpec, END_TO_END, PER_LAYER};
use ripple_core::RippleEngine;
use ripple_gnn::layer_wise::full_inference;
use ripple_gnn::EmbeddingStore;
use ripple_graph::{DynamicGraph, VertexId};
use ripple_serve::{IndexStats, MetricsReport};
use std::path::{Path, PathBuf};

/// Rounds the traced tier runs before the shadow replays them.
const REPLAY_CHUNK: usize = 8;

/// Rounds an untraced run stays on one CPU before it moves to the other
/// (see `cpu.rs`): blocks of about half a second, short against the episodes
/// they are there to dodge, long against the cold caches a move costs.
const CPU_BLOCK: usize = 4;

/// Bootstraps timed per untraced run: at least `MIN_SETUPS`, then more until
/// `SETUP_BUDGET_S` seconds have gone into them or `MAX_SETUPS` are done, so
/// that a 30 ms set-up is sampled as well as a 3 s one. `setup_s` is their
/// median and the last one is the session the run uses.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload.
    pub spec: WorkloadSpec,
    /// Seed of the update stream and the point-read ids.
    pub seed: u64,
    /// How many rounds to run (`WorkloadSpec::rounds` scales them from
    /// `--seconds`).
    pub rounds: Rounds,
    /// `false`: end-to-end metrics. `true`: per-layer metrics.
    pub trace: bool,
}

/// One correctness check of the gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Result of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// `(name, value, unit)` of every metric of the run's mode.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The gate.
    pub checks: Vec<Check>,
    /// Operation counts behind `attempted` and `failed`.
    pub counts: OpCounts,
    /// Context that is not a metric: sizes, stage shares, sample counts.
    pub notes: Vec<(String, Json)>,
    /// Where the trace was written (traced runs).
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    /// Whether every check of the gate held.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.pass)
    }

    /// Updates submitted plus reads issued (at least 1).
    pub fn attempted(&self) -> u64 {
        (self.counts.submitted + self.counts.reads).max(1)
    }

    /// Refused submissions plus failed reads — or every attempted operation
    /// if the gate failed.
    pub fn failed(&self) -> u64 {
        if self.correct() {
            self.counts.refused + self.counts.read_errors
        } else {
            self.attempted()
        }
    }

    /// The value of metric `name`, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted())),
            ("failed", Json::Int(self.failed())),
            ("metrics", Json::obj(metrics)),
        ])
    }

    fn check(&mut self, name: &'static str, pass: bool, detail: String) {
        self.checks.push(Check { name, pass, detail });
    }

    fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }
}

/// Largest |a − b| over every table, as a share of that table's own scale
/// (`max(1, max|reference|)`): sum aggregation over hubs and three layers
/// reaches magnitudes where an absolute 1e-3 is below one float ulp.
fn relative_store_error(tier: &EmbeddingStore, reference: &EmbeddingStore) -> f64 {
    let table_error = |a: &[f32], b: &[f32]| {
        let scale = b.iter().fold(1.0f32, |m, x| m.max(x.abs()));
        let diff = a
            .iter()
            .zip(b)
            .fold(0.0f32, |m, (p, q)| m.max((p - q).abs()));
        f64::from(diff / scale)
    };
    let layers = reference.num_layers();
    let embeddings = (0..=layers).map(|l| {
        table_error(
            tier.embeddings(l).as_slice(),
            reference.embeddings(l).as_slice(),
        )
    });
    let aggregates = (1..=layers).map(|l| {
        table_error(
            tier.aggregates(l).as_slice(),
            reference.aggregates(l).as_slice(),
        )
    });
    embeddings.chain(aggregates).fold(0.0, f64::max)
}

/// Everything the tier phase leaves behind for the gate.
struct TierEnd {
    engine: RippleEngine,
    report: MetricsReport,
    index: IndexStats,
    served: Vec<(VertexId, Vec<f32>)>,
    epoch: u64,
}

/// The checks every run makes: applied == submitted with nothing shed, reads
/// clean, approx ≡ exact on common ids, served snapshot ≡ engine store,
/// final graph ≡ the generator's, final store ≡ `full_inference` on it.
fn gate(out: &mut Outcome, inputs: &Inputs, end: &TierEnd) {
    let counts = out.counts.clone();
    out.check(
        "every submitted update was applied, none shed",
        end.report.applied == counts.submitted
            && end.report.shed == 0
            && end.report.engine_errors == 0
            && counts.refused == 0
            && counts.epoch_skips == 0,
        format!(
            "submitted {} applied {} shed {} refused {} engine_errors {} epoch_skips {}",
            counts.submitted,
            end.report.applied,
            end.report.shed,
            counts.refused,
            end.report.engine_errors,
            counts.epoch_skips
        ),
    );
    out.check(
        "every read succeeded",
        counts.read_errors == 0 && counts.reads > 0,
        format!("reads {} errors {}", counts.reads, counts.read_errors),
    );
    out.check(
        "approx and exact top-k scores are bit-identical on common ids",
        counts.score_mismatches == 0 && counts.topk_pairs > 0,
        format!(
            "pairs {} mismatches {}",
            counts.topk_pairs, counts.score_mismatches
        ),
    );
    let store = end.engine.store();
    let stale = end
        .served
        .iter()
        .filter(|(v, served)| {
            let row = store.embedding(store.num_layers(), *v);
            row.len() != served.len()
                || row
                    .iter()
                    .zip(served)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
        })
        .count();
    out.check(
        "the served snapshot equals the engine's store",
        stale == 0 && !end.served.is_empty(),
        format!("probes {} differing {}", end.served.len(), stale),
    );

    // The reference comes from the generator alone: replay the regenerated
    // stream on a clone of the bootstrap graph, then infer from scratch.
    let mut expected: DynamicGraph = inputs.graph.clone();
    let replayed = StreamGen::new(&inputs.graph, inputs.spec.stream, inputs.seed)
        .take(counts.submitted as usize)
        .iter()
        .try_for_each(|u| expected.apply(u));
    let graph = end.engine.graph();
    let same_edges = expected.num_edges() == graph.num_edges()
        && expected.iter_edges().all(|(u, v, _)| graph.has_edge(u, v));
    let same_features = expected
        .features()
        .as_slice()
        .iter()
        .zip(graph.features().as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    out.check(
        "the final graph equals the generator's",
        replayed.is_ok() && same_edges && same_features,
        format!(
            "replay {replayed:?} edges {} vs {} same_edges {same_edges} same_features {same_features}",
            expected.num_edges(),
            graph.num_edges()
        ),
    );
    let (pass, detail) = match full_inference(&expected, &inputs.model) {
        Ok(reference) => {
            let error = relative_store_error(store, &reference);
            (
                error <= 1e-3,
                format!("max |tier - full| / max(1, max|full|) per table = {error:.3e}"),
            )
        }
        Err(e) => (false, format!("full_inference failed: {e}")),
    };
    out.check(
        "the final store matches full inference on the final graph within 1e-3",
        pass,
        detail,
    );
}

/// On a durable workload: recovers fresh copies of the live session's
/// directory, times them, and checks that what comes back is bit-identical
/// to the live engine with exactly the untimed tail replayed.
fn recover_and_gate(
    out: &mut Outcome,
    inputs: &Inputs,
    live_dir: &Path,
    end: &TierEnd,
    scratch: &Scratch,
) -> Result<Option<Recovery>, String> {
    let spec = &inputs.spec;
    if spec.checkpoint_every.is_none() {
        return Ok(None);
    }
    let (bootstrap, ..) = bootstrap_engine(inputs)?;
    let recovery = recovery::measure(spec, &bootstrap, live_dir, &end.engine, end.epoch, scratch)?;
    let tail_windows = (spec.tail_bursts() * spec.windows_per_burst) as u64;
    out.check(
        "the recovered store, graph and epoch are bit-identical to the live engine",
        recovery.identical && recovery.replayed_windows == tail_windows,
        format!(
            "replayed {} windows (expected {tail_windows}) {}",
            recovery.replayed_windows, recovery.detail
        ),
    );
    Ok(Some(recovery))
}

/// The metrics `declared` in `BENCHMARK.json` order, each with the value
/// computed for it (NaN, which fails the gate, if none was).
fn in_declared_order(
    declared: impl Iterator<Item = (&'static str, &'static str)>,
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    declared
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|v| v.0 == name)
                .map_or(f64::NAN, |v| v.1);
            (name, value, unit)
        })
        .collect()
}

/// Closes the tier phase: the untimed tail bursts, the served-embedding
/// reads, the tier's own counters, `shutdown()`, and the gate.
fn finish_tier(
    out: &mut Outcome,
    inputs: &Inputs,
    mut tier: Tier,
    updates: &mut impl Iterator<Item = ripple_graph::GraphUpdate>,
) -> Result<TierEnd, String> {
    let tail = tier.tail(updates);
    let served = tier.served_embeddings();
    out.counts = tier.counts.clone();
    tail?;
    let end = TierEnd {
        report: tier.handle().metrics().report(),
        index: tier.handle().index_stats().unwrap_or_default(),
        served,
        epoch: tier.epoch(),
        engine: tier.shutdown()?,
    };
    gate(out, inputs, &end);
    Ok(end)
}

/// Runs `opts`, alternating between `cpus`, and returns its outcome. A run
/// that cannot finish (the scheduler stopped, the disk failed) comes back
/// with a failed check.
pub fn run(opts: &Options, cpus: &mut Cpus) -> Outcome {
    let mut out = Outcome::default();
    let result = if opts.trace {
        run_traced(opts, cpus, &mut out)
    } else {
        run_untraced(opts, cpus, &mut out)
    };
    if let Err(why) = result {
        out.check("the run completed", false, why);
    }
    let finite = out.metrics.iter().all(|m| m.1.is_finite());
    out.check(
        "every metric is a finite number",
        finite,
        format!("{} metrics", out.metrics.len()),
    );
    out
}

fn run_untraced(opts: &Options, cpus: &mut Cpus, out: &mut Outcome) -> Result<(), String> {
    let spec = &opts.spec;
    let warmup = opts.rounds.warmup;
    let rounds = opts.rounds.total();
    let mut inputs = Inputs::generate(spec, opts.seed, rounds);
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;

    // Set-up: bootstrap several times, keep the last session.
    let live_dir = |i: usize| scratch.dir(&format!("live-{i}"));
    cpus.next();
    let mut session = bootstrap(&inputs, serve_config(spec, &live_dir(0), false))?;
    let mut setups = vec![session.setup_s];
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        session
            .handle
            .shutdown()
            .map_err(|e| format!("set-up session shutdown: {e}"))?;
        cpus.next();
        session = bootstrap(&inputs, serve_config(spec, &live_dir(setups.len()), false))?;
        setups.push(session.setup_s);
    }
    let live_dir = live_dir(setups.len() - 1);

    let mut updates = std::mem::take(&mut inputs.stream).into_iter();
    let (full_inference_ms, spawn_ms) = (session.full_inference_ms, session.spawn_ms);
    let mut tier = Tier::new(spec, session.handle, opts.seed);
    let mut samples: Vec<RoundSample> = Vec::with_capacity(rounds);
    for round in 0..rounds {
        if round % CPU_BLOCK == 0 {
            cpus.next();
        }
        let sample = tier.round(round, &mut updates);
        out.counts = tier.counts.clone();
        samples.push(sample?);
    }
    let rss = peak_rss_mb();
    let end = finish_tier(out, &inputs, tier, &mut updates)?;

    let measured = &samples[warmup..];
    let mut values = vec![("setup_s", median(&setups)), ("peak_rss_mb", rss)];
    values.extend(round_metrics(spec, measured));
    out.metrics = in_declared_order(END_TO_END.iter().map(|m| (m.0, m.1)), &values);

    if let Some(recovery) = recover_and_gate(out, &inputs, &live_dir, &end, &scratch)? {
        out.note("recovery_ms", Json::Num(recovery.recovery_ms));
    }
    out.note("rounds_measured", Json::Int(measured.len() as u64));
    out.note("rounds_discarded", Json::Int(warmup as u64));
    out.note(
        "round_ms_p50",
        Json::Num(median(
            &measured
                .iter()
                .map(|r| r.round_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )),
    );
    // Round time (tenth percentile) of the rounds run on each of the two CPUs:
    // shows whether a slow run was slow on both.
    let by_cpu = |parity: usize| {
        lower_decile(
            &samples
                .iter()
                .enumerate()
                .skip(warmup)
                .filter(|(round, _)| (round / CPU_BLOCK) % 2 == parity)
                .map(|(_, r)| r.round_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    out.note(
        "round_ms_p10_by_cpu",
        Json::Arr(vec![Json::Num(by_cpu(0)), Json::Num(by_cpu(1))]),
    );
    out.note("bursts_per_round", Json::Int(spec.bursts_per_round as u64));
    out.note("gen_ms", Json::Num(inputs.gen_ms));
    out.note(
        "setup_s_each",
        Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
    );
    out.note("full_inference_ms", Json::Num(full_inference_ms));
    out.note("spawn_ms", Json::Num(spawn_ms));
    out.note("windows", Json::Int(end.report.epochs));
    out.note("coalesced", Json::Int(end.report.coalesced));
    out.note("index_repairs", Json::Int(end.index.repairs));
    out.note(
        "index_clone_fallbacks",
        Json::Int(end.index.clone_fallbacks),
    );
    Ok(())
}

fn run_traced(opts: &Options, cpus: &mut Cpus, out: &mut Outcome) -> Result<(), String> {
    let spec = &opts.spec;
    let warmup = opts.rounds.warmup;
    let rounds = opts.rounds.total();
    let mut inputs = Inputs::generate(spec, opts.seed, rounds);
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let per_round = spec.updates_per_round();
    let vertices = spec.graph.vertices as f64;

    // Three sessions' worth of state, advanced chunk by chunk over the same
    // stream: an untraced baseline tier (what `bench.trace_overhead_pct`
    // compares the traced tier with), the traced tier, and the shadow. A
    // chunk is long enough that each of the three runs warm, as the tier's
    // scheduler thread does in an untraced run, and short enough that the
    // machine's slow drift cancels in the ratios taken between them. The
    // warm-up rounds are a chunk of their own.
    let base = bootstrap(&inputs, serve_config(spec, &scratch.dir("base"), false))?;
    let mut base_tier = Tier::new(spec, base.handle, opts.seed);
    let mut base_updates = inputs.stream.clone().into_iter();
    let mut base_samples: Vec<RoundSample> = Vec::with_capacity(rounds);

    let (engine0, ..) = bootstrap_engine(&inputs)?;
    let mut shadow = Shadow::new(spec, engine0, &scratch.dir("shadow"))?;
    let live_dir = scratch.dir("live");
    let session = bootstrap(&inputs, serve_config(spec, &live_dir, true))?;
    let log = session
        .handle
        .flush_log()
        .ok_or("record_batches(true) yields a flush log")?;
    let full_inference_ms = session.full_inference_ms;
    let mut tier = Tier::new(spec, session.handle, opts.seed);
    let mut updates = std::mem::take(&mut inputs.stream).into_iter();
    let mut samples: Vec<RoundSample> = Vec::with_capacity(rounds);

    let per_round_windows = spec.windows_per_round();
    let chunks: Vec<std::ops::Range<usize>> = std::iter::once(0..warmup)
        .chain(
            (warmup..rounds)
                .step_by(REPLAY_CHUNK)
                .map(|start| start..(start + REPLAY_CHUNK).min(rounds)),
        )
        .collect();
    for chunk in &chunks {
        // Tier, shadow and baseline of one chunk share a CPU: their ratios
        // are what the traced run reports.
        cpus.next();
        for round in chunk.clone() {
            let sample = tier.round(round, &mut updates);
            out.counts = tier.counts.clone();
            samples.push(sample?);
        }
        let records = log.snapshot();
        if records.len() != chunk.end * per_round_windows {
            return Err(format!(
                "{} windows recorded after {} rounds of {per_round_windows}",
                records.len(),
                chunk.end
            ));
        }
        for round in chunk.clone() {
            let windows = &records[round * per_round_windows..(round + 1) * per_round_windows];
            shadow.replay_round(windows, spec.windows_per_burst)?;
        }
        // The baseline goes last, so that tier and shadow — the pair whose
        // ratio is gated — each run right after another durable writer.
        for round in chunk.clone() {
            base_samples.push(base_tier.round(round, &mut base_updates)?);
        }
    }
    base_tier.shutdown()?;
    let end = finish_tier(out, &inputs, tier, &mut updates)?;
    let records = log.snapshot();
    let tail = &records[rounds * per_round_windows..];
    if !tail.is_empty() {
        shadow.replay_round(tail, spec.windows_per_burst)?;
    }
    let tail_rounds = shadow.rounds.len() - rounds;
    out.check(
        "the shadow pipeline's final store equals the tier's bit for bit",
        stores_identical(shadow.engine().store(), end.engine.store())
            && shadow.engine().graph() == end.engine.graph(),
        format!("windows replayed {}", records.len()),
    );
    out.check(
        "the shadow's admission decisions equal the tier's",
        shadow.conflicts == end.report.conflicts
            && shadow.merged == end.report.merged
            && shadow.admitted_concurrent == end.report.admitted_concurrent,
        format!(
            "conflicts {}/{} merged {}/{} admitted_concurrent {}/{}",
            shadow.conflicts,
            end.report.conflicts,
            shadow.merged,
            end.report.merged,
            shadow.admitted_concurrent,
            end.report.admitted_concurrent
        ),
    );

    let recovery = recover_and_gate(out, &inputs, &live_dir, &end, &scratch)?;
    let kernels = shadow.kernel_probes()?;
    let clusters = shadow.index_clusters();

    // Per-layer metrics. Times: tenth percentile over measured rounds of the
    // shadow's per-round sums. Counts: whole-run totals of the tier's own
    // counters.
    let measured = &samples[warmup..];
    let acc: &[RoundAcc] = &shadow.rounds[warmup..rounds];
    let all_acc: &[RoundAcc] = &shadow.rounds;
    let total = |name: &str| all_acc.iter().map(|r| r.get(name)).sum::<f64>();
    let windows = spec.windows_per_round() as f64;
    let engine_stages = ["engine.process_batch", "engine.process_windows"];
    // A burst is a submit phase (the client's loop, which on one CPU also
    // holds the scheduler's per-update wake-ups and coalescing) and a commit
    // phase (the rest, until `flush()` returns). The shadow models the commit
    // phase; `scheduler.submit_ns_per_update` reports the other.
    let commit_ns = |r: &RoundSample| (r.write_ns - r.submit_ns) as f64;
    let measured_chunks = || chunks.iter().filter(|c| c.start >= warmup);
    let coverage: Vec<f64> = measured_chunks()
        .map(|chunk| {
            let shadow_ns: f64 = shadow.rounds[chunk.clone()]
                .iter()
                .map(RoundAcc::commit_ns)
                .sum();
            let tier_ns: f64 = samples[chunk.clone()].iter().map(commit_ns).sum();
            shadow_ns / tier_ns
        })
        .collect();
    let overhead_pct: Vec<f64> = measured_chunks()
        .map(|chunk| {
            let write_ns = |rounds: &[RoundSample]| rounds.iter().map(|r| r.write_ns).sum::<u64>();
            let traced = write_ns(&samples[chunk.clone()]) as f64;
            (traced / write_ns(&base_samples[chunk.clone()]) as f64 - 1.0) * 100.0
        })
        .collect();
    // What the shadow does not model (queue hop, wake-up, bookkeeping). A
    // difference of two noisy times: where the shadow's stages sum to more
    // than the tier's commit phase it comes out negative, and the metric —
    // a time, lower is better — reports 0; the signed value is a note.
    let residual_ms = median(
        &measured
            .iter()
            .zip(acc)
            .map(|(tier, shadow)| (commit_ns(tier) - shadow.commit_ns()) / windows / 1e6)
            .collect::<Vec<_>>(),
    );
    let lags_ms: Vec<f64> = measured
        .iter()
        .flat_map(|r| r.burst_lag_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let approx_us: Vec<f64> = measured
        .iter()
        .flat_map(|r| r.reads.approx_us.iter().copied())
        .collect();
    let exact_us: Vec<f64> = measured
        .iter()
        .flat_map(|r| r.reads.exact_us.iter().copied())
        .collect();
    let over = |stat: &dyn Fn(&RoundSample) -> f64| over_rounds(measured, stat);
    let per = |names: &[&str], per: &str| Shadow::per(acc, names, per);
    let topk_approx_us = over(&|r| median(&r.reads.approx_us));
    let topk_exact_us = over(&|r| median(&r.reads.exact_us));
    let candidates_us = per(&["index.candidates"], "n.candidate_queries") / 1e3;
    let candidates_per_query = per(&["n.candidates"], "n.candidate_queries");
    let snapshot_load_ns = lower_decile(
        &acc.iter()
            .map(|r| r.get("versioned.snapshot_load") / 1024.0)
            .collect::<Vec<_>>(),
    );
    let (compactions, compact_ms, overlay_rows) = shadow.topology_counters();
    let buffers = shadow.buffer_stats();
    let total_windows = total("n.windows").max(1.0);
    let recovery_ms = recovery.as_ref().map_or(0.0, |r| r.recovery_ms);
    let scan_ms = recovery.as_ref().map_or(0.0, |r| r.scan_ms);

    let mut values: Vec<(&str, f64)> = vec![
        ("scheduler.windows", end.report.epochs as f64),
        ("scheduler.raw_updates", end.report.applied as f64),
        (
            "scheduler.coalesce_ratio",
            total("n.batch") / total("n.raw").max(1.0),
        ),
        (
            "scheduler.submit_ns_per_update",
            over(&|r| r.submit_ns as f64 / per_round as f64),
        ),
        ("scheduler.residual_ms_per_window", residual_ms.max(0.0)),
        ("scheduler.lag_p99_ms", percentile(&lags_ms, 0.99)),
        ("scheduler.lag_max_ms", max(&lags_ms)),
        (
            "admission.footprint_ms_per_window",
            per(&["admission.footprint"], "n.windows") / 1e6,
        ),
        (
            "admission.footprint_vertices_per_window",
            per(&["n.footprint_vertices"], "n.windows"),
        ),
        ("admission.conflicts", end.report.conflicts as f64),
        ("admission.serialized", end.report.serialized as f64),
        ("admission.merged", end.report.merged as f64),
        (
            "admission.admitted_concurrent",
            end.report.admitted_concurrent as f64,
        ),
        (
            "admission.merge_ratio",
            end.report.merged as f64 / total_windows,
        ),
        (
            "durability.encode_us_per_window",
            per(&["durability.encode"], "n.windows") / 1e3,
        ),
        (
            "durability.wal_append_us_per_window",
            per(&["durability.wal_append"], "n.windows") / 1e3,
        ),
        (
            "durability.wal_sync_ms_per_sync",
            per(&["durability.wal_sync"], "n.syncs") / 1e6,
        ),
        ("durability.wal_syncs", total("n.syncs")),
        (
            "durability.wal_bytes_per_update",
            total("n.wal_bytes") / total("n.raw").max(1.0),
        ),
        (
            "durability.checkpoint_ms",
            per(&["durability.checkpoint"], "n.checkpoints") / 1e6,
        ),
        (
            "durability.checkpoint_bytes",
            shadow.checkpoint_bytes as f64 / shadow.checkpoints.max(1) as f64,
        ),
        ("durability.checkpoints", shadow.checkpoints as f64),
        ("durability.recover_scan_ms", scan_ms),
        ("durability.replay_ms", (recovery_ms - scan_ms).max(0.0)),
        (
            "durability.replayed_windows",
            recovery.as_ref().map_or(0.0, |r| r.replayed_windows as f64),
        ),
        ("durability.recovery_ms", recovery_ms),
        (
            "engine.process_batch_ms_per_window",
            per(&engine_stages, "n.windows") / 1e6,
        ),
        (
            "engine.update_ms_per_window",
            per(&["ns.engine.update"], "n.windows") / 1e6,
        ),
        (
            "engine.propagate_ms_per_window",
            per(&["ns.engine.propagate"], "n.windows") / 1e6,
        ),
        ("engine.tree_size_per_update", per(&["n.tree"], "n.raw")),
        (
            "engine.affected_final_per_window",
            per(&["n.affected_final"], "n.windows"),
        ),
        (
            "engine.aggregate_ops_per_update",
            per(&["n.aggregate_ops"], "n.raw"),
        ),
        (
            "engine.dirty_rows_per_window",
            per(&["n.dirty_rows"], "n.windows"),
        ),
        ("engine.ns_per_tree_vertex", per(&engine_stages, "n.tree")),
        ("gnn.full_inference_ms", full_inference_ms),
        (
            "graph.snapshot_apply_ns_per_update",
            per(&["graph.snapshot_apply"], "n.topo_updates"),
        ),
        ("graph.compactions", compactions as f64),
        ("graph.compact_ms", compact_ms),
        ("graph.overlay_rows", overlay_rows as f64),
        ("index.bootstrap_ms", shadow.index_bootstrap_ms),
        (
            "index.publish_ms_per_window",
            per(&["index.publish"], "n.windows") / 1e6,
        ),
        (
            "index.rows_repaired_per_window",
            end.index.rows_repaired as f64 / end.index.repairs.max(1) as f64,
        ),
        (
            "index.rows_moved_per_window",
            end.index.rows_moved as f64 / end.index.repairs.max(1) as f64,
        ),
        ("index.repairs", end.index.repairs as f64),
        ("index.rebuilds", end.index.rebuilds as f64),
        ("index.splits", end.index.splits as f64),
        ("index.merges", end.index.merges as f64),
        ("index.buffer_reuses", end.index.buffer_reuses as f64),
        ("index.clone_fallbacks", end.index.clone_fallbacks as f64),
        ("index.clusters", clusters as f64),
        ("index.candidates_us", candidates_us),
        ("index.candidates_per_query", candidates_per_query),
        ("index.scan_fraction", candidates_per_query / vertices),
        (
            "versioned.publish_ms_per_window",
            per(&["versioned.publish"], "n.windows") / 1e6,
        ),
        (
            "versioned.rows_copied_per_window",
            buffers.rows_copied as f64 / total_windows,
        ),
        ("versioned.full_copies", buffers.copied as f64),
        ("versioned.snapshot_load_ns", snapshot_load_ns),
        ("query.point_ns", over(&|r| r.reads.point_ns)),
        ("query.label_ns", over(&|r| r.reads.label_ns)),
        ("query.topk_approx_us", topk_approx_us),
        ("query.topk_exact_us", topk_exact_us),
        (
            "query.rescore_us",
            (topk_approx_us - candidates_us - snapshot_load_ns / 1e3).max(0.0),
        ),
        ("query.exact_ns_per_row", topk_exact_us * 1e3 / vertices),
        ("query.topk_approx_p99_us", percentile(&approx_us, 0.99)),
        ("query.topk_exact_p99_us", percentile(&exact_us, 0.99)),
        ("query.reads", end.report.reads as f64),
        ("query.read_errors", out.counts.read_errors as f64),
        ("bench.rounds", measured.len() as f64),
        ("bench.round_ms_p50", over(&|r| r.round_ns as f64 / 1e6)),
        ("bench.gen_ms", inputs.gen_ms),
        ("bench.trace_coverage", median(&coverage)),
        ("bench.trace_overhead_pct", median(&overhead_pct)),
    ];
    values.extend(kernels);
    out.metrics = in_declared_order(PER_LAYER.iter().map(|m| (m.0, m.1)), &values);

    let coverage = median(&coverage);
    out.check(
        "bench.trace_coverage is within 0.85-1.15",
        (0.85..=1.15).contains(&coverage),
        format!(
            "Σ shadow stage time ÷ tier commit-phase time, median over replay chunks = {coverage:.4}"
        ),
    );

    // Where a round's time goes: each commit stage's and the read block's
    // share of the tier's round, median over measured rounds.
    let mut shares: Vec<(String, f64)> = COMMIT_STAGES
        .iter()
        .map(|stage| {
            let share = median(
                &measured
                    .iter()
                    .zip(acc)
                    .map(|(tier, shadow)| shadow.get(stage) / tier.round_ns as f64)
                    .collect::<Vec<_>>(),
            );
            ((*stage).to_string(), share)
        })
        .collect();
    shares.push((
        "query.read_block".to_string(),
        over(&|r| (r.round_ns - r.write_ns) as f64 / r.round_ns as f64),
    ));
    shares.push((
        "scheduler.submit".to_string(),
        over(&|r| r.submit_ns as f64 / r.round_ns as f64),
    ));
    shares.push((
        "scheduler.residual".to_string(),
        median(
            &measured
                .iter()
                .zip(acc)
                .map(|(tier, shadow)| (commit_ns(tier) - shadow.commit_ns()) / tier.round_ns as f64)
                .collect::<Vec<_>>(),
        ),
    ));
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.note(
        "dominant_stage",
        Json::str(shares.first().map_or("", |s| s.0.as_str())),
    );
    out.note(
        "round_time_shares",
        Json::obj(shares.into_iter().map(|(k, v)| (k, Json::Num(v)))),
    );
    out.note("tail_rounds_replayed", Json::Int(tail_rounds as u64));
    out.note("residual_ms_per_window_signed", Json::Num(residual_ms));

    let file = package_dir()
        .join("target")
        .join(format!("trace-{}.json", spec.name));
    let stamp = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Int(opts.seed)),
        ("rounds", Json::Int(rounds as u64)),
    ]);
    std::fs::write(&file, shadow.trace.to_json(stamp).to_string())
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    out.trace_file = Some(file);
    Ok(())
}
