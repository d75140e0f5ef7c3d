//! Closed-loop serving load generator: one writer streams graph updates
//! through the coalescing scheduler while `N` reader threads issue point
//! lookups, label reads and top-k similarity queries against versioned
//! snapshots. Reports p50/p95/p99 read latency, update-visibility lag
//! (enqueue → published epoch) and epochs/sec, plus the serving-contract
//! counters (epoch monotonicity per reader per shard, stamped responses).
//!
//! Configuration comes from `RIPPLE_SCALE`, `RIPPLE_THREADS` and the
//! `RIPPLE_SERVE_*` environment knobs (see the README's "Serving" section);
//! `RIPPLE_SERVE_SHARDS` (or `--shards`) switches the run onto the
//! hash-partitioned sharded tier.
//!
//! Flags:
//!
//! * `--json <path>` — additionally writes the report as a JSON artifact
//!   (`BENCH_serve.json` in CI).
//! * `--shards <n>` — overrides the shard count (`>1` drives the sharded
//!   tier behind the same `ServeFrontend` surface).
//! * `--shard-bench <path>` — runs the same workload unsharded and with two
//!   shards, then writes a combined comparison artifact
//!   (`BENCH_shard.json` in CI) with epochs/sec and p99 read latency per
//!   topology.
//! * `--read-mode exact|approx` — how the loadgen's top-k reads execute
//!   (approx probes the epoch-repaired IVF index; also settable via
//!   `RIPPLE_SERVE_READ_MODE`).
//! * `--topk-bench <path>` — benchmarks exact-scan vs approximate top-k at
//!   |V| ∈ {10k, 50k} and writes the comparison artifact
//!   (`BENCH_topk.json` in CI) with per-mode p50/p99, recall@10 against the
//!   exact oracle and the index repair/rebuild counters.
//! * `--nprobe-sweep <path>` — sweeps the IVF probe width and writes a
//!   recall@10-vs-speedup table against the exact oracle, tracing the
//!   accuracy/latency trade-off curve the `DEFAULT_NPROBE` choice sits on.
//! * `--admission-bench <path>` — benchmarks footprint-based concurrent
//!   window admission against the serial pipeline (best-case disjoint
//!   blocks, worst-case hub churn; in-flight depths 1/2/4) and writes
//!   `BENCH_admission.json` with the group/conflict counters. Every depth
//!   is bit-compared against the serial baseline: any parity violation
//!   aborts the run.

use ripple::experiments::{print_header, Scale};
use ripple::serve::{
    run_admission_bench, run_loadgen, run_nprobe_sweep, run_topk_bench, LoadgenConfig,
    LoadgenReport, ReadMode, DEFAULT_NPROBE,
};

fn main() {
    let mut json_path: Option<String> = None;
    let mut shard_bench_path: Option<String> = None;
    let mut topk_bench_path: Option<String> = None;
    let mut nprobe_sweep_path: Option<String> = None;
    let mut admission_bench_path: Option<String> = None;
    let mut shards_override: Option<usize> = None;
    let mut read_mode_override: Option<ReadMode> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                json_path = Some(args.next().expect("--json requires a file path"));
            }
            "--shards" => {
                let value = args.next().expect("--shards requires a count");
                shards_override = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .unwrap_or_else(|| {
                            panic!("--shards expects a positive integer, got {value}")
                        }),
                );
            }
            "--shard-bench" => {
                shard_bench_path = Some(args.next().expect("--shard-bench requires a file path"));
            }
            "--topk-bench" => {
                topk_bench_path = Some(args.next().expect("--topk-bench requires a file path"));
            }
            "--nprobe-sweep" => {
                nprobe_sweep_path = Some(args.next().expect("--nprobe-sweep requires a file path"));
            }
            "--admission-bench" => {
                admission_bench_path =
                    Some(args.next().expect("--admission-bench requires a file path"));
            }
            "--read-mode" => {
                let value = args.next().expect("--read-mode requires exact|approx");
                read_mode_override = Some(match value.as_str() {
                    "exact" => ReadMode::Exact,
                    "approx" => ReadMode::Approx {
                        nprobe: DEFAULT_NPROBE,
                    },
                    other => panic!("--read-mode expects exact or approx, got {other}"),
                });
            }
            other => panic!(
                "unknown flag {other} (expected --json <path>, --shards <n>, \
                 --shard-bench <path>, --topk-bench <path>, --nprobe-sweep <path>, \
                 --admission-bench <path> or --read-mode exact|approx)"
            ),
        }
    }

    if let Some(path) = topk_bench_path {
        run_topk_bench_cli(&path);
        return;
    }
    if let Some(path) = nprobe_sweep_path {
        run_nprobe_sweep_cli(&path);
        return;
    }
    if let Some(path) = admission_bench_path {
        run_admission_bench_cli(&path);
        return;
    }

    let mut config = LoadgenConfig::from_env();
    if let Some(shards) = shards_override {
        config.shards = shards;
    }
    if let Some(mode) = read_mode_override {
        config.read_mode = mode;
    }
    print_header(
        "Serving load generator: concurrent reads during incremental propagation",
        Scale::from_env(),
    );
    println!(
        "graph: {} vertices, avg degree {:.1}; stream: {} updates; \
         {} readers, {} engine thread(s), {} shard(s); window: {} updates / {:?}; queue {} ({:?})",
        config.vertices,
        config.avg_degree,
        config.updates,
        config.readers,
        config.engine_threads,
        config.shards,
        config.serve.max_batch,
        config.serve.max_delay,
        config.serve.queue_capacity,
        config.serve.policy,
    );
    println!();

    if let Some(path) = shard_bench_path {
        run_shard_bench(&config, &path);
        return;
    }

    let report = run_loadgen(&config);
    println!("{report}");
    println!();
    println!("Expected shape: readers never block on the engine (reads flow while updates");
    println!("propagate), every response stamped with its epoch + staleness, zero epoch");
    println!("monotonicity violations.");

    assert!(
        report.contract_upheld(),
        "serving contract violated: {report}"
    );

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).expect("writing serve JSON");
        println!("wrote serving report to {path}");
    }
}

/// Benchmarks exact vs approximate top-k (see
/// [`ripple::serve::run_topk_bench`]) and writes `BENCH_topk.json`. Sizes
/// follow `RIPPLE_SCALE`: the CI smoke sizes are 10k and 50k vertices.
fn run_topk_bench_cli(path: &str) {
    print_header(
        "Top-k read modes: exact scan vs epoch-repaired IVF index",
        Scale::from_env(),
    );
    let sizes: &[usize] = match std::env::var("RIPPLE_SCALE").unwrap_or_default().as_str() {
        "tiny" => &[1_000],
        _ => &[10_000, 50_000],
    };
    let report = run_topk_bench(sizes, 42);
    println!("{report}");
    println!();
    println!("Expected shape: approx p50 well under exact p50 and widening with |V|");
    println!("(the scan is O(|V|), the probe is O(sqrt(|V|))); recall@10 >= 0.95 with");
    println!("bit-identical scores; zero index rebuilds after the bootstrap build.");
    std::fs::write(path, report.to_json()).expect("writing topk bench JSON");
    println!("wrote top-k comparison to {path}");
}

/// Benchmarks footprint-based concurrent window admission (see
/// [`ripple::serve::run_admission_bench`]) and writes
/// `BENCH_admission.json`. Bit-parity against the serial pipeline is
/// asserted inside the bench: a nonzero violation count aborts the run.
fn run_admission_bench_cli(path: &str) {
    print_header(
        "Concurrent window admission: footprint groups vs the serial pipeline",
        Scale::from_env(),
    );
    let report = run_admission_bench(42);
    println!("{report}");
    println!();
    println!("Expected shape: disjoint-blocks fills groups (admitted > 0, conflicts = 0),");
    println!("hub-churn serializes (conflicts > 0, admitted ~ 0); every depth commits the");
    println!("exact serial window stamps and final store — zero parity violations.");
    assert_eq!(
        report.parity_violations(),
        0,
        "admission diverged from the serial pipeline"
    );
    assert!(
        report.admitted_concurrent() > 0,
        "admission bench formed no concurrent groups"
    );
    std::fs::write(path, report.to_json()).expect("writing admission bench JSON");
    println!("wrote admission comparison to {path}");
}

/// Sweeps the IVF probe width and tabulates recall@k vs speedup over the
/// exact scan (see [`ripple::serve::run_nprobe_sweep`]), then writes the
/// artifact. Sizes follow `RIPPLE_SCALE`.
fn run_nprobe_sweep_cli(path: &str) {
    print_header(
        "IVF probe-width sweep: recall@10 vs speedup over the exact scan",
        Scale::from_env(),
    );
    let vertices = match std::env::var("RIPPLE_SCALE").unwrap_or_default().as_str() {
        "tiny" => 1_000,
        _ => 20_000,
    };
    let report = run_nprobe_sweep(vertices, 10, &[1, 2, 4, 8, 16, 32, 64], 42);
    println!("{report}");
    println!();
    println!("Expected shape: recall climbs monotonically with nprobe toward 1.0 while");
    println!("the speedup over the exact scan shrinks; the knee of the curve is the");
    println!("operating point the serving tier's DEFAULT_NPROBE should sit near.");
    std::fs::write(path, report.to_json()).expect("writing nprobe sweep JSON");
    println!("wrote nprobe sweep to {path}");
}

/// Runs the identical workload against one engine and against a two-shard
/// tier, prints both reports, and writes the combined comparison artifact.
fn run_shard_bench(base: &LoadgenConfig, path: &str) {
    let mut unsharded = base.clone();
    unsharded.shards = 1;
    let mut sharded = base.clone();
    sharded.shards = sharded.shards.max(2);

    println!("== unsharded (1 engine) ==");
    let single = run_loadgen(&unsharded);
    println!("{single}");
    println!();
    println!("== sharded ({} engines) ==", sharded.shards);
    let tiered = run_loadgen(&sharded);
    println!("{tiered}");
    println!();

    assert!(
        single.contract_upheld(),
        "unsharded contract violated: {single}"
    );
    assert!(
        tiered.contract_upheld(),
        "sharded contract violated: {tiered}"
    );

    let json = shard_bench_json(&single, &tiered);
    std::fs::write(path, json).expect("writing shard bench JSON");
    println!("wrote shard comparison to {path}");
}

/// The `BENCH_shard.json` artifact (hand-rolled: the offline serde shim has
/// no serialiser).
fn shard_bench_json(single: &LoadgenReport, tiered: &LoadgenReport) -> String {
    fn topology(out: &mut String, label: &str, report: &LoadgenReport, trailing_comma: bool) {
        out.push_str(&format!("  \"{label}\": {{\n"));
        out.push_str(&format!("    \"shards\": {},\n", report.shards));
        out.push_str(&format!("    \"epochs\": {},\n", report.epochs));
        out.push_str(&format!(
            "    \"epochs_per_sec\": {:.3},\n",
            report.epochs_per_sec
        ));
        out.push_str(&format!(
            "    \"reads_per_sec\": {:.1},\n",
            report.reads_per_sec
        ));
        out.push_str(&format!(
            "    \"read_p50_us\": {:.3},\n",
            report.read_p50.as_secs_f64() * 1e6
        ));
        out.push_str(&format!(
            "    \"read_p99_us\": {:.3},\n",
            report.read_p99.as_secs_f64() * 1e6
        ));
        out.push_str(&format!(
            "    \"updates_offered\": {},\n",
            report.updates_offered
        ));
        out.push_str(&format!("    \"applied\": {},\n", report.metrics.applied));
        out.push_str(&format!(
            "    \"contract_upheld\": {}\n",
            report.contract_upheld()
        ));
        out.push_str(if trailing_comma { "  },\n" } else { "  }\n" });
    }
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"serve_shard_bench\",\n");
    out.push_str(&format!("  {},\n", ripple_tensor::simd::env_json_fields()));
    out.push_str(&format!("  \"readers\": {},\n", single.readers));
    topology(&mut out, "unsharded", single, true);
    topology(&mut out, "sharded", tiered, false);
    out.push('}');
    out.push('\n');
    out
}
