//! Every workload at tiny size: all declared metrics present with their
//! units, the correctness gate passes, and two runs with the same seed agree
//! on every count. Plus: `BENCHMARK.json` declares exactly the workloads and
//! metrics the code reports.

use ripple_benchmark::cpu::Cpus;
use ripple_benchmark::gen::{GraphSpec, StreamKind};
use ripple_benchmark::run::{run, Options, Outcome};
use ripple_benchmark::workloads::{
    by_name, Rounds, WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS,
};

/// The one check that is a timing: under `cargo test`'s parallel load the
/// shadow/tier time ratio is not meaningful, so the smoke test does not
/// assert it.
const TIMING_CHECK: &str = "bench.trace_coverage is within 0.85-1.15";

fn tiny(workload: &str, trace: bool) -> Outcome {
    run_checked(by_name(workload).expect("declared workload").tiny(), trace)
}

/// Four short rounds of `spec`, one of them warm-up; every check of the gate
/// but the timing one must hold.
fn run_checked(spec: WorkloadSpec, trace: bool) -> Outcome {
    let options = Options {
        spec,
        seed: 3,
        rounds: Rounds {
            warmup: 1,
            measured: 3,
        },
        trace,
    };
    let outcome = run(&options, &mut Cpus::unpinned());
    for check in &outcome.checks {
        assert!(
            check.pass || check.name == TIMING_CHECK,
            "{} trace={trace}: {} failed: {}",
            spec.name,
            check.name,
            check.detail
        );
    }
    assert!(outcome.attempted() > 0);
    outcome
}

/// Counts are a pure function of the seed; these prefixes and names select
/// them from the per-layer metrics (everything else there is a time).
fn is_count(name: &str, unit: &str) -> bool {
    (unit == "count" || unit == "ratio" || unit == "B") && name != "bench.trace_coverage"
}

/// Runs the workload four times at tiny size and returns a traced outcome.
fn smoke(workload: &str) -> Outcome {
    let first = tiny(workload, false);
    let second = tiny(workload, false);
    let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    let reported: Vec<(&str, &str)> = first.metrics.iter().map(|m| (m.0, m.2)).collect();
    assert_eq!(reported, declared, "{workload}: end-to-end names and units");
    for &(name, value, _) in &first.metrics {
        assert!(
            value.is_finite() && value > 0.0,
            "{workload}: {name} = {value}"
        );
    }
    assert_eq!(first.counts, second.counts, "{workload}: operation counts");
    assert_eq!(
        first.metric("topk_recall_at_10"),
        second.metric("topk_recall_at_10"),
        "{workload}: recall repeats exactly"
    );

    let first = tiny(workload, true);
    let second = tiny(workload, true);
    let declared: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    let reported: Vec<(&str, &str)> = first.metrics.iter().map(|m| (m.0, m.2)).collect();
    assert_eq!(reported, declared, "{workload}: per-layer names and units");
    for (a, b) in first.metrics.iter().zip(&second.metrics) {
        if is_count(a.0, a.2) {
            assert_eq!(
                a.1, b.1,
                "{workload}: {} differs between same-seed runs",
                a.0
            );
        }
    }
    assert!(first.metric("scheduler.windows").unwrap() > 0.0);
    assert!(first.metric("index.repairs").unwrap() > 0.0);
    assert!(first.metric("engine.tree_size_per_update").unwrap() > 0.0);
    let trace = std::fs::read_to_string(first.trace_file.as_ref().expect("a traced run"))
        .expect("the trace file was written");
    assert!(trace.contains("\"name\": \"index.publish\""));
    first
}

#[test]
fn sparse_stream_smoke() {
    smoke("sparse_stream");
}

#[test]
fn dense_stream_smoke() {
    smoke("dense_stream");
}

#[test]
fn durable_hub_smoke() {
    let traced = smoke("durable_hub");
    assert!(traced.metric("durability.wal_syncs").unwrap() > 0.0);
    assert!(traced.metric("durability.checkpoints").unwrap() > 0.0);
    assert!(traced.metric("durability.recovery_ms").unwrap() > 0.0);
    assert!(traced.metric("admission.conflicts").unwrap() > 0.0);
    assert!(traced.metric("scheduler.coalesce_ratio").unwrap() < 1.0);
}

/// No declared workload forms an admission group of two or more windows
/// (`durable_hub`'s hubs make every window conflict), so this case does: the
/// durable, depth-4 configuration over a one-layer model on a graph with
/// almost no edges, where a window's footprint is little more than the
/// vertices it names and most pairs of windows are disjoint. It is what
/// runs the shadow's merged-group branch — per-window dirty rows cut out of
/// the merged set, the `merged`/`admitted_concurrent` counters, the
/// checkpoint cadence across a group — behind the same bit-identity gate.
#[test]
fn merged_admission_groups_replay_bit_identically() {
    let mut spec = by_name("durable_hub").expect("declared workload").tiny();
    spec.graph = GraphSpec {
        vertices: 12_000,
        avg_in_degree: 0.05,
        feature_dim: 4,
        skew: 0.65,
    };
    spec.model.layers = 1;
    spec.model.classes = 4;
    spec.stream = StreamKind::Uniform;
    let traced = run_checked(spec, true);
    assert!(traced.metric("admission.merged").unwrap() > 0.0);
    assert!(traced.metric("admission.admitted_concurrent").unwrap() > 0.0);
    assert!(traced.metric("admission.merge_ratio").unwrap() > 0.0);
    assert!(traced.metric("durability.checkpoints").unwrap() > 0.0);
}

#[test]
fn topk_reads_smoke() {
    smoke("topk_reads");
}

/// Every `"key": "value"` string value found under `key` inside the
/// top-level array named `section` of `json`.
fn strings_in_section(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let open = start + json[start..].find('[').expect("an array");
    let close = open + json[open..].find(']').expect("a closed array");
    let needle = format!("\"{key}\":");
    json[open..close]
        .match_indices(&needle)
        .map(|(at, _)| {
            let rest = &json[open + at + needle.len()..];
            let from = rest.find('"').expect("a string value") + 1;
            let to = from + rest[from..].find('"').expect("a closed string");
            rest[from..to].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let names = |section| strings_in_section(&json, section, "name");
    let units = |section| strings_in_section(&json, section, "unit");
    let better = |section| strings_in_section(&json, section, "better");
    assert_eq!(
        names("workloads"),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    assert_eq!(
        names("end_to_end"),
        END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
    );
    assert_eq!(
        units("end_to_end"),
        END_TO_END.iter().map(|m| m.1).collect::<Vec<_>>()
    );
    assert_eq!(
        better("end_to_end"),
        END_TO_END.iter().map(|m| m.2).collect::<Vec<_>>()
    );
    assert_eq!(
        names("per_layer"),
        PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
    );
    assert_eq!(
        units("per_layer"),
        PER_LAYER.iter().map(|m| m.1).collect::<Vec<_>>()
    );
    assert_eq!(
        better("per_layer"),
        PER_LAYER.iter().map(|m| m.2).collect::<Vec<_>>()
    );
    for (i, &(name, _, _, bound)) in END_TO_END.iter().enumerate() {
        let needle = format!("\"name\": \"{name}\"");
        let entry = &json[json.find(&needle).expect("declared above")..];
        let entry = &entry[..entry.find('}').expect("a closed entry")];
        assert!(
            entry.contains(&format!("\"bound\": {bound}")),
            "end_to_end[{i}] {name}: bound {bound} not in {entry}"
        );
    }
}
