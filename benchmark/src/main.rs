//! `ripple-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name with its unit, the gate's
//! checks and — as the last line of standard output — one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`. Exits
//! non-zero if the gate failed. With `--repeat <n>` it instead runs the
//! workload `n` times (each in a child process it waits for) and prints the
//! run-to-run spread of every end-to-end metric against its bound.

use ripple_benchmark::cpu::Cpus;
use ripple_benchmark::json::Json;
use ripple_benchmark::run::{run, Options, Outcome};
use ripple_benchmark::stats::{max, median, quartiles};
use ripple_benchmark::tier::package_dir;
use ripple_benchmark::workloads::{by_name, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: ripple-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--repeat <n> [--seed-step <k>]]";

struct Args {
    options: Options,
    seconds: f64,
    repeat: usize,
    seed_step: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 15.0f64, false);
    let (mut repeat, mut seed_step) = (0usize, 0u64);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => seconds = value()?.parse().map_err(|_| bad("not a number"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--repeat" => repeat = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seed-step" => seed_step = value()?.parse().map_err(|_| bad("not a whole number"))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = workload.ok_or(format!("--workload is required (one of {names:?})"))?;
    let spec =
        by_name(&workload).ok_or(format!("unknown workload {workload} (one of {names:?})"))?;
    Ok(Args {
        options: Options {
            spec,
            seed,
            rounds: spec.rounds(seconds, trace),
            trace,
        },
        seconds,
        repeat,
        seed_step,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Git commit, rustc, cores, seed, sizes and the SIMD environment every
/// result is stamped with.
fn stamp(options: &Options, seconds: f64, nproc: usize, cpus: &Cpus) -> Json {
    let spec = &options.spec;
    let dir = package_dir();
    let mut fields = vec![
        (
            "commit".to_string(),
            Json::str(command_line(
                "git",
                &["-C", &dir.to_string_lossy(), "rev-parse", "HEAD"],
            )),
        ),
        (
            "rustc".to_string(),
            Json::str(command_line("rustc", &["--version"])),
        ),
        ("nproc".to_string(), Json::Int(nproc as u64)),
        (
            "pinned_cpus".to_string(),
            Json::Arr(
                cpus.ids()
                    .iter()
                    .map(|&cpu| Json::Int(cpu as u64))
                    .collect(),
            ),
        ),
        ("workload".to_string(), Json::str(spec.name)),
        ("seed".to_string(), Json::Int(options.seed)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("trace".to_string(), Json::Bool(options.trace)),
        (
            "rounds".to_string(),
            Json::Int(options.rounds.total() as u64),
        ),
        (
            "vertices".to_string(),
            Json::Int(spec.graph.vertices as u64),
        ),
        (
            "avg_in_degree".to_string(),
            Json::Num(spec.graph.avg_in_degree),
        ),
        (
            "feature_dim".to_string(),
            Json::Int(spec.graph.feature_dim as u64),
        ),
        (
            "model".to_string(),
            Json::str(format!(
                "{} {} layers, hidden {}, classes {}",
                spec.model.workload.name(),
                spec.model.layers,
                spec.model.hidden,
                spec.model.classes
            )),
        ),
        (
            "bursts_per_round".to_string(),
            Json::Int(spec.bursts_per_round as u64),
        ),
        (
            "windows_per_burst".to_string(),
            Json::Int(spec.windows_per_burst as u64),
        ),
    ];
    // `env_json_fields` is a brace-less `"key": value` fragment.
    for field in ripple_tensor::simd::env_json_fields().split(", ") {
        if let Some((key, value)) = field.split_once(": ") {
            let value = value.trim();
            let json = match value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
                Some(text) => Json::str(text),
                None => value.parse().map_or_else(|_| Json::str(value), Json::Num),
            };
            fields.push((key.trim_matches('"').to_string(), json));
        }
    }
    Json::Obj(fields)
}

fn report(options: &Options, outcome: &Outcome, stamp: &Json) {
    println!("stamp {stamp}");
    for &(name, value, unit) in &outcome.metrics {
        println!("metric {name} {value} {unit}");
    }
    for (key, value) in &outcome.notes {
        println!("note {key} {value}");
    }
    for check in &outcome.checks {
        let verdict = if check.pass { "pass" } else { "FAIL" };
        println!("check {verdict} {}: {}", check.name, check.detail);
    }
    if let Some(file) = &outcome.trace_file {
        println!("trace {}", file.display());
    }
    let full = Json::obj([
        ("stamp", stamp.clone()),
        ("result", outcome.result_line()),
        (
            "checks",
            Json::Arr(
                outcome
                    .checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            ("pass", Json::Bool(c.pass)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("notes", Json::Obj(outcome.notes.clone())),
        (
            "should_move",
            Json::obj(PER_LAYER.iter().map(|m| (m.0, Json::str(m.3)))),
        ),
    ]);
    let file = package_dir().join("target").join(format!(
        "report-{}-trace{}.json",
        options.spec.name,
        u8::from(options.trace)
    ));
    if let Err(e) = std::fs::write(&file, full.to_string()) {
        eprintln!("could not write {}: {e}", file.display());
    }
    println!("{}", outcome.result_line());
}

/// Runs the workload `args.repeat` times, each in a child process, and
/// judges every end-to-end metric's spread against its bound: the range
/// (max − min) ÷ median when one seed is repeated, IQR ÷ median — the
/// driver's measure — when the seeds differ. `durable_hub`'s restart time
/// (`note recovery_ms`) gets a row too; it has no bound.
fn repeat(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
    let mut all_correct = true;
    for i in 0..args.repeat {
        let seed = args.options.seed + i as u64 * args.seed_step;
        let output = Command::new(&exe)
            .args(["--workload", args.options.spec.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .output()
            .map_err(|e| format!("running {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut values = Vec::new();
        for line in stdout.lines() {
            let words: Vec<&str> = line.split(' ').collect();
            match words[..] {
                ["metric", name, value, ..] | ["note", name @ "recovery_ms", value] => {
                    if let Ok(value) = value.parse::<f64>() {
                        values.push((name.to_string(), value));
                    }
                }
                ["check", "FAIL", ..] => println!("run {i}: {line}"),
                _ => {}
            }
        }
        all_correct &= output.status.success();
        println!(
            "run {i} seed {seed} {}",
            if output.status.success() {
                "ok"
            } else {
                "FAILED"
            }
        );
        runs.push(values);
    }
    println!(
        "{:<26} {:>12} {:>9} {:>9} {:>7}  values",
        "metric", "median", "range/med", "iqr/med", "bound"
    );
    let mut within = all_correct;
    let rows = END_TO_END
        .iter()
        .map(|&(name, unit, _, bound)| (name, unit, Some(bound)))
        .chain([("recovery_ms", "ms", None)]);
    for (name, unit, bound) in rows {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|run| run.iter().find(|m| m.0 == name).map(|m| m.1))
            .collect();
        if values.len() != args.repeat {
            if bound.is_some() {
                println!(
                    "{name:<26} missing from {} runs",
                    args.repeat - values.len()
                );
                within = false;
            }
            continue;
        }
        let mid = median(&values);
        let low = values.iter().copied().fold(f64::INFINITY, f64::min);
        let range = (max(&values) - low) / mid;
        let (q1, q3) = quartiles(&values);
        let iqr = (q3 - q1) / mid;
        let judged = if args.seed_step == 0 { range } else { iqr };
        let over = bound.is_some_and(|b| judged > b);
        within &= !over;
        println!(
            "{name:<26} {mid:>12.4} {range:>9.4} {iqr:>9.4} {:>7}  {} {unit}{}",
            bound.map_or("-".to_string(), |b| format!("{b:.3}")),
            values
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" "),
            if over { "  OVER BOUND" } else { "" },
        );
    }
    Ok(within)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.repeat > 0 {
        return match repeat(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::FAILURE
            }
        };
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut cpus = Cpus::detect();
    let stamp = stamp(&args.options, args.seconds, nproc, &cpus);
    let outcome = run(&args.options, &mut cpus);
    report(&args.options, &outcome, &stamp);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
