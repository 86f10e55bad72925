//! The dsmatch benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench fingerprint --workload <name> --seed <n>
//! perfbench compare <result.json> <result.json>
//! perfbench spread <result.json>...
//! ```
//!
//! A run builds the `dsmatch` CLI from the checkout (for its `serve`
//! daemon), sets the workload up from the seed, measures for `--seconds`,
//! checks every output, writes the full result set with its host stamp to
//! `.bench_run/results/`, and prints one JSON object as its last line of
//! standard output. `--trace 0` prints the end-to-end metrics, `--trace 1`
//! the per-layer metrics of a separate traced run. `fingerprint` prints
//! the workload's input fingerprint and exits; `compare` refuses result
//! sets whose host stamps differ and otherwise prints both sets' metrics;
//! `spread` prints each metric's median and quartile spread over runs.

mod host;
mod inputs;
mod library;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dsmatch_json::{parse_json, Json};

pub use metrics::Metrics;

/// Solver threads of every workload.
pub const THREADS: usize = 2;

/// Parts of an untraced run: its timed phase is split into this many
/// equal parts, each after a fresh set-up, so that `setup_s` is a median
/// over set-ups spread across the run.
pub const PARTS: usize = 5;

/// Where runs leave sockets and result sets, relative to the checkout.
pub const RUN_DIR: &str = ".bench_run";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["heuristic-300k", "serve-mixed"];

/// What one run measured and checked.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    pub fingerprint: Json,
    pub detail: Vec<(&'static str, Json)>,
}

fn arg(args: &[String], name: &str) -> Option<String> {
    let flag = format!("--{name}");
    args.iter().position(|a| *a == flag).and_then(|k| args.get(k + 1)).cloned()
}

/// Build the `dsmatch` CLI of this checkout in release mode and return
/// its path (under `CARGO_TARGET_DIR` when set).
fn build_cli() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "dsmatch"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the dsmatch CLI failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("dsmatch");
    let bin = if bin.is_absolute() {
        bin
    } else {
        std::env::current_dir().map_err(|e| e.to_string())?.join(bin)
    };
    bin.is_file()
        .then_some(bin)
        .ok_or_else(|| "the dsmatch CLI was not where cargo builds it".to_string())
}

fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    // Every run builds the CLI, so the first run in a fresh checkout pays
    // the whole build whichever workload it is, and later runs find it
    // current.
    let bin = build_cli()?;
    match (workload, traced) {
        ("heuristic-300k", false) => library::run(seed, seconds),
        ("serve-mixed", false) => serve::run(&bin, seed, seconds),
        ("heuristic-300k", true) => trace::run_library(&bin, seed, seconds),
        ("serve-mixed", true) => trace::run_serve(&bin, seed, seconds),
        (other, _) => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}

/// Print the paper's headline from a traced run: per-layer 1-thread and
/// 2-thread times with their speed-up, next to the heuristic's quality.
fn print_headline(m: &Metrics) {
    eprintln!("layer   1 thread (s)  2 threads (s)  speed-up");
    for (layer, one, two, speedup) in [
        ("scale", m.get("scale.sk5_1t_s"), m.get("scale.sk5_s"), m.get("scale.speedup_2t")),
        (
            "core",
            m.get("core.choices_1t_s").zip(m.get("core.ksmt_1t_s")).map(|(a, b)| a + b),
            m.get("core.choices_s").zip(m.get("core.ksmt_s")).map(|(a, b)| a + b),
            m.get("core.speedup_2t"),
        ),
        ("exact", m.get("exact.finish_1t_s"), m.get("exact.finish_s"), m.get("exact.speedup_2t")),
    ] {
        let show = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.6}"));
        eprintln!("{layer:<7} {:>13}  {:>13}  {:>8}", show(one), show(two), show(speedup));
    }
    if let Some(q) = m.get("core.quality_ratio") {
        eprintln!("quality ratio of the heuristic (cardinality / sprank): {q:.6}");
    }
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> Json {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (name, Json::obj(vec![("value", Json::from(value)), ("unit", Json::from(unit))]))
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn measure(args: &[String]) -> Result<(), String> {
    let workload = arg(args, "workload").ok_or("missing --workload")?;
    let seed: u64 =
        arg(args, "seed").ok_or("missing --seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = arg(args, "seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let traced = match arg(args, "trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let outcome = run(&workload, seed, seconds, traced)?;
    let catalogue = if traced { metrics::PER_LAYER } else { metrics::END_TO_END };
    let mut values = Vec::with_capacity(catalogue.len());
    let mut complete = true;
    for &(name, unit) in catalogue {
        match outcome.metrics.get(name).filter(|v| v.is_finite()) {
            Some(v) => values.push((name, v, unit)),
            None => {
                eprintln!("metric {name} was not measured");
                complete = false;
                values.push((name, 0.0, unit));
            }
        }
    }
    let correct = complete && outcome.failed == 0 && outcome.attempted > 0;
    let line = result_line(correct, outcome.attempted.max(1), outcome.failed, &values);

    if traced {
        print_headline(&outcome.metrics);
    }
    eprintln!("fingerprint: {}", outcome.fingerprint);
    for (key, value) in &outcome.detail {
        eprintln!("{key}: {value}");
    }
    let mut doc = vec![
        ("workload", Json::from(workload.as_str())),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::from(traced)),
        ("host", host::stamp()),
        ("fingerprint", outcome.fingerprint),
        ("result", line.clone()),
    ];
    doc.extend(outcome.detail);
    let dir = Path::new(RUN_DIR).join("results");
    let path = dir.join(format!("{workload}-seed{seed}-trace{}.json", u8::from(traced)));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{}\n", Json::obj(doc))))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("result set: {}", path.display());
    println!("{line}");
    Ok(())
}

fn fingerprint(args: &[String]) -> Result<(), String> {
    let workload = arg(args, "workload").ok_or("missing --workload")?;
    let seed: u64 =
        arg(args, "seed").ok_or("missing --seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let fp = match workload.as_str() {
        "heuristic-300k" => library::reference(seed, &library::instance(seed)).1,
        "serve-mixed" => serve::build_inputs(seed, serve::FINGERPRINT_STEPS).fingerprint,
        other => return Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    };
    println!("{fp}");
    Ok(())
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two result sets; `Ok(false)` when they must not be compared.
fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err("compare takes exactly two result files".into()) };
    let (da, db) = (load(a)?, load(b)?);
    let null = Json::Null;
    let diffs = host::differences(da.get("host").unwrap_or(&null), db.get("host").unwrap_or(&null));
    let mut comparable = diffs.is_empty();
    for d in &diffs {
        eprintln!("host stamps differ: {d}");
    }
    for key in ["workload", "trace", "seconds"] {
        if da.get(key) != db.get(key) {
            eprintln!("result sets differ in {key}: {:?} != {:?}", da.get(key), db.get(key));
            comparable = false;
        }
    }
    if !comparable {
        return Ok(false);
    }
    let metrics =
        |d: &Json| d.get("result").and_then(|r| r.get("metrics")).cloned().unwrap_or(Json::Null);
    let (ma, mb) = (metrics(&da), metrics(&db));
    let Json::Obj(pairs) = &ma else { return Err(format!("{a}: no metrics")) };
    println!("{:<28} {:>14} {:>14} {:>8}", "metric", "first", "second", "ratio");
    for (name, va) in pairs {
        let value = |v: Option<&Json>| v.and_then(|v| v.get("value")).and_then(Json::as_f64);
        let (x, y) = (value(Some(va)), value(mb.get(name)));
        let ratio = x.zip(y).map_or("-".to_string(), |(x, y)| format!("{:.4}", y / x));
        let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
        println!("{name:<28} {:>14} {:>14} {ratio:>8}", show(x), show(y));
    }
    Ok(true)
}

/// Print, per workload and metric, the median and the spread (distance
/// between the first and third quartile as a share of the median) over a
/// set of result files: the steadiness figure each metric's bound is
/// checked against.
fn spread(files: &[String]) -> Result<(), String> {
    let mut groups: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for path in files {
        let doc = load(path)?;
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("?");
        let trace = doc.get("trace").and_then(Json::as_bool).unwrap_or(false);
        let Some(Json::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}: no metrics"));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                groups.entry(format!("{workload} trace={trace} {name}")).or_default().push(v);
            }
        }
    }
    println!("{:<56} {:>4} {:>14} {:>8}", "workload metric", "runs", "median", "spread");
    for (key, values) in groups {
        let spread = stats::iqr_share(&values).map_or("-".to_string(), |s| format!("{s:.4}"));
        println!("{key:<56} {:>4} {:>14.6} {spread:>8}", values.len(), stats::median(&values));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match compare(&args[1..]) {
            Ok(true) => Ok(()),
            Ok(false) => return ExitCode::from(3),
            Err(e) => Err(e),
        },
        Some("fingerprint") => fingerprint(&args[1..]),
        Some("spread") => spread(&args[1..]),
        _ => measure(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
