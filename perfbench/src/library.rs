//! The library workload `heuristic-300k`: one closed-loop caller
//! repeating `Pipeline::solve` of `scale:sk:5,two` on one instance and a
//! reused 2-thread workspace.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use dsmatch::engine::{Pipeline, SolveReport, Solver, Workspace};
use dsmatch_graph::BipartiteGraph;
use dsmatch_json::{parse_json, Json};

use crate::inputs::{self, Fnv};
use crate::{host, stats, Metrics, Outcome, PARTS, THREADS};

pub const NAME: &str = "heuristic-300k";
/// Rows (and columns) of the instance.
pub const N: usize = 300_000;
/// The pipeline the caller repeats; it has no exact finisher.
pub const PIPELINE: &str = "scale:sk:5,two";

/// Everything the timed loop reuses.
pub struct Prepared {
    pub graph: BipartiteGraph,
    pub ws: Workspace,
    pub pipeline: Pipeline,
}

/// The workload's instance, a function of the workload seed.
pub fn instance(seed: u64) -> BipartiteGraph {
    inputs::er(N, inputs::derive(seed, 0))
}

/// Pipeline seed of the `k`-th timed solve.
pub fn op_seed(seed: u64, k: usize) -> u64 {
    inputs::derive(seed, (1 << 32) | k as u64)
}

/// What a user of the library pays before the first timed solve:
/// generation and CSR build, the 2-thread workspace, one warm-up solve.
/// Returns the prepared state and its wall time.
pub fn setup(seed: u64) -> (Prepared, f64) {
    let t0 = Instant::now();
    let graph = instance(seed);
    let mut ws = Workspace::with_threads(THREADS);
    let pipeline: Pipeline = PIPELINE.parse().expect("valid spec");
    black_box(pipeline.clone().with_seed(seed).solve(&graph, &mut ws));
    (Prepared { graph, ws, pipeline }, t0.elapsed().as_secs_f64())
}

/// Reference data (not part of set-up time): the instance's structural
/// rank and the input fingerprint.
pub fn reference(seed: u64, g: &BipartiteGraph) -> (usize, Json) {
    let sprank = inputs::sprank(g);
    let mut csr = Fnv::new();
    inputs::hash_graph(&mut csr, g);
    let mut warm = Fnv::new();
    inputs::hash_mates(&mut warm, &inputs::warm_start(g, seed));
    let fingerprint = Json::obj(vec![
        ("workload", Json::from(NAME)),
        ("n", Json::from(N)),
        ("nnz", Json::from(g.nnz())),
        ("sprank", Json::from(sprank)),
        ("csr_hash", inputs::hex(csr.finish())),
        ("warm_mates_hash", inputs::hex(warm.finish())),
    ]);
    (sprank, fingerprint)
}

/// The reference data, computed by this binary's `fingerprint`
/// subcommand in a child process, so that the reference work never sets
/// this process's peak resident set (`peak_rss_mb`).
fn reference_in_child(seed: u64) -> Result<(usize, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let out = Command::new(exe)
        .args(["fingerprint", "--workload", NAME, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("running perfbench fingerprint: {e}"))?;
    if !out.status.success() {
        return Err(format!("perfbench fingerprint failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let fingerprint = parse_json(text.lines().last().unwrap_or_default())
        .map_err(|e| format!("perfbench fingerprint printed no fingerprint: {e}"))?;
    let sprank = fingerprint
        .get("sprank")
        .and_then(Json::as_usize)
        .ok_or("the fingerprint holds no sprank")?;
    Ok((sprank, fingerprint))
}

/// Cardinality of the heuristic (`two`) stage of a report.
pub fn heuristic_cardinality(report: &SolveReport) -> Option<usize> {
    report.stages.iter().find(|s| s.stage == "two").and_then(|s| s.cardinality)
}

/// Check one solve: a valid matching of `g`, at the structural rank when
/// the pipeline is exact; returns the heuristic stage's quality ratio.
pub fn check(report: &SolveReport, g: &BipartiteGraph, sprank: usize, exact: bool) -> Option<f64> {
    let card = report.cardinality();
    let reached = if exact { card == sprank } else { card > 0 && card <= sprank };
    let heuristic = heuristic_cardinality(report)?;
    (report.matching.verify(g).is_ok() && reached).then(|| heuristic as f64 / sprank as f64)
}

/// One timed solve.
pub struct Op {
    pub seconds: f64,
    /// Heuristic quality ratio; `None` when the output was wrong.
    pub quality: Option<f64>,
}

/// The closed loop: solve until `seconds` of wall time have passed, one
/// pipeline seed per solve, appending to `ops` (whose length numbers the
/// solves across calls). Each op's latency covers the solve alone; the
/// returned wall time of the loop covers the checks too.
fn run_loop(prep: &mut Prepared, sprank: usize, seed: u64, seconds: f64, ops: &mut Vec<Op>) -> f64 {
    let exact = prep.pipeline.augment.is_some();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let pipeline = prep.pipeline.clone().with_seed(op_seed(seed, ops.len()));
        let t = Instant::now();
        let report = pipeline.solve(&prep.graph, &mut prep.ws);
        let seconds = t.elapsed().as_secs_f64();
        ops.push(Op { seconds, quality: check(&report, &prep.graph, sprank, exact) });
    }
    start.elapsed().as_secs_f64()
}

/// The untraced run: the timed loop split into `PARTS` parts, each on a
/// fresh set-up.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (sprank, fingerprint) = reference_in_child(seed)?;
    let mut setup_times = Vec::with_capacity(PARTS);
    let mut wall = 0.0;
    let mut ops = Vec::new();
    let mut peak_rss_mib = 0.0;
    for part in 0..PARTS {
        let (mut prep, t) = setup(seed);
        setup_times.push(t);
        wall += run_loop(&mut prep, sprank, seed, seconds / PARTS as f64, &mut ops);
        if part == 0 {
            // A later set-up may or may not land on memory the allocator
            // kept from the part before (run to run, +15 MiB or nothing),
            // so the peak is read once the first set-up and its solves ran.
            peak_rss_mib = host::peak_rss_mib("self");
        }
    }

    let latencies: Vec<f64> = ops.iter().map(|o| o.seconds).collect();
    let qualities: Vec<f64> = ops.iter().filter_map(|o| o.quality).collect();
    let failed = ops.len() - qualities.len();
    let mut metrics = Metrics::default();
    metrics.set("setup_s", stats::median(&setup_times));
    metrics.set_per_op(&latencies, wall);
    metrics.set("quality_ratio", qualities.iter().sum::<f64>() / qualities.len().max(1) as f64);
    metrics.set("peak_rss_mb", peak_rss_mib);
    Ok(Outcome {
        metrics,
        attempted: ops.len(),
        failed,
        fingerprint,
        detail: vec![
            ("setup_samples_s", Json::Arr(setup_times.into_iter().map(Json::from).collect())),
            ("latency_samples", Json::from(latencies.len())),
            ("latency_p95_tail_samples", Json::from(stats::beyond(&latencies, 0.95))),
        ],
    })
}
