//! The traced run: per-layer times measured from outside the program, by
//! timing calls into each layer's public functions on the workload's
//! inputs, in pipeline order. No span code lives inside the program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dsmatch::engine::{select_finisher, AlgorithmKind, Pipeline, Solver, Workspace};
use dsmatch_core::karp_sipser_mt_ws;
use dsmatch_core::two_sided_choices_into;
use dsmatch_dm::{dulmage_mendelsohn, fine_decomposition};
use dsmatch_exact::{
    bfs_augment_from, hopcroft_karp_par_ws, hopcroft_karp_ws, pothen_fan_graft_ws,
    pothen_fan_par_ws, pothen_fan_ws, push_relabel_from, AugmentWorkspace,
};
use dsmatch_graph::{BipartiteGraph, Matching, TripletMatrix};
use dsmatch_json::{parse_json, Json};
use dsmatch_scale::{sinkhorn_knopp_into, ScalingConfig, ScalingResult};
use dsmatch_weighted::{suitor, WeightedGraph};
use rayon::prelude::*;

use crate::inputs::{self, Rng, DEGREE};
use crate::library;
use crate::serve::{self, Kind};
use crate::{stats, Metrics, Outcome, THREADS};

/// Repetitions of each pipeline-layer call; the layer's time is their median.
const LAYER_REPS: usize = 5;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool")
}

/// Median over `reps` runs of `f`, which returns the seconds it measured
/// (so it can keep untimed preparation out of the sample).
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    stats::median(&samples)
}

/// Seconds taken by `f`.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Run the `auto` pick `pick` warm-started from `init` through its public
/// `_ws`/`_from` entry point. Returns the matching and the phases the
/// engine reports (1 for engines without phases).
fn finish(
    pick: AlgorithmKind,
    g: &BipartiteGraph,
    init: &Matching,
    ws: &mut AugmentWorkspace,
) -> (Matching, usize) {
    match pick {
        AlgorithmKind::PothenFanGraft => {
            let (m, s) = pothen_fan_graft_ws(g, Some(init), ws);
            (m, s.phases)
        }
        AlgorithmKind::PothenFanPar => {
            let (m, s) = pothen_fan_par_ws(g, Some(init), ws);
            (m, s.phases)
        }
        AlgorithmKind::HopcroftKarpPar => {
            let (m, s) = hopcroft_karp_par_ws(g, Some(init), ws);
            (m, s.phases)
        }
        AlgorithmKind::HopcroftKarp => {
            let (m, s) = hopcroft_karp_ws(g, Some(init), ws);
            (m, s.phases)
        }
        AlgorithmKind::PothenFan => (pothen_fan_ws(g, Some(init), ws).0, 1),
        AlgorithmKind::PushRelabel => (push_relabel_from(g, init.clone()).0, 1),
        AlgorithmKind::BfsAugment => (bfs_augment_from(g, init.clone()).0, 1),
        other => panic!("select_finisher returned {other}, which is not a concrete exact engine"),
    }
}

/// One solve executed as its layer calls, each inside a span, in the
/// order `Pipeline::solve` makes them. Returns the matching, the
/// heuristic cardinality and the spans.
fn traced_op(
    g: &BipartiteGraph,
    ws: &mut Workspace,
    seed: u64,
    exact: bool,
) -> (Matching, usize, Vec<(&'static str, f64)>) {
    let body = |ws: &mut Workspace| {
        let Workspace { scaling, heur, augment, .. } = ws;
        let mut spans = Vec::with_capacity(4);
        let ((), t) = timed(|| sinkhorn_knopp_into(g, &ScalingConfig::iterations(5), scaling));
        spans.push(("scale", t));
        let ((), t) = timed(|| {
            two_sided_choices_into(g, scaling, seed, &mut heur.rchoice, &mut heur.cchoice)
        });
        spans.push(("choices", t));
        let (m, t) = timed(|| karp_sipser_mt_ws(&heur.rchoice, &heur.cchoice, &mut heur.ksmt));
        spans.push(("ksmt", t));
        let heuristic = m.cardinality();
        if !exact {
            return (m, heuristic, spans);
        }
        let pick = select_finisher(g);
        let ((m, _), t) = timed(|| finish(pick, g, &m, augment));
        spans.push(("finish", t));
        (m, heuristic, spans)
    };
    match ws.pool().cloned() {
        Some(p) => p.install(|| body(ws)),
        None => body(ws),
    }
}

/// Untraced and traced solves of the same op, paired per seed.
#[derive(Default)]
struct Paired {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    /// Untraced solve time minus the layer spans of its traced twin.
    engine_self: Vec<f64>,
    attempted: usize,
    failed: usize,
}

/// Alternate `Pipeline::solve` of `pipeline` and its traced
/// decomposition on the same seed until `seconds` have passed and at
/// least `min_iters` pairs ran.
fn paired(
    g: &BipartiteGraph,
    ws: &mut Workspace,
    pipeline: &str,
    sprank: usize,
    seed: u64,
    seconds: f64,
    min_iters: usize,
) -> Paired {
    let pipeline: Pipeline = pipeline.parse().expect("valid spec");
    let exact = pipeline.augment.is_some();
    let mut out = Paired::default();
    let start = Instant::now();
    let mut k = 0;
    while k < min_iters || start.elapsed().as_secs_f64() < seconds {
        let op_seed = library::op_seed(seed, k);
        let p = pipeline.clone().with_seed(op_seed);
        let (report, u) = timed(|| p.solve(g, ws));
        let ((m, heuristic, spans), t) = timed(|| traced_op(g, ws, op_seed, exact));
        out.attempted += 2;
        let untraced_ok = library::check(&report, g, sprank, exact).is_some();
        let traced_ok = m.verify(g).is_ok()
            && Some(heuristic) == library::heuristic_cardinality(&report)
            && (!exact || m.cardinality() == sprank);
        out.failed += usize::from(!untraced_ok) + usize::from(!traced_ok);
        out.untraced.push(u);
        out.traced.push(t);
        out.engine_self.push(u - spans.iter().map(|(_, s)| s).sum::<f64>());
        for (layer, s) in spans {
            out.layers.entry(layer).or_default().push(s);
        }
        k += 1;
    }
    out
}

fn layer_p50(p: &Paired, layer: &str) -> f64 {
    p.layers.get(layer).map_or(0.0, |v| stats::median(v))
}

/// Per-layer times of the pipeline layers on the workload's own
/// instance: generation, CSR build, verification, scaling, the
/// heuristic's two kernels and the finisher, each at 2 threads and at 1,
/// and the JSON rendering of a `pipeline` report.
fn pipeline_layers(g: &BipartiteGraph, pipeline: &str, sprank: usize, seed: u64, m: &mut Metrics) {
    let reps = LAYER_REPS;
    let (p1, p2) = (pool(1), pool(THREADS));
    let n = g.nrows();
    m.set(
        "gen.er_s",
        median_of(reps, || {
            p1.install(|| timed(|| dsmatch_gen::erdos_renyi_square(n, DEGREE, seed)).1)
        }),
    );

    let mut entries: Vec<(usize, usize)> = g.csr().iter_entries().collect();
    let mut rng = Rng::new(seed, 3);
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.below(i + 1));
    }
    m.set(
        "graph.csr_build_s",
        median_of(reps, || {
            let mut t = TripletMatrix::with_capacity(n, g.ncols(), entries.len());
            for &(i, j) in &entries {
                t.push(i, j);
            }
            p1.install(|| timed(|| BipartiteGraph::from_csr(t.into_csr())).1)
        }),
    );
    drop(entries);

    let warm = inputs::warm_start(g, seed);
    m.set("graph.verify_s", median_of(5 * reps, || timed(|| warm.verify(g).is_ok()).1));

    let cfg = ScalingConfig::iterations(5);
    let mut scaling = ScalingResult::empty();
    let mut sk = |p: &rayon::ThreadPool| {
        median_of(reps, || p.install(|| timed(|| sinkhorn_knopp_into(g, &cfg, &mut scaling)).1))
    };
    let (sk2, sk1) = (sk(&p2), sk(&p1));
    m.set("scale.sk5_s", sk2);
    m.set("scale.sk5_1t_s", sk1);
    m.set("scale.speedup_2t", sk1 / sk2);
    m.set("scale.iterations", scaling.iterations as f64);

    let (mut rchoice, mut cchoice) = (Vec::new(), Vec::new());
    let mut choices = |p: &rayon::ThreadPool| {
        median_of(reps, || {
            p.install(|| {
                timed(|| two_sided_choices_into(g, &scaling, seed, &mut rchoice, &mut cchoice)).1
            })
        })
    };
    let (ch2, ch1) = (choices(&p2), choices(&p1));
    let mut scratch = dsmatch_core::KsMtScratch::new();
    let mut cardinality = 0;
    let mut ksmt = |p: &rayon::ThreadPool| {
        median_of(reps, || {
            p.install(|| {
                let (mt, t) = timed(|| karp_sipser_mt_ws(&rchoice, &cchoice, &mut scratch));
                cardinality = mt.cardinality();
                t
            })
        })
    };
    let (ks2, ks1) = (ksmt(&p2), ksmt(&p1));
    m.set("core.choices_s", ch2);
    m.set("core.choices_1t_s", ch1);
    m.set("core.ksmt_s", ks2);
    m.set("core.ksmt_1t_s", ks1);
    m.set("core.speedup_2t", (ch1 + ks1) / (ch2 + ks2));
    m.set("core.cardinality", cardinality as f64);
    m.set("core.quality_ratio", cardinality as f64 / sprank as f64);

    let pick = select_finisher(g);
    let mut aws = AugmentWorkspace::new();
    let mut phases = 0;
    let mut augmentations = 0;
    let mut fin = |p: &rayon::ThreadPool| {
        median_of(reps, || {
            p.install(|| {
                let ((done, ph), t) = timed(|| finish(pick, g, &warm, &mut aws));
                phases = ph;
                augmentations = done.cardinality() - warm.cardinality();
                t
            })
        })
    };
    let (f2, f1) = (fin(&p2), fin(&p1));
    m.set("exact.finish_s", f2);
    m.set("exact.finish_1t_s", f1);
    m.set("exact.speedup_2t", f1 / f2);
    m.set("exact.phases", phases as f64);
    m.set("exact.augmentations", augmentations as f64);

    let pipeline: Pipeline = pipeline.parse().expect("valid spec");
    let report = pipeline.with_seed(seed).solve(g, &mut Workspace::with_threads(THREADS));
    let text = report.to_json().to_string();
    m.set("json.report_s", median_of(20, || timed(|| report.to_json().to_string()).1));
    m.set("json.reply_bytes", text.len() as f64);
}

/// Per-layer times of the layers only the daemon's jobs reach, on the
/// serve workload's inputs, at 1 thread like the daemon's job slots:
/// CSR patching and the warm delta finisher, push-relabel on `skew`,
/// the weighted layer, the `dm` layer, job-line parsing, and the rayon
/// pool's per-pass overhead (at 2 threads).
fn serve_layers(seed: u64, m: &mut Metrics) {
    let (p1, p2) = (pool(1), pool(THREADS));
    let er = inputs::er(serve::N, serve::er_seed(seed));
    let mut aws = AugmentWorkspace::new();
    let base = p1.install(|| pothen_fan_par_ws(&er, None, &mut aws).0);
    let (add, remove) = inputs::delta_step(&er, &base, serve::DELTA_K, &mut Rng::new(seed, 4));
    m.set("graph.patch_s", median_of(20, || timed(|| er.csr().patched(&add, &remove)).1));
    let (mutated, pruned) = inputs::apply_delta(&er, &base, &add, &remove);
    let mut delta_phases = 0;
    m.set(
        "exact.delta_s",
        median_of(5, || {
            p1.install(|| {
                let ((_, s), t) = timed(|| pothen_fan_par_ws(&mutated, Some(&pruned), &mut aws));
                delta_phases = s.phases;
                t
            })
        }),
    );
    m.set("exact.delta_phases", delta_phases as f64);

    let skew = serve::skew_graph(seed);
    let skew_warm = inputs::warm_start(&skew, seed);
    m.set(
        "exact.skew_finish_s",
        median_of(5, || {
            let init = skew_warm.clone();
            p1.install(|| timed(|| push_relabel_from(&skew, init)).1)
        }),
    );

    let mut scaling = ScalingResult::empty();
    p1.install(|| sinkhorn_knopp_into(&er, &ScalingConfig::iterations(5), &mut scaling));
    let n_r = er.nrows();
    let edges: Vec<(usize, usize, f64)> = er
        .csr()
        .iter_entries()
        .map(|(i, j)| {
            let w = scaling.entry(i, j);
            (i, n_r + j, if w.is_finite() && w > 0.0 { w } else { f64::MIN_POSITIVE })
        })
        .collect();
    let n = n_r + er.ncols();
    m.set(
        "weighted.graph_build_s",
        median_of(3, || p1.install(|| timed(|| WeightedGraph::from_weighted_edges(n, &edges)).1)),
    );
    let wg = WeightedGraph::from_weighted_edges(n, &edges);
    m.set("weighted.suitor_s", median_of(3, || p1.install(|| timed(|| suitor(&wg)).1)));

    let mut blocks = 0;
    m.set(
        "dm.decompose_s",
        median_of(3, || {
            p1.install(|| {
                let (fine, t) = timed(|| fine_decomposition(&er, &dulmage_mendelsohn(&er)));
                blocks = fine.block_count;
                t
            })
        }),
    );
    m.set("dm.blocks", blocks as f64);

    let line = Json::obj(vec![
        ("id", Json::from(1u64)),
        ("op", Json::from("solve")),
        ("pipeline", Json::from("scale:sk:5,two,auto")),
        ("seed", Json::from(seed)),
        ("instance", Json::obj(vec![("handle", Json::from("er"))])),
    ])
    .to_string();
    const BATCH: usize = 200;
    m.set(
        "json.parse_s",
        median_of(20, || {
            timed(|| (0..BATCH).for_each(|_| drop(black_box(parse_json(&line))))).1 / BATCH as f64
        }),
    );

    m.set(
        "rayon.empty_pass_s",
        p2.install(|| {
            median_of(200, || {
                timed(|| {
                    (0..100_000usize).into_par_iter().for_each(|x| {
                        black_box(x);
                    })
                })
                .1
            })
        }),
    );
}

/// The traced run of the library workload.
pub fn run_library(bin: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut prep, _) = library::setup(seed);
    let g = &prep.graph;
    let (sprank, fingerprint) = library::reference(seed, g);
    let pairs = paired(g, &mut prep.ws, library::PIPELINE, sprank, seed, seconds / 2.0, 3);
    let mut m = Metrics::default();
    let layer_sum: f64 = pairs.layers.keys().map(|l| layer_p50(&pairs, l)).sum();
    m.set("trace.overhead_s", stats::median(&pairs.traced) - stats::median(&pairs.untraced));
    m.set("trace.remainder_s", stats::median(&pairs.untraced) - layer_sum);
    m.set("engine.self_s", stats::median(&pairs.engine_self));
    pipeline_layers(g, library::PIPELINE, sprank, seed, &mut m);
    drop(prep);
    serve_layers(seed, &mut m);
    let session = serve::session(bin, seed, &[(seconds / 2.0).min(4.0)], 50)?;
    serve::layer_metrics(&session, &mut m);
    let jobs: Vec<&serve::Record> = session.phases.iter().flatten().collect();
    let serve_failed = jobs.iter().filter(|r| r.failure.is_some()).count();
    Ok(Outcome {
        metrics: m,
        attempted: pairs.attempted + jobs.len(),
        failed: pairs.failed + serve_failed,
        fingerprint,
        detail: vec![
            ("paired_solves", Json::from(pairs.untraced.len())),
            ("serve_jobs", Json::from(jobs.len())),
        ],
    })
}

/// The traced run of `serve-mixed`: one daemon driven for `seconds` with
/// every reply's solve time recorded, then the layer sweeps on the same
/// inputs. Tracing overhead and the engine's own time come from the `er`
/// job's pipeline solved in-process on one thread, like the daemon's job
/// slots, untraced and traced in pairs.
pub fn run_serve(bin: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let session = serve::session(bin, seed, &[seconds], 50)?;
    let mut m = Metrics::default();
    serve::layer_metrics(&session, &mut m);

    let g = inputs::er(serve::N, serve::er_seed(seed));
    let sprank = inputs::sprank(&g);
    let mut ws = Workspace::with_threads(1);
    let pairs = paired(&g, &mut ws, Kind::Er.pipeline(), sprank, seed, 0.0, 10);
    m.set("trace.overhead_s", stats::median(&pairs.traced) - stats::median(&pairs.untraced));
    m.set("engine.self_s", stats::median(&pairs.engine_self));
    pipeline_layers(&g, Kind::Er.pipeline(), sprank, seed, &mut m);
    serve_layers(seed, &mut m);

    // What the measured layers leave of a job's latency: transport,
    // queueing and everything else between the socket and the solve.
    let all: Vec<&serve::Record> = session.phases.iter().flatten().collect();
    let solve: Vec<f64> = all.iter().filter_map(|r| r.report_seconds).collect();
    let latencies: Vec<f64> = all.iter().map(|r| r.seconds).collect();
    let json = m.get("json.parse_s").unwrap_or(0.0) + m.get("json.report_s").unwrap_or(0.0);
    m.set("trace.remainder_s", stats::median(&latencies) - stats::median(&solve) - json);
    let failed = all.iter().filter(|r| r.failure.is_some()).count() + pairs.failed;
    Ok(Outcome {
        metrics: m,
        attempted: all.len() + pairs.attempted,
        failed,
        fingerprint: session.fingerprint.clone(),
        detail: vec![
            ("serve_jobs", Json::from(all.len())),
            ("failures", serve::failures(all.iter().copied())),
        ],
    })
}
