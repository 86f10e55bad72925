//! Finisher matrix — the measurement behind `auto`'s finisher policy
//! ([`select_finisher`]), written to `BENCH_finishers.json`.
//!
//! Rows: the 11 distinct Table-3 surrogates (`venturiLevel3` repeats
//! `atmosmodl`'s mesh), `erdos_renyi_square` with average degree 8 (seeds
//! 1–6) and 4 (seeds 1–3), and `rmat(17, 8)`, all at `--n` rows; then the
//! dense rows at fixed sizes: `erdos_renyi_square(4000, 400)` (seeds 1–3)
//! and `(8000, 800)` (seed 1), fill ≈ 9.5 %, and `adversarial_ks(4000, 8)`
//! and `(8000, 16)`, fill ≈ 25 %. Each instance runs from two starts:
//! `warm`, the `scale:sk:5,two` matching (computed once, on one thread),
//! and `cold`, the empty matching.
//!
//! Columns: the exact finishers `pr`, `hk-par` and `pf-graft`, each in a
//! pool of 1 and of 2 threads. A cell is the median over `--runs` runs of
//! the finisher call alone, through the engines' cancellable entry points
//! with a 10 s deadline; a run that hits the deadline ends its cell, which
//! is recorded as `null`. Each row also names `auto`'s pick and the ratio
//! of the pick's time to the fastest engine's, per thread count.
//!
//! ```text
//! cargo run --release -p dsmatch_bench --bin finishers -- \
//!     [--n 100000] [--runs 5] [--out BENCH_finishers.json]
//! ```

use std::time::{Duration, Instant};

use dsmatch::engine::{select_finisher, Json, Pipeline, Solver, Workspace};
use dsmatch::gen::{adversarial_ks, erdos_renyi_square, rmat, suite, RmatParams};
use dsmatch_bench::{arg, median, write_json_file, Table};
use dsmatch_exact::{
    hopcroft_karp, hopcroft_karp_par_cancel, pothen_fan_graft_cancel, push_relabel_cancel,
    AugmentWorkspace,
};
use dsmatch_graph::{BipartiteGraph, CancelToken, Matching};

const ENGINES: [&str; 3] = ["pr", "hk-par", "pf-graft"];
const THREADS: [usize; 2] = [1, 2];
const DEADLINE: Duration = Duration::from_secs(10);

/// One timed finisher run, or `None` when it hit the deadline.
fn run_once(engine: &str, g: &BipartiteGraph, init: &Matching) -> Option<f64> {
    let mut ws = AugmentWorkspace::new();
    let owned = init.clone();
    let token = CancelToken::with_deadline(DEADLINE);
    let t0 = Instant::now();
    let m = match engine {
        "pr" => push_relabel_cancel(g, owned, &token).map(|r| r.0),
        "hk-par" => hopcroft_karp_par_cancel(g, Some(init), &mut ws, &token).map(|r| r.0),
        "pf-graft" => pothen_fan_graft_cancel(g, Some(init), &mut ws, &token).map(|r| r.0),
        other => unreachable!("{other} is not in the matrix"),
    };
    let seconds = t0.elapsed().as_secs_f64();
    std::hint::black_box(m.ok()?.cardinality());
    Some(seconds)
}

/// Median of `runs` runs in a pool of `threads`, or `None` once one run
/// hits the deadline.
fn cell(
    engine: &str,
    threads: usize,
    g: &BipartiteGraph,
    init: &Matching,
    runs: usize,
) -> Option<f64> {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool build");
    let times: Option<Vec<f64>> =
        (0..runs).map(|_| pool.install(|| run_once(engine, g, init))).collect();
    times.map(|t| median(&t))
}

/// The instances of the matrix, named as in the JSON rows.
fn instances(n: usize) -> Vec<(String, BipartiteGraph)> {
    let mut out: Vec<(String, BipartiteGraph)> = suite::instances()
        .into_iter()
        .filter(|e| e.name != "venturiLevel3")
        .map(|e| (e.name.to_string(), e.build(n, 1)))
        .collect();
    for (d, seeds) in [(8.0, 1..=6u64), (4.0, 1..=3)] {
        for s in seeds {
            out.push((format!("er:d{d}:s{s}"), erdos_renyi_square(n, d, s)));
        }
    }
    out.push(("rmat:17:8".into(), rmat(17, 8.0, RmatParams::GRAPH500, 1)));
    for (n, d, s) in [(4000, 400.0, 1), (4000, 400.0, 2), (4000, 400.0, 3), (8000, 800.0, 1)] {
        out.push((format!("er:{n}:{d}:s{s}"), erdos_renyi_square(n, d, s)));
    }
    for (n, k) in [(4000, 8), (8000, 16)] {
        out.push((format!("adversarial_ks:{n}:{k}"), adversarial_ks(n, k)));
    }
    out
}

/// The machine the matrix was measured on.
fn host() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.split_once(':').filter(|(k, _)| k.trim() == "model name"))
        .map_or("unknown", |(_, v)| v.trim());
    Json::obj(vec![
        (
            "available_parallelism",
            Json::from(std::thread::available_parallelism().map_or(0, |p| p.get())),
        ),
        ("cpu_model", Json::from(cpu_model)),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
    ])
}

fn main() {
    let n: usize = arg("n", 100_000);
    let runs: usize = arg("runs", 5);
    let out: String = arg("out", "BENCH_finishers.json".to_string());
    let warm_spec: Pipeline = "scale:sk:5,two".parse().expect("valid spec");

    let mut table = Table::new(
        ["instance", "start", "auto"]
            .into_iter()
            .map(String::from)
            .chain(THREADS.iter().flat_map(|t| ENGINES.map(|e| format!("{e}@{t}t (s)"))))
            .collect(),
    );
    let mut rows = Vec::new();
    for (name, g) in instances(n) {
        let pick = select_finisher(&g).name();
        let sprank = hopcroft_karp(&g).cardinality();
        let warm = warm_spec.solve(&g, &mut Workspace::with_threads(1)).matching;
        for (start, init) in [("warm", warm), ("cold", Matching::new(g.nrows(), g.ncols()))] {
            let mut row = vec![name.clone(), start.to_string(), pick.to_string()];
            let mut per_threads = Vec::new();
            for threads in THREADS {
                let secs: Vec<Option<f64>> =
                    ENGINES.iter().map(|e| cell(e, threads, &g, &init, runs)).collect();
                row.extend(secs.iter().map(|s| s.map_or("timeout".into(), |s| format!("{s:.4}"))));
                let fastest = secs.iter().flatten().copied().fold(f64::INFINITY, f64::min);
                let picked = ENGINES.iter().position(|&e| e == pick).and_then(|k| secs[k]);
                per_threads.push(Json::obj(vec![
                    ("threads", Json::from(threads)),
                    (
                        "seconds",
                        Json::obj(
                            ENGINES
                                .iter()
                                .zip(&secs)
                                .map(|(&e, s)| (e, s.map_or(Json::Null, Json::from)))
                                .collect(),
                        ),
                    ),
                    ("auto_over_fastest", picked.map_or(Json::Null, |p| Json::from(p / fastest))),
                ]));
            }
            table.push(row);
            rows.push(Json::obj(vec![
                ("instance", Json::from(name.as_str())),
                ("n", Json::from(g.nrows())),
                ("nnz", Json::from(g.nnz())),
                ("sprank", Json::from(sprank)),
                ("start", Json::from(start)),
                ("initial_cardinality", Json::from(init.cardinality())),
                ("auto", Json::from(pick)),
                ("times", Json::Arr(per_threads)),
            ]));
        }
    }
    table.print();

    let doc = Json::obj(vec![
        ("host", host()),
        (
            "protocol",
            Json::obj(vec![
                ("runs", Json::from(runs)),
                ("statistic", Json::from("median of the finisher call alone")),
                ("deadline_s", Json::from(DEADLINE.as_secs())),
                ("warm_start", Json::from("scale:sk:5,two, seed 1, 1 thread")),
                ("engines", Json::Arr(ENGINES.iter().map(|&e| Json::from(e)).collect())),
            ]),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    write_json_file(&out, &doc).expect("writing the JSON result file");
    println!("wrote {out}");
}
