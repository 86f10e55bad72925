//! Multicore speedup sweep — the measurement behind the paper's Figures
//! 3–4, rerun on the workspace's real `std::thread` parallel runtime, and
//! written to the machine-readable `BENCH_speedup.json` artifact.
//!
//! For every kernel and every thread count in the ladder (default
//! `{1, 2, 4, 8}`), the kernel runs inside a dedicated pool of exactly
//! that many workers; wall times follow the paper's §4.2 protocol
//! (`--runs` executions, first `--warmup` discarded, geometric mean) and
//! speedups are reported relative to the 1-thread pool.
//!
//! Kernels:
//!
//! - `ksmt` — Algorithm 4 (`KarpSipserMT`) on pre-sampled choice arrays,
//!   reusing one scratch so only matching work is timed — the skewed
//!   chain-walk kernel the work-stealing scheduler targets;
//! - `scale_sk5` / `scale_ruiz5` — five scaling iterations into a reused
//!   [`ScalingResult`];
//! - `one_sided` / `two_sided` — the full pipelines
//!   `scale:sk:5,one` / `scale:sk:5,two` through the engine;
//! - `pf_par_finish` / `hk_par_finish` / `pf_graft_finish` / `pr_finish` /
//!   `auto_finish` — the exact finishers (`pf-par` tree-grafting BFS,
//!   `hk-par` level-synchronized BFS, `pf-graft` incremental tree
//!   grafting, `pr` push-relabel, and the statistics-driven `auto` pick)
//!   warm-started from a pre-computed two-sided heuristic matching: only
//!   finisher work (the paper pipelines' last sequential bottleneck) is
//!   timed. Finishers with phase structure also report their
//!   deterministic phase count (measured once, untimed) — the work
//!   measure behind `pf-graft`'s fewer-forest-rebuilds win, gated by
//!   `trendcheck`;
//! - `suitor_par` — the parallel suitor weighted matching on the
//!   scaling-entry weights (grammar v2's `scale:sk:5,suitor-par`
//!   workload), graph built once untimed so only matching work is timed;
//! - `batch32` — 32 small instances solved through
//!   [`Pipeline::solve_batch`] over a per-worker [`WorkspacePool`] of the
//!   ladder's thread count: batch-level parallelism, one stealable task
//!   per instance;
//! - `dm_block_batch` — a block-diagonal instance solved through the
//!   `dm,scale:sk:5,two,pf` decomposition pipeline: fine blocks fan out
//!   as stealable per-block jobs on the workspace's dm pool, sized to the
//!   ladder's thread count.
//!
//! The report includes the machine's available parallelism so downstream
//! tooling can judge whether the ladder oversubscribed the host (on a
//! 1-core container every speedup is honestly ~1×).
//!
//! ```text
//! cargo run --release -p dsmatch_bench --bin speedup -- \
//!     [--n 100000] [--deg 8.0] [--runs 7] [--warmup 2] [--seed 1] \
//!     [--max-threads 8] [--out BENCH_speedup.json]
//! ```

use dsmatch::engine::{
    select_finisher, weighted_view, AlgorithmKind, Json, Pipeline, Solver, Workspace, WorkspacePool,
};
use dsmatch::weighted::suitor_parallel;
use dsmatch_bench::{arg, write_json_file, Table};
use dsmatch_core::{karp_sipser_mt_ws, two_sided_choices, KsMtScratch};
use dsmatch_exact::{
    hopcroft_karp_par_ws, pothen_fan_graft_ws, pothen_fan_par_ws, push_relabel_from,
    AugmentWorkspace,
};
use dsmatch_graph::{BipartiteGraph, TripletMatrix};
use dsmatch_scale::{ruiz_into, sinkhorn_knopp, sinkhorn_knopp_into, ScalingConfig, ScalingResult};

/// One timed kernel: a name, a closure run entirely inside the pool, and
/// (for the exact finishers) the kernel's deterministic phase count,
/// measured once untimed — the parallel finishers are byte-identical at
/// every pool size, so one count describes the whole ladder.
struct Kernel<'a> {
    name: &'static str,
    run: Box<dyn FnMut() + Send + 'a>,
    phases: Option<usize>,
}

fn ladder(max: usize) -> Vec<usize> {
    [1usize, 2, 4, 8].into_iter().filter(|&t| t <= max.max(1)).collect()
}

fn time_kernel(pool: &rayon::ThreadPool, runs: usize, warmup: usize, k: &mut Kernel) -> f64 {
    // `time_stats` is the harness's single copy of the §4.2 protocol
    // (runs, warmup discard, geometric mean) — every kernel in the sweep
    // must go through it so their numbers stay comparable.
    dsmatch_bench::time_stats(runs, warmup, || pool.install(&mut k.run))
}

/// Append one kernel's thread-ladder timings to the table and the JSON
/// kernel list (times, plus speedups relative to the 1-thread pool). The
/// JSON shape comes from [`dsmatch_bench::speedup_doc`], the schema module
/// `trendcheck` reads with — writer and gate cannot drift apart.
fn record(
    name: &str,
    ts: &[usize],
    seconds: &[f64],
    phases: Option<usize>,
    table: &mut Table,
    kernel_docs: &mut Vec<Json>,
) {
    let base = seconds[0];
    let speedups: Vec<f64> = seconds.iter().map(|&s| base / s.max(1e-12)).collect();
    let mut row = vec![name.to_string()];
    row.extend(seconds.iter().map(|s| format!("{s:.5}")));
    row.push(format!("{:.2}x", speedups.last().copied().unwrap_or(1.0)));
    row.push(phases.map_or_else(|| "—".into(), |p| p.to_string()));
    table.push(row);
    kernel_docs
        .push(dsmatch_bench::speedup_doc::kernel_entry(name, ts, seconds, &speedups, phases));
}

fn main() {
    let n: usize = arg("n", 100_000);
    let deg: f64 = arg("deg", 8.0);
    let runs: usize = arg("runs", 7);
    let warmup: usize = arg("warmup", 2);
    let seed: u64 = arg("seed", 1);
    let max_threads: usize = arg("max-threads", 8);
    let out: String = arg("out", "BENCH_speedup.json".to_string());
    assert!(warmup < runs, "--warmup must be below --runs");

    let available = std::thread::available_parallelism().map_or(1, |p| p.get());
    let g: BipartiteGraph = dsmatch::gen::erdos_renyi_square(n, deg, seed);
    println!(
        "instance: er n={n} deg={deg} seed={seed}  nnz={}  (host parallelism: {available})",
        g.nnz()
    );

    // Shared pre-computed inputs so each kernel times only its own work.
    let scaling = sinkhorn_knopp(&g, &ScalingConfig::iterations(5));
    let (rchoice, cchoice) = two_sided_choices(&g, &scaling, seed);

    // The weighted view of the instance (scaling entries as edge weights,
    // the engine's probability bridge), built once untimed so the
    // `suitor_par` kernel times matching work only.
    let wg = weighted_view(&g, &scaling);

    let ts = ladder(max_threads);
    let mut table = Table::new(
        std::iter::once("kernel".to_string())
            .chain(ts.iter().map(|t| format!("t={t} (s)")))
            .chain(["speedup@max".to_string(), "phases".to_string()])
            .collect(),
    );
    let mut kernel_docs: Vec<Json> = Vec::new();

    // Reused scratch, one per kernel, warmed inside the timed closures on
    // their first (discarded) run.
    let mut ksmt_ws = KsMtScratch::new();
    let mut sk_out = ScalingResult::empty();
    let mut ruiz_out = ScalingResult::empty();
    let mut one_ws = Workspace::new();
    let mut two_ws = Workspace::new();
    let one_pipeline: Pipeline = "scale:sk:5,one".parse().expect("valid spec");
    let two_pipeline: Pipeline = "scale:sk:5,two".parse().expect("valid spec");
    let sk_cfg = ScalingConfig::iterations(5);

    // Warm start for the finisher kernels: the §4 protocol's two-sided
    // heuristic matching at the sweep seed, computed once and untimed, so
    // the finisher kernels measure only augmentation work.
    let finisher_init =
        two_pipeline.clone().with_seed(seed).solve(&g, &mut Workspace::new()).matching;
    let mut pf_par_ws = AugmentWorkspace::new();
    let mut hk_par_ws = AugmentWorkspace::new();
    let mut pf_graft_ws = AugmentWorkspace::new();
    let mut auto_ws = AugmentWorkspace::new();

    // Deterministic phase counts of the finisher kernels, one untimed run
    // each (byte-identical at every pool size, so also phase-identical).
    let pf_par_phases =
        pothen_fan_par_ws(&g, Some(&finisher_init), &mut AugmentWorkspace::new()).1.phases;
    let hk_par_phases =
        hopcroft_karp_par_ws(&g, Some(&finisher_init), &mut AugmentWorkspace::new()).1.phases;
    let pf_graft_phases =
        pothen_fan_graft_ws(&g, Some(&finisher_init), &mut AugmentWorkspace::new()).1.phases;

    // The statistics-driven pick, resolved once (the policy is a pure
    // function of the instance) and dispatched directly so the kernel
    // times only finisher work — the engine would add pipeline plumbing.
    let auto_pick = select_finisher(&g);
    let auto_phases = match auto_pick {
        AlgorithmKind::PothenFanGraft => Some(pf_graft_phases),
        AlgorithmKind::HopcroftKarpPar => Some(hk_par_phases),
        _ => None,
    };
    println!("auto finisher pick for this instance: {auto_pick}");

    let mut kernels: Vec<Kernel> = vec![
        Kernel {
            name: "ksmt",
            run: Box::new(|| {
                std::hint::black_box(karp_sipser_mt_ws(&rchoice, &cchoice, &mut ksmt_ws));
            }),
            phases: None,
        },
        Kernel {
            name: "scale_sk5",
            run: Box::new(|| {
                sinkhorn_knopp_into(&g, &sk_cfg, &mut sk_out);
                std::hint::black_box(sk_out.error);
            }),
            phases: None,
        },
        Kernel {
            name: "scale_ruiz5",
            run: Box::new(|| {
                ruiz_into(&g, &sk_cfg, &mut ruiz_out);
                std::hint::black_box(ruiz_out.error);
            }),
            phases: None,
        },
        Kernel {
            name: "one_sided",
            run: Box::new(|| {
                std::hint::black_box(
                    one_pipeline.clone().with_seed(seed).solve(&g, &mut one_ws).cardinality(),
                );
            }),
            phases: None,
        },
        Kernel {
            name: "two_sided",
            run: Box::new(|| {
                std::hint::black_box(
                    two_pipeline.clone().with_seed(seed).solve(&g, &mut two_ws).cardinality(),
                );
            }),
            phases: None,
        },
        Kernel {
            name: "pf_par_finish",
            run: Box::new(|| {
                std::hint::black_box(
                    pothen_fan_par_ws(&g, Some(&finisher_init), &mut pf_par_ws).0.cardinality(),
                );
            }),
            phases: Some(pf_par_phases),
        },
        Kernel {
            name: "hk_par_finish",
            run: Box::new(|| {
                std::hint::black_box(
                    hopcroft_karp_par_ws(&g, Some(&finisher_init), &mut hk_par_ws).0.cardinality(),
                );
            }),
            phases: Some(hk_par_phases),
        },
        Kernel {
            name: "pf_graft_finish",
            run: Box::new(|| {
                std::hint::black_box(
                    pothen_fan_graft_ws(&g, Some(&finisher_init), &mut pf_graft_ws).0.cardinality(),
                );
            }),
            phases: Some(pf_graft_phases),
        },
        Kernel {
            name: "suitor_par",
            run: Box::new(|| {
                std::hint::black_box(suitor_parallel(&wg).cardinality());
            }),
            phases: None,
        },
        Kernel {
            name: "pr_finish",
            // `push_relabel_from` consumes its warm start; the O(n) clone
            // is timed but is noise next to the O(nnz)+ augmentation work.
            run: Box::new(|| {
                std::hint::black_box(push_relabel_from(&g, finisher_init.clone()).0.cardinality());
            }),
            phases: None,
        },
        Kernel {
            name: "auto_finish",
            run: Box::new(|| {
                std::hint::black_box(match auto_pick {
                    AlgorithmKind::PothenFanGraft => {
                        pothen_fan_graft_ws(&g, Some(&finisher_init), &mut auto_ws).0.cardinality()
                    }
                    AlgorithmKind::HopcroftKarpPar => {
                        hopcroft_karp_par_ws(&g, Some(&finisher_init), &mut auto_ws).0.cardinality()
                    }
                    _ => push_relabel_from(&g, finisher_init.clone()).0.cardinality(),
                });
            }),
            phases: auto_phases,
        },
    ];

    for kernel in &mut kernels {
        let mut seconds = Vec::with_capacity(ts.len());
        for &t in &ts {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().expect("pool build");
            seconds.push(time_kernel(&pool, runs, warmup, kernel));
        }
        record(kernel.name, &ts, &seconds, kernel.phases, &mut table, &mut kernel_docs);
    }

    // Batch-level parallelism: 32 small instances fanned across a
    // per-worker workspace pool (`Pipeline::solve_batch`) — the server
    // workload where parallelism pays one level above the solver stages.
    // Each thread count gets its own WorkspacePool (built untimed).
    let batch_instances: Vec<BipartiteGraph> = (0..32)
        .map(|k| dsmatch::gen::erdos_renyi_square((n / 16).max(64), deg, seed.wrapping_add(k)))
        .collect();
    let batch_jobs: Vec<(&BipartiteGraph, u64)> =
        batch_instances.iter().map(|g| (g, seed)).collect();
    let batch_pipeline: Pipeline = "scale:sk:5,two".parse().expect("valid spec");
    let mut batch_seconds = Vec::with_capacity(ts.len());
    for &t in &ts {
        let wsp: WorkspacePool = Workspace::per_worker(t);
        batch_seconds.push(dsmatch_bench::time_stats(runs, warmup, || {
            std::hint::black_box(batch_pipeline.solve_batch(&batch_jobs, &wsp).len());
        }));
    }
    record("batch32", &ts, &batch_seconds, None, &mut table, &mut kernel_docs);

    // Decomposition fan-out: a block-diagonal instance whose fine blocks
    // become stealable per-block jobs on the workspace's dm pool. Each
    // thread count gets its own workspace (and so its own pool size); the
    // stitched mates are byte-identical across the whole ladder, so the
    // sweep times pure scheduling.
    let dm_blocks = 16;
    let dm_bn = (n / 64).max(64);
    let mut dm_tm = TripletMatrix::new(dm_blocks * dm_bn, dm_blocks * dm_bn);
    for b in 0..dm_blocks {
        let sub = dsmatch::gen::erdos_renyi_square(dm_bn, deg, seed.wrapping_add(b as u64));
        for i in 0..dm_bn {
            for &j in sub.row_adj(i) {
                dm_tm.push(b * dm_bn + i, b * dm_bn + j as usize);
            }
        }
    }
    let dm_g = BipartiteGraph::from_csr(dm_tm.into_csr());
    let dm_pipeline: Pipeline = "dm,scale:sk:5,two,pf".parse().expect("valid spec");
    let mut dm_seconds = Vec::with_capacity(ts.len());
    for &t in &ts {
        let mut ws = Workspace::with_threads(t);
        dm_seconds.push(dsmatch_bench::time_stats(runs, warmup, || {
            std::hint::black_box(
                dm_pipeline.clone().with_seed(seed).solve(&dm_g, &mut ws).cardinality(),
            );
        }));
    }
    record("dm_block_batch", &ts, &dm_seconds, None, &mut table, &mut kernel_docs);
    table.print();

    let doc = Json::obj(vec![
        (
            "machine",
            Json::obj(vec![
                ("available_parallelism", Json::from(available)),
                ("thread_ladder", Json::Arr(ts.iter().map(|&t| Json::from(t)).collect())),
            ]),
        ),
        (
            "instance",
            Json::obj(vec![
                ("family", Json::from("er")),
                ("n", Json::from(n)),
                ("avg_degree", Json::from(deg)),
                ("seed", Json::from(seed)),
                ("nnz", Json::from(g.nnz())),
            ]),
        ),
        (
            "protocol",
            Json::obj(vec![
                ("runs", Json::from(runs)),
                ("warmup", Json::from(warmup)),
                ("timing", Json::from("geometric mean after warmup; speedup vs 1-thread pool")),
            ]),
        ),
        ("kernels", Json::Arr(kernel_docs)),
    ]);
    write_json_file(&out, &doc).expect("writing the JSON result file");
    println!("wrote {out}");
}
