//! `dsmatch` command-line tool: run any pipeline of the workspace's solver
//! engine on a Matrix Market file or a synthesized instance.
//!
//! ```text
//! dsmatch <matrix.mtx | gen:er:<n>:<avg_degree>[:<seed>]>
//!         [--pipeline [dm,][scale[:sk|ruiz][:iters],]<workload>[,<exact-finisher>]]
//!         [--algo one|two|ks|ksmt|one-out|cheap|cheap-vertex|hk|pf|pr|bfs|hk-par|pf-par|pf-graft|auto]
//!         [--iters N] [--seed S] [--batch N] [--batch-par] [--threads T]
//!         [--quality] [--json] [--output pairs.txt]
//! ```
//!
//! `--pipeline` takes a full engine spec (e.g. `scale:sk:5,two,pf`);
//! `--algo` plus `--iters` is the classic shorthand for the same thing
//! (`--algo two --iters 5` ≡ `--pipeline scale:sk:5,two`).
//!
//! Grammar v2 workloads go beyond the cardinality registry: the weighted
//! heuristics `greedy-w|path-grow|suitor|suitor-par` match on the scaling
//! entries as edge weights (`scale:sk:5,suitor` reports a `weight`
//! alongside cardinality), and a `dm,` prefix (`dm,two,pf`) runs the
//! coarse+fine Dulmage–Mendelsohn decomposition first, solving each fine
//! block independently with the inner pipeline.
//!
//! `--batch N` solves the instance `N` times with seeds `S, S+1, …`,
//! reusing one engine [`Workspace`] so only the first solve allocates — the
//! batch/server mode of the engine layer. Adding `--batch-par` fans the
//! batch across a [`WorkspacePool`] (one reusable workspace per worker):
//! solves run concurrently — batch-level instead of stage-level
//! parallelism — while each run's result stays byte-identical to its
//! 1-thread solve and reports keep their submission order.
//!
//! `--quality` additionally computes the exact optimum (Hopcroft–Karp) and
//! reports the quality ratio — the measurement protocol of the paper's §4.
//! `--json` prints one machine-readable JSON object instead of text.
//! `--output` writes the matched `(row, col)` pairs (1-based) of the best
//! run to a file.
//!
//! ## Daemon mode
//!
//! ```text
//! dsmatch serve [--threads T] [--max-queue N] [--cache-mb M] [--socket PATH]
//!               [--max-clients C] [--default-deadline-ms D] [--max-line-mb L]
//! ```
//!
//! runs the matching-as-a-service daemon: newline-delimited JSON jobs in
//! (stdin, or a Unix socket with `--socket` — served **concurrently**, one
//! session per client), one JSON report line out per job as it completes —
//! each job carrying its own pipeline spec, instance reference (inline
//! pattern, `gen:` spec, or a cached handle), optionally an incremental
//! `delta` re-solve against a cached instance, and optionally a
//! `"deadline_ms"` budget after which the solve is cancelled cooperatively
//! (`--default-deadline-ms` supplies one to jobs that carry none).
//! SIGTERM, stdin close, and the `shutdown` op all drain in-flight jobs
//! before exiting. See [`dsmatch::engine::serve`] for the protocol.

use dsmatch::engine::{
    Json, Pipeline, ServeOptions, SolveReport, Solver, Workspace, WorkspacePool,
};
use dsmatch::prelude::*;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

fn arg_value(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| *a == flag).and_then(|k| args.get(k + 1).cloned()).or_else(|| {
        args.iter().find_map(|a| a.strip_prefix(&format!("--{name}=")).map(String::from))
    })
}

fn flag(name: &str) -> bool {
    let needle = format!("--{name}");
    std::env::args().any(|a| a == needle)
}

/// Load a Matrix Market file, or synthesize an instance from a `gen:` spec
/// (`gen:er:<n>:<avg_degree>[:<seed>]` — an n×n Erdős–Rényi pattern), so
/// smoke tests and quick experiments need no matrix files on disk.
fn load_graph(path: &str) -> Result<BipartiteGraph, String> {
    match path.strip_prefix("gen:") {
        // One grammar for the CLI positional and the serve protocol's
        // string instance refs: the engine owns the gen-spec parser.
        Some(spec) => dsmatch::engine::parse_gen_spec(spec),
        None => {
            let csr =
                dsmatch::graph::io::read_matrix_market_file(path).map_err(|e| e.to_string())?;
            Ok(BipartiteGraph::from_csr(csr))
        }
    }
}

fn geometric_mean(xs: &[f64]) -> f64 {
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

fn print_usage() {
    eprintln!(
        "usage: dsmatch <matrix.mtx | gen:er:<n>:<avg_degree>[:<seed>]> \
         [--pipeline [dm,][scale[:sk|ruiz][:iters],]<workload>[,<exact-finisher>]] \
         (workloads: any --algo name, or weighted greedy-w|path-grow|suitor|suitor-par) \
         [--algo one|two|ks|ksmt|one-out|cheap|cheap-vertex|hk|pf|pr|bfs|hk-par|pf-par|pf-graft|auto] \
         [--iters N] [--seed S] [--batch N] [--batch-par] [--threads T] \
         [--quality] [--json] [--output pairs.txt]\n\
         \x20      dsmatch serve [--threads T] [--max-queue N] [--cache-mb M] [--socket PATH] \
         [--max-clients C] [--default-deadline-ms D] [--max-line-mb L]"
    );
}

/// SIGTERM latch: the handler only flips this flag; the serve daemon
/// polls it and drains in-flight jobs before exiting, so `kill <pid>`
/// gets the same guarantees as a `shutdown` op.
static TERM: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_latch() {
    const SIGTERM: i32 = 15;
    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `signal` is async-signal-safe to install, and the handler
    // only performs an atomic store (itself async-signal-safe).
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_latch() {}

/// `dsmatch serve`: run the matching daemon over stdin/stdout, or over a
/// Unix socket with `--socket PATH`.
fn serve_main() -> ExitCode {
    let mut opts = ServeOptions::default();
    for (name, slot) in [
        ("threads", &mut opts.threads),
        ("max-queue", &mut opts.max_queue),
        ("max-clients", &mut opts.max_clients),
    ] {
        if let Some(v) = arg_value(name) {
            match v.parse() {
                Ok(n) => *slot = n,
                Err(_) => {
                    eprintln!("--{name} expects a non-negative integer, got {v:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if opts.max_queue == 0 {
        eprintln!("--max-queue 0 would reject every job; pass a positive bound");
        return ExitCode::FAILURE;
    }
    for (name, slot) in
        [("cache-mb", &mut opts.cache_bytes), ("max-line-mb", &mut opts.max_line_bytes)]
    {
        if let Some(v) = arg_value(name) {
            match v.parse::<usize>() {
                Ok(mb) => *slot = mb << 20,
                Err(_) => {
                    eprintln!("--{name} expects a non-negative integer, got {v:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(v) = arg_value("default-deadline-ms") {
        match v.parse::<u64>() {
            Ok(ms) => opts.default_deadline_ms = ms,
            Err(_) => {
                eprintln!("--default-deadline-ms expects a non-negative integer, got {v:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    install_sigterm_latch();
    opts.stop = Some(&TERM);
    match arg_value("socket") {
        Some(path) => {
            #[cfg(unix)]
            match dsmatch::engine::serve_unix_socket(std::path::Path::new(&path), &opts) {
                Ok(summary) => {
                    eprintln!(
                        "served {} jobs ({} ok, {} errors)",
                        summary.jobs, summary.ok, summary.errors
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("serve: socket {path}: {e}");
                    ExitCode::FAILURE
                }
            }
            #[cfg(not(unix))]
            {
                eprintln!("serve: --socket {path} requires a Unix platform; use stdin mode");
                ExitCode::FAILURE
            }
        }
        None => {
            // `Stdin` itself (not its non-Send lock) goes to the daemon's
            // detached reader thread.
            let input = std::io::BufReader::new(std::io::stdin());
            let summary = dsmatch::engine::serve(input, std::io::stdout(), &opts);
            eprintln!(
                "served {} jobs ({} ok, {} errors)",
                summary.jobs, summary.ok, summary.errors
            );
            ExitCode::SUCCESS
        }
    }
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1).filter(|a| !a.starts_with("--")) else {
        print_usage();
        return ExitCode::FAILURE;
    };
    if path == "serve" {
        return serve_main();
    }
    let seed: u64 = arg_value("seed").and_then(|v| v.parse().ok()).unwrap_or(1);
    let pipeline = match arg_value("pipeline") {
        Some(spec) => {
            for shadowed in ["algo", "iters"] {
                if arg_value(shadowed).is_some() {
                    eprintln!(
                        "--{shadowed} is ignored when --pipeline is given; \
                         put the stage in the pipeline spec instead"
                    );
                }
            }
            match spec.parse::<Pipeline>() {
                Ok(p) => p.with_seed(seed),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let algo = match arg_value("algo").unwrap_or_else(|| "two".into()).parse() {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let iters = arg_value("iters").and_then(|v| v.parse().ok()).unwrap_or(5);
            Pipeline::classic(algo, iters, seed)
        }
    };
    let batch_arg = arg_value("batch");
    let batch_par = flag("batch-par");
    if batch_par && batch_arg.is_none() {
        eprintln!(
            "--batch-par parallelizes across the runs of a batch and \
             requires --batch N; pass both or drop --batch-par"
        );
        return ExitCode::FAILURE;
    }
    let batch: usize = match batch_arg {
        None => 1,
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--batch expects a positive number of runs, got {v:?}");
                return ExitCode::FAILURE;
            }
        },
    };
    let want_quality = flag("quality");
    let want_json = flag("json");

    // `--threads T` builds a workspace-owned pool of exactly T workers;
    // without the flag, solves use the ambient pool (RAYON_NUM_THREADS or
    // the machine's available parallelism). With `--batch-par` the pool
    // instead backs a WorkspacePool that fans whole batch runs across the
    // workers. The probe below counts the distinct worker threads that
    // actually execute a parallel region, so the report states genuine
    // parallelism, not a configured wish.
    let threads_requested = match arg_value("threads") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(0) => {
                eprintln!(
                    "--threads 0 is not a thread count; pass a positive number \
                     (or omit --threads for the ambient pool size)"
                );
                return ExitCode::FAILURE;
            }
            Ok(t) => Some(t),
            Err(_) => {
                eprintln!("--threads expects a positive number of workers, got {v:?}");
                return ExitCode::FAILURE;
            }
        },
    };
    let batch_pool = batch_par.then(|| Workspace::per_worker(threads_requested.unwrap_or(0)));
    let mut ws = match (&batch_pool, threads_requested) {
        (Some(_), _) => Workspace::new(), // unused; solves go through the pool
        (None, Some(t)) => Workspace::with_threads(t),
        (None, None) => Workspace::new(),
    };
    let pool_size = batch_pool.as_ref().map_or_else(|| ws.threads(), WorkspacePool::threads);
    let observed_workers = match &batch_pool {
        Some(p) => p.run(dsmatch::engine::observed_parallelism),
        None => ws.run(|_| dsmatch::engine::observed_parallelism()),
    };
    eprintln!("thread pool: {pool_size} threads ({observed_workers} distinct workers observed)");

    let t0 = Instant::now();
    let g = match load_graph(&path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loaded {} × {} with {} entries in {:.2?}",
        g.nrows(),
        g.ncols(),
        g.nnz(),
        t0.elapsed()
    );

    // Batch mode: N solves with seeds S, S+1, … — sequentially reusing one
    // workspace, or (--batch-par) fanned across the workspace pool with
    // reports kept in submission order.
    let mut reports: Vec<SolveReport> = match &batch_pool {
        Some(pool) => {
            let jobs: Vec<(&dsmatch::graph::BipartiteGraph, u64)> =
                (0..batch).map(|k| (&g, seed.wrapping_add(k as u64))).collect();
            pipeline.solve_batch(&jobs, pool)
        }
        None => (0..batch)
            .map(|k| pipeline.clone().with_seed(seed.wrapping_add(k as u64)).solve(&g, &mut ws))
            .collect(),
    };
    for report in &reports {
        if let Err(e) = report.matching.verify(&g) {
            eprintln!("INTERNAL ERROR: produced an invalid matching: {e}");
            return ExitCode::FAILURE;
        }
    }
    let optimum = want_quality.then(|| sprank(&g));
    if let Some(opt) = optimum {
        for report in &mut reports {
            report.set_quality(opt);
        }
    }

    let best =
        reports.iter().enumerate().max_by_key(|(_, r)| r.cardinality()).map(|(k, _)| k).unwrap();
    let times: Vec<f64> = reports.iter().map(|r| r.total_seconds()).collect();

    if want_json {
        let runs: Vec<Json> = reports
            .iter()
            .enumerate()
            .map(|(k, r)| {
                let Json::Obj(mut pairs) = r.to_json() else { unreachable!("reports are objects") };
                pairs.insert(0, ("seed".into(), Json::from(seed.wrapping_add(k as u64))));
                Json::Obj(pairs)
            })
            .collect();
        let doc = Json::obj(vec![
            (
                "instance",
                Json::obj(vec![
                    ("source", Json::from(path.as_str())),
                    ("nrows", Json::from(g.nrows())),
                    ("ncols", Json::from(g.ncols())),
                    ("nnz", Json::from(g.nnz())),
                ]),
            ),
            ("pipeline", Json::from(pipeline.spec())),
            (
                "threads",
                Json::obj(vec![
                    ("requested", Json::opt(threads_requested)),
                    ("pool", Json::from(pool_size)),
                    ("observed_workers", Json::from(observed_workers)),
                    ("batch_par", Json::from(batch_par)),
                ]),
            ),
            ("optimum", Json::opt(optimum)),
            ("runs", Json::Arr(runs)),
            (
                "summary",
                Json::obj(vec![
                    ("solves", Json::from(batch)),
                    ("best_cardinality", Json::from(reports[best].cardinality())),
                    ("total_seconds", Json::from(times.iter().sum::<f64>())),
                    ("geomean_seconds", Json::from(geometric_mean(&times))),
                ]),
            ),
        ]);
        println!("{doc}");
    } else {
        println!("pipeline      : {pipeline}");
        for (k, report) in reports.iter().enumerate() {
            if batch > 1 {
                println!("run {k:>3}       : seed {}", seed.wrapping_add(k as u64));
            }
            for stage in &report.stages {
                let card =
                    stage.cardinality.map_or(String::new(), |c| format!("  cardinality {c}"));
                let augs =
                    stage.augmentations.map_or(String::new(), |a| format!("  augmentations {a}"));
                let phases = stage.phases.map_or(String::new(), |p| format!("  phases {p}"));
                let sel =
                    stage.selected.as_deref().map_or(String::new(), |s| format!("  selected {s}"));
                let sw = stage.weight.map_or(String::new(), |w| format!("  weight {w:.6}"));
                println!(
                    "  {:<12}: {:>10.3?}{card}{augs}{phases}{sel}{sw}",
                    stage.stage, stage.seconds
                );
            }
            println!("cardinality   : {}", report.cardinality());
            if let Some(w) = report.weight {
                println!("weight        : {w:.6}");
            }
            println!("time          : {:.3}s", report.total_seconds());
            if let (Some(opt), Some(q)) = (optimum, report.quality) {
                println!("optimum       : {opt}");
                println!("quality       : {q:.4}");
            }
        }
        if batch > 1 {
            println!(
                "batch summary : {} solves, best cardinality {}, geomean time {:.3}s",
                batch,
                reports[best].cardinality(),
                geometric_mean(&times)
            );
        }
    }

    if let Some(out) = arg_value("output") {
        let mut f = match std::fs::File::create(&out) {
            Ok(f) => std::io::BufWriter::new(f),
            Err(e) => {
                eprintln!("cannot create {out}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let m = &reports[best].matching;
        for (i, j) in m.iter_pairs() {
            if writeln!(f, "{} {}", i + 1, j + 1).is_err() {
                eprintln!("write to {out} failed");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("wrote {} pairs to {out}", m.cardinality());
    }
    ExitCode::SUCCESS
}
