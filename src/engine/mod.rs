//! # The solver engine: composable, instrumented, allocation-reusing runs
//!
//! The paper's whole experimental protocol (§4) is a *pipeline*: doubly
//! stochastic scaling, a randomized heuristic, then optionally an exact
//! solver jump-started from the heuristic matching. This module makes that
//! composition a first-class object so every surface — the `dsmatch` CLI,
//! the bench harness, tests and examples — drives the algorithms uniformly:
//!
//! ```text
//!            ┌────────────┐    ┌─────────────┐    ┌──────────────┐
//!  graph ──▶ │   Scale    │ ─▶ │  Workload   │ ─▶ │   Augment    │ ─▶ SolveReport
//!            │ (sk|ruiz,  │    │ one|two|ks| │    │ (hk|pf|pr|   │     · matching, weight
//!            │  optional) │    │ suitor|…    │    │  bfs, opt.)  │     · per-stage times
//!            └────────────┘    └─────────────┘    └──────────────┘     · scaling iters/error
//! ```
//!
//! - [`AlgorithmKind`] — the registry of all fifteen algorithms,
//!   including the paper's Algorithm 4 (`ksmt`), the §5 one-out undirected
//!   variant (`one-out`), the multicore exact finishers
//!   (`hk-par`/`pf-par`/`pf-graft`) and the `auto` finisher, which runs
//!   the measured winner, `pr` ([`select_finisher`]);
//! - `suitor` — the weighted workload: Suitor matching on the scaling
//!   entries as edge weights (the paper's matching probabilities),
//!   reporting a `weight` quality axis;
//! - [`Pipeline`] — a parsed grammar-v2 spec,
//!   `dm,<pipeline>` or `[scale[:sk|ruiz][:iters],]<workload>[,<exact>]`,
//!   solvable via the [`Solver`] trait; [`Workload`] is the typed middle
//!   stage ([`StageKind`] classifies raw tokens), and a `dm,` prefix
//!   solves every fine Dulmage–Mendelsohn block independently with the
//!   inner pipeline — per-block jobs on a pool, byte-identical mates at
//!   every pool size;
//! - [`Workspace`] — reusable scratch buffers threaded through every
//!   stage; repeated solves on same-shaped instances stop allocating
//!   (batch/server mode);
//! - [`WorkspacePool`] + [`Pipeline::solve_batch`] — batch-level
//!   parallelism: one reusable workspace per worker, whole instances
//!   fanned across the pool in stealable tasks (CLI `--batch-par`);
//! - [`SolveReport`] — the matching plus per-stage wall times, scaling
//!   iteration count/error, and an optional quality ratio;
//! - [`SpecError`] — the typed reasons a pipeline spec can fail to parse,
//!   surfaced verbatim by the CLI and the serve protocol;
//! - [`serve`] — matching-as-a-service: a long-running daemon reading
//!   newline-delimited JSON jobs (each with its own pipeline spec and
//!   instance ref), streaming one report line per job, with an instance
//!   cache and warm-started incremental `delta` re-solves;
//! - [`Json`] — re-exported from the shared [`dsmatch_json`] crate: the
//!   value type behind `--json`, the serve protocol, and the bench
//!   harness's `BENCH_*.json` files.
//!
//! ## Example
//!
//! ```
//! use dsmatch::engine::{Pipeline, Solver, Workspace};
//!
//! let g = dsmatch::gen::erdos_renyi_square(1_000, 4.0, 42);
//! let pipeline: Pipeline = "scale:sk:5,two,pf".parse().unwrap();
//! let mut ws = Workspace::new();
//!
//! // Batch mode: the workspace is allocated once, then reused.
//! for seed in 0..3 {
//!     let report = pipeline.clone().with_seed(seed).solve(&g, &mut ws);
//!     assert_eq!(report.cardinality(), dsmatch::exact::sprank(&g));
//! }
//! ```

mod batch;
pub mod faults;
mod pipeline;
mod registry;
mod report;
mod serve;
mod spec;
mod workspace;

pub use batch::WorkspacePool;
pub use dsmatch_graph::{CancelToken, Cancelled};
pub use dsmatch_json::Json;
pub use pipeline::{
    weighted_view, Pipeline, ScaleMethod, ScaleStage, Solver, Workload, DEFAULT_SCALE_ITERATIONS,
};
pub use registry::{select_finisher, AlgorithmKind};
pub use report::{SolveReport, StageReport};
#[cfg(unix)]
pub use serve::serve_unix_socket;
pub use serve::{parse_gen_spec, serve, ServeOptions, ServeSummary};
pub use spec::{SpecError, StageKind};
#[doc(hidden)]
pub use workspace::test_timeout;
pub use workspace::{observed_parallelism, Workspace};
