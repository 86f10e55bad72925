//! Matching-as-a-service: the long-running daemon behind `dsmatch serve`.
//!
//! The one-shot CLI solves one instance per process; the ROADMAP's north
//! star — heavy traffic from many clients — needs a front-end that stays
//! up. [`serve`] reads **newline-delimited JSON jobs** from any
//! [`BufRead`] (the CLI wires stdin, or a Unix socket via
//! [`serve_unix_socket`]) and streams **one JSON reply line per job** as
//! each finishes, tagged with the client's job id — *completion* order,
//! not submission order.
//!
//! ## Job lines
//!
//! Every job is one JSON object with an `"id"` (echoed verbatim in the
//! reply) and an `"op"` (default `"solve"`):
//!
//! ```text
//! {"id":1,"op":"solve","pipeline":"scale:sk:5,two,pf-par","seed":7,
//!  "instance":"gen:er:10000:4:1","store":"big","quality":true}
//! {"id":2,"op":"solve","pipeline":"hk","instance":{"handle":"big"}}
//! {"id":3,"op":"delta","handle":"big","add":[[0,5]],"remove":[[3,3]],
//!  "finisher":"pf-par","mates":true}
//! {"id":4,"op":"ping"}
//! {"id":5,"op":"drop","handle":"big"}
//! {"id":6,"op":"cancel","job":1}
//! {"id":7,"op":"shutdown"}
//! ```
//!
//! Instances are referenced three ways: a `gen:` spec (synthesized), an
//! inline pattern (`{"nrows":N,"ncols":M,"edges":[[i,j],…]}`), or a
//! `{"handle":"name"}` naming an instance a previous job `"store"`d in the
//! daemon's cache. A `gen:er:<n>:<avg_degree>` spec needs
//! `1 ≤ n < 2³²−1`, `0 < avg_degree ≤ n` (an n×n pattern has only n²
//! cells) and at most `isize::MAX / 8` edge draws (`n · avg_degree`);
//! inline dimensions share the size range. Anything else is an
//! `"instance"` error. Each job carries its **own** pipeline spec — the
//! Duff–Kaya–Uçar transversal methodology's per-instance algorithm choice,
//! as a protocol.
//!
//! Every reply is built in one place: `"ok":true` replies carry the id,
//! `ok`, the op and then the op's own fields (solve and delta replies end
//! with the solve report and the optional `rmate`); `"ok":false` replies
//! carry the id, `ok`, a stable error `code` and an `error` message.
//!
//! ## Concurrency & robustness
//!
//! [`serve_unix_socket`] accepts **concurrent connections** — one
//! reader/writer pair per client, all sharing the same instance cache and
//! [`WorkspacePool`] — bounded by [`ServeOptions::max_clients`] (excess
//! connections are turned away with a structured `"busy"` error line).
//! Per-connection reply ordering is whatever job *completion* order is.
//!
//! One lock guards the cached instances and one daemon-wide list of every
//! admitted worker job not yet finished, in submission order, with the
//! handles each claims: a solve reads its `{"handle":…}` source and writes
//! its `store` target, a `delta` writes its handle. After each submission
//! and each finish, one pass over the list starts every waiting job that
//! no earlier unfinished job conflicts with (same handle, either side
//! writes). So solves that only read a cached handle run side by side, a
//! `store` or `delta` holds its handle alone, and clients sharing a handle
//! see a serializable history: every reply is the one a sequential
//! submission would produce. The same list answers `cancel`, and keeps a
//! claimed handle from `drop` and eviction.
//!
//! Jobs are spawned onto the [`WorkspacePool`] as stealable tasks:
//! concurrent jobs solve on distinct pinned-1-thread slot workspaces, so
//! every result is byte-identical to a 1-thread solve of the same
//! `(instance, seed)`. Jobs start in the order they became runnable (jobs
//! that became runnable together oldest first): each task starts the
//! oldest runnable job, whichever task the pool runs first. Every
//! connection spawns into one daemon-wide scope, so a session ends once
//! its own jobs have replied, whatever other clients still run. Admission
//! control bounds each connection's in-flight queue (`max_queue`): beyond
//! it, jobs get an immediate structured `"queue"` error instead of
//! unbounded memory growth. Input lines longer than
//! [`ServeOptions::max_line_bytes`] are discarded in bounded memory and
//! answered with a `"parse"` error. *Every* failure — malformed JSON,
//! unknown algorithm, missing handle, even a solver panic — becomes an
//! error reply, with one known exception: an instance whose arrays exceed
//! memory (say `gen:er:4294967294:0.0000001`) aborts the process when its
//! allocation fails.
//!
//! A handle exists only once a job has `store`d an instance under it: a
//! job naming a handle that no job stored leaves nothing behind, so a
//! later `drop` of that name is a `"handle"` error.
//!
//! ## Deadlines & cancellation
//!
//! A job may carry `"deadline_ms"` (or inherit
//! [`ServeOptions::default_deadline_ms`]). The deadline is armed at
//! **submission** — queue wait counts — and threaded as a
//! [`CancelToken`] through the solver's phase/epoch loops
//! ([`Pipeline::solve_cancel`]). A job that outlives its budget is cut
//! short cooperatively at the next phase boundary and answered with a
//! structured `"deadline"` error carrying `"cancelled":true` and its
//! `"deadline_ms"`; the worker's workspace stays poison-free and is
//! reused by the next job. The daemon keeps serving.
//!
//! Clients can also pull the trigger themselves:
//! `{"op":"cancel","job":<id>}` flips the [`CancelToken`] of the named
//! in-flight (or still-queued) job on the same connection; when several
//! in-flight jobs share that id, it targets the newest. The cancelled
//! job answers with the same `"deadline"`-coded, `"cancelled":true` reply
//! shape (with `"deadline_ms":null` when it had no deadline); the `cancel`
//! op itself is acknowledged inline, and cancelling an id that is not in
//! flight earns a structured `"job"` error. Weighted and `dm,` pipeline
//! specs are accepted per-job like any other spec; their replies carry the
//! report's `"weight"` field.
//!
//! ## Shutdown & fault injection
//!
//! `{"op":"shutdown"}` (any connection), stdin close, or a flipped
//! [`ServeOptions::stop`] flag (the CLI wires SIGTERM to it) all **drain**:
//! in-flight jobs run to completion and their replies are delivered before
//! each connection's trailing `{"event":"shutdown",…}` summary line.
//! The deterministic fault-injection hooks of [`super::faults`]
//! (`DSMATCH_FAULTS`) fire at this module's seams — job start/finish,
//! reply writes, the cache budget — so the chaos suite can provoke
//! panics, stalls and corrupted replies at exact, reproducible points.
//!
//! ## Incremental re-solves
//!
//! A `"delta"` job mutates a cached instance (`add`/`remove` edge lists)
//! by **patching the cached CSR in place** ([`Csr::patched`]: one merge
//! pass over the touched rows, byte-identical to a full rebuild) and
//! **re-augments from the cached mate array** with a warm-started exact
//! finisher (`pf-par` by default, or `auto`, which runs `pr`)
//! instead of solving from scratch — the tree-grafting warm-start lineage.
//! The reply's `"warm":true`, the stage's `"phases"` counter and (under
//! `auto`) its `"selected"` engine make the saving observable: a delta
//! whose cached matching survives the mutation certifies in one phase.
//!
//! ## Scaling memo
//!
//! A handle also keeps the scaling of its instance: a `store` solve with
//! a `scale` stage leaves that stage's result with the handle, and a
//! later solve whose stage is the same (method, iteration count,
//! tolerance) copies it instead of iterating. Reads never fill the memo,
//! so a handle stored unscaled, or re-stored by a `delta`, has none.
//! Scaling draws no random numbers and every job
//! runs on a 1-thread slot, so the reply is byte-identical to a fresh
//! solve's except for the `scale:…` stage's `"seconds"`. A `dm,` job
//! scales each extracted block on its own and never uses the memo; a
//! `delta` or a new `store` replaces the handle's state, memo included.
//! The memo counts toward the handle's bytes in the cache budget.
//!
//! [`Csr::patched`]: dsmatch_graph::Csr::patched
//! [`CancelToken`]: dsmatch_graph::CancelToken
//! [`Pipeline::solve_cancel`]: super::pipeline::Pipeline::solve_cancel

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dsmatch_exact::sprank;
use dsmatch_graph::{BipartiteGraph, CancelToken, Matching, TripletMatrix, NIL};
use dsmatch_json::{parse_json, Json};
use dsmatch_scale::ScalingResult;

use super::batch::WorkspacePool;
use super::faults;
use super::pipeline::{run_augment, timed_stage, Pipeline, ScaleStage, Workload};
use super::registry::AlgorithmKind;
use super::report::SolveReport;
use super::workspace::{observed_parallelism, Workspace};

/// Error codes carried by `"ok":false` replies, stable for clients.
mod code {
    /// Malformed JSON, a missing/ill-typed required field, or an
    /// over-long input line.
    pub const PARSE: &str = "parse";
    /// A pipeline/finisher spec error ([`SpecError`](crate::engine::SpecError) verbatim).
    pub const SPEC: &str = "spec";
    /// A bad instance reference: `gen:` spec, out-of-range inline
    /// dimensions, or out-of-bounds inline/delta edges.
    pub const INSTANCE: &str = "instance";
    /// An unknown handle, or a handle with no cached instance.
    pub const HANDLE: &str = "handle";
    /// Admission control: the in-flight queue is full.
    pub const QUEUE: &str = "queue";
    /// The job's deadline expired, or a client `cancel` op hit it; the
    /// solve was cancelled cooperatively.
    pub const DEADLINE: &str = "deadline";
    /// A `cancel` op naming no in-flight job on this connection.
    pub const JOB: &str = "job";
    /// A daemon-side failure (solver panic, invalid matching).
    pub const INTERNAL: &str = "internal";
    /// Connection-level rejection: the daemon is at `max_clients`.
    pub const BUSY: &str = "busy";
}

/// Configuration for one [`serve`] daemon.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads in the job pool (`0` = the default size).
    pub threads: usize,
    /// Admission bound: maximum jobs in flight (running + queued) **per
    /// connection**. Jobs beyond it are rejected with a `"queue"` error
    /// reply.
    pub max_queue: usize,
    /// Byte budget for the instance cache; least-recently-used unclaimed
    /// handles are evicted when the cached graphs, mates and scaling memos
    /// exceed it.
    pub cache_bytes: usize,
    /// Maximum concurrent socket connections (`0` = unlimited). Excess
    /// connections receive one `{"event":"error","code":"busy",…}` line
    /// and are closed.
    pub max_clients: usize,
    /// Maximum accepted input-line length in bytes (`0` = unlimited).
    /// Longer lines are discarded in bounded memory and answered with a
    /// `"parse"` error reply.
    pub max_line_bytes: usize,
    /// Deadline applied to jobs that carry no `"deadline_ms"` of their
    /// own, in milliseconds (`0` = none).
    pub default_deadline_ms: u64,
    /// External stop flag (the CLI points this at its SIGTERM latch).
    /// When it flips true the daemon stops accepting, drains in-flight
    /// jobs, and exits — same guarantees as a `shutdown` op.
    pub stop: Option<&'static AtomicBool>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 0,
            max_queue: 64,
            cache_bytes: 256 << 20,
            max_clients: 64,
            max_line_bytes: 64 << 20,
            default_deadline_ms: 0,
            stop: None,
        }
    }
}

/// What one [`serve`] session did, also emitted as the trailing
/// `{"event":"shutdown",…}` line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Job lines received (including ones rejected with an error reply).
    pub jobs: usize,
    /// Replies with `"ok":true`.
    pub ok: usize,
    /// Replies with `"ok":false`.
    pub errors: usize,
    /// True when the session ended on a `shutdown` op (vs input EOF).
    pub shutdown: bool,
}

/// The largest instance dimension: vertex ids are `u32`, and `u32::MAX`
/// itself is the unmatched sentinel [`NIL`].
const MAX_DIM: usize = u32::MAX as usize - 1;

/// Synthesize an instance from the spec grammar shared by the CLI
/// positional argument and the serve protocol's string instance refs:
/// `er:<n>:<avg_degree>[:<seed>]` (the part after the `gen:` prefix).
///
/// Sizes outside `1..u32::MAX`, degrees above the size (an n×n pattern
/// has only n² cells) and more than `isize::MAX / 8` edge draws (what one
/// edge buffer can reserve) are errors, never panics.
pub fn parse_gen_spec(spec: &str) -> Result<BipartiteGraph, String> {
    let usage = "expected gen:er:<n>:<avg_degree>[:<seed>]";
    match spec.split(':').collect::<Vec<_>>().as_slice() {
        ["er", n, degree, rest @ ..] => {
            let n: usize = n.parse().map_err(|_| format!("bad size {n:?}; {usage}"))?;
            if n == 0 {
                return Err(format!("size must be positive; {usage}"));
            }
            if n > MAX_DIM {
                return Err(format!(
                    "size {n} exceeds the largest supported size {MAX_DIM}; {usage}"
                ));
            }
            let d: f64 = degree.parse().map_err(|_| format!("bad degree {degree:?}; {usage}"))?;
            if !d.is_finite() || d <= 0.0 {
                return Err(format!("degree must be positive and finite; {usage}"));
            }
            if d > n as f64 {
                return Err(format!(
                    "degree {degree} exceeds the size {n}: an n×n pattern has only n² cells; {usage}"
                ));
            }
            // The generator's own draw count, saturating like its cast.
            let draws = (d * n as f64).round() as usize;
            let max_draws = isize::MAX as usize / 8;
            if draws > max_draws {
                return Err(format!(
                    "{draws} edge draws exceed the {max_draws} one instance can hold; {usage}"
                ));
            }
            let seed: u64 = match rest {
                [] => 1,
                [s] => s.parse().map_err(|_| format!("bad seed {s:?}; {usage}"))?,
                _ => return Err(format!("trailing fields in gen spec {spec:?}; {usage}")),
            };
            Ok(dsmatch_gen::erdos_renyi_square(n, d, seed))
        }
        _ => Err(format!("unsupported gen spec {spec:?}; {usage}")),
    }
}

/// Poison-tolerant lock: a panicked job leaves shared state consistent
/// (no critical section here can panic halfway through an update).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------------
// Job model
// ---------------------------------------------------------------------------

/// `(code, message)` for an error reply.
type JobError = (&'static str, String);

#[derive(Debug)]
enum InstanceRef {
    /// `"gen:er:…"` — synthesized on the worker.
    Gen(String),
    /// `{"nrows":…,"ncols":…,"edges":[[i,j],…]}`.
    Inline { nrows: usize, ncols: usize, edges: Vec<(usize, usize)> },
    /// `{"handle":"name"}` — a previously `store`d instance.
    Handle(String),
}

#[derive(Debug)]
struct SolveJob {
    pipeline: Pipeline,
    seed: u64,
    instance: InstanceRef,
    store: Option<String>,
    quality: bool,
    mates: bool,
}

#[derive(Debug)]
struct DeltaJob {
    handle: String,
    add: Vec<(usize, usize)>,
    remove: Vec<(usize, usize)>,
    finisher: AlgorithmKind,
    quality: bool,
    mates: bool,
}

#[derive(Debug)]
enum Op {
    Solve(SolveJob),
    Delta(DeltaJob),
    /// Liveness probe, answered inline by the connection loop.
    Ping,
    /// Detach a cached handle (refused while it has jobs in flight).
    Drop {
        handle: String,
    },
    /// Occupy one worker for `ms` milliseconds — a scheduling/testing aid
    /// that makes admission-control and deadline behaviour deterministic.
    Sleep {
        ms: u64,
    },
    /// Cancel an in-flight job on this connection by its id, riding the
    /// same [`CancelToken`] the deadline machinery arms.
    Cancel {
        job: Json,
    },
    /// Stop the daemon: drain in-flight jobs everywhere, then exit.
    Shutdown,
}

#[derive(Debug)]
struct Job {
    id: Json,
    op: Op,
    /// Per-job deadline override, milliseconds (`Some(0)` = already due).
    deadline_ms: Option<u64>,
}

/// How a job uses a handle it claims.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Shared with other readers: the `{"handle":…}` source of a solve.
    Read,
    /// Held alone: the `store` target of a solve, or a delta's subject.
    Write,
}

impl Job {
    /// The handles this job must hold while it runs, primary first: a
    /// solve writes its `store` target and reads its `{"handle":…}`
    /// source (one write when both name the same handle), a delta writes
    /// its handle.
    fn claims(&self) -> Vec<(&str, Mode)> {
        match &self.op {
            Op::Solve(sj) => {
                let source = match &sj.instance {
                    InstanceRef::Handle(h) => Some(h.as_str()),
                    _ => None,
                };
                match (sj.store.as_deref(), source) {
                    (Some(store), Some(source)) if store != source => {
                        vec![(store, Mode::Write), (source, Mode::Read)]
                    }
                    (Some(store), _) => vec![(store, Mode::Write)],
                    (None, Some(source)) => vec![(source, Mode::Read)],
                    (None, None) => Vec::new(),
                }
            }
            Op::Delta(dj) => vec![(&dj.handle, Mode::Write)],
            _ => Vec::new(),
        }
    }

    /// The handle error replies name: the mutation target for solves that
    /// `store`, the read source for other handle-referencing solves, the
    /// delta's subject.
    fn primary_handle(&self) -> Option<&str> {
        self.claims().first().map(|&(handle, _)| handle)
    }
}

/// Everything a worker needs beyond the job itself: the armed cancel
/// token, the budget it encodes (for replies), and the daemon-global
/// submission ordinal the fault plan keys on.
#[derive(Debug)]
struct JobCtx {
    token: CancelToken,
    deadline_ms: Option<u64>,
    ord: u64,
}

impl JobCtx {
    /// The structured error a cancelled job replies with: a deadline when
    /// the job ran under one, a client-initiated `cancel` otherwise.
    fn deadline_error(&self) -> JobError {
        let message = match self.deadline_ms {
            Some(ms) => format!("deadline of {ms} ms exceeded; job cancelled"),
            None => "job cancelled by client request".to_string(),
        };
        (code::DEADLINE, message)
    }
}

/// The one reader of optional job fields: `None` when `key` is absent,
/// its value as read by `get` when present, else a `parse` error saying
/// what `key` must be.
fn optional<'a, T>(
    v: &'a Json,
    key: &str,
    must_be: &str,
    get: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, JobError> {
    let field = v
        .get(key)
        .map(|f| get(f).ok_or_else(|| (code::PARSE, format!("{key:?} must be {must_be}"))));
    field.transpose()
}

fn non_empty(v: &Json) -> Option<&str> {
    v.as_str().filter(|s| !s.is_empty())
}

fn required_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, JobError> {
    let field = v.get(key).and_then(non_empty);
    field.ok_or_else(|| (code::PARSE, format!("job needs a non-empty string {key:?} field")))
}

fn parse_edge_list(v: &Json, key: &str) -> Result<Vec<(usize, usize)>, JobError> {
    let items = optional(v, key, "an array of [row,col] pairs", Json::as_arr)?.unwrap_or_default();
    let mut edges = Vec::with_capacity(items.len());
    for item in items {
        let pair = item.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
            (code::PARSE, format!("{key:?} entries must be [row,col] pairs, got {item}"))
        })?;
        match (pair[0].as_usize(), pair[1].as_usize()) {
            (Some(i), Some(j)) => edges.push((i, j)),
            _ => {
                let message = format!("{key:?} entries must be non-negative integers, got {item}");
                return Err((code::PARSE, message));
            }
        }
    }
    Ok(edges)
}

fn parse_instance_ref(v: &Json) -> Result<InstanceRef, JobError> {
    let expected = "a \"gen:…\" spec, {\"handle\":…}, or {\"nrows\",\"ncols\",\"edges\"}";
    let field = v
        .get("instance")
        .ok_or_else(|| (code::PARSE, format!("solve job needs an \"instance\": {expected}")))?;
    if let Some(s) = field.as_str() {
        let spec = s.strip_prefix("gen:").ok_or_else(|| {
            (code::PARSE, format!("string instance refs must be \"gen:…\" specs, got {s:?}"))
        })?;
        return Ok(InstanceRef::Gen(spec.to_string()));
    }
    if let Some(h) = optional(field, "handle", "a non-empty string", non_empty)? {
        return Ok(InstanceRef::Handle(h.to_string()));
    }
    let dims =
        (field.get("nrows").and_then(Json::as_usize), field.get("ncols").and_then(Json::as_usize));
    match dims {
        (Some(nrows), Some(ncols)) => {
            Ok(InstanceRef::Inline { nrows, ncols, edges: parse_edge_list(field, "edges")? })
        }
        _ => Err((code::PARSE, format!("unsupported instance ref {field}; expected {expected}"))),
    }
}

/// Parse the job with id `id`. Fields are checked in a fixed order (op,
/// seed, deadline, then the op's own fields), so a line with several
/// faults always reports the same one.
fn parse_job(v: &Json, id: &Json) -> Result<Job, JobError> {
    let op = optional(v, "op", "a string", Json::as_str)?.unwrap_or("solve");
    let seed = optional(v, "seed", "a non-negative integer", Json::as_u64)?.unwrap_or(1);
    let deadline_ms = optional(v, "deadline_ms", "a non-negative integer", Json::as_u64)?;
    let flag = |key: &str| optional(v, key, "a boolean", Json::as_bool).map(|b| b.unwrap_or(false));
    let spec_error = |e: &dyn std::fmt::Display| (code::SPEC, e.to_string());
    let op = match op {
        "solve" => Op::Solve(SolveJob {
            pipeline: required_str(v, "pipeline")?.parse().map_err(|e| spec_error(&e))?,
            seed,
            instance: parse_instance_ref(v)?,
            store: optional(v, "store", "a non-empty string", non_empty)?.map(str::to_string),
            quality: flag("quality")?,
            mates: flag("mates")?,
        }),
        "delta" => {
            let handle = required_str(v, "handle")?.to_string();
            let finisher = match optional(v, "finisher", "a string", Json::as_str)? {
                None => AlgorithmKind::PothenFanPar,
                Some(name) => {
                    let kind: AlgorithmKind = name.parse().map_err(|e| spec_error(&e))?;
                    if !kind.is_exact() {
                        let e = crate::engine::SpecError::NonExactFinisher { finisher: kind };
                        return Err(spec_error(&e));
                    }
                    kind
                }
            };
            Op::Delta(DeltaJob {
                handle,
                add: parse_edge_list(v, "add")?,
                remove: parse_edge_list(v, "remove")?,
                finisher,
                quality: flag("quality")?,
                mates: flag("mates")?,
            })
        }
        "ping" => Op::Ping,
        "drop" => Op::Drop { handle: required_str(v, "handle")?.to_string() },
        "sleep" => {
            let ms = v.get("ms").and_then(Json::as_u64);
            Op::Sleep {
                ms: ms.ok_or_else(|| (code::PARSE, "sleep job needs integer \"ms\"".into()))?,
            }
        }
        "cancel" => {
            let target = v.get("job").cloned().ok_or_else(|| {
                (code::PARSE, "cancel job needs a \"job\" field: the target job's id".into())
            })?;
            Op::Cancel { job: target }
        }
        "shutdown" => Op::Shutdown,
        other => {
            return Err((
                code::PARSE,
                format!(
                    "unknown op {other:?}; expected solve|delta|ping|drop|sleep|cancel|shutdown"
                ),
            ))
        }
    };
    Ok(Job { id: id.clone(), op, deadline_ms })
}

// ---------------------------------------------------------------------------
// Instance cache and job list
// ---------------------------------------------------------------------------

/// A scale stage and the scaling it computes on a handle's instance.
type ScalingMemo = (ScaleStage, Arc<ScalingResult>);

/// One cached instance: what the last `store` solve or delta left under
/// its handle.
#[derive(Clone)]
struct HandleState {
    graph: Arc<BipartiteGraph>,
    mates: Arc<Matching>,
    /// The scaling of `graph` under the scale stage of the `store` solve
    /// that cached it. A `store` or `delta` replaces the whole state, so
    /// the memo never outlives its instance.
    scaling: Option<ScalingMemo>,
    /// When a job last claimed or stored the handle, on [`Shared::clock`].
    touched: u64,
}

impl HandleState {
    fn approx_bytes(&self) -> usize {
        let mates = 4 * (self.mates.nrows() + self.mates.ncols());
        let scaling = self.scaling.as_ref().map_or(0, |(_, s)| {
            8 * (s.dr.len() + s.dc.len() + s.row_sums.len() + s.col_sums.len() + s.history.len())
        });
        // CSR + CSC: two index arrays of nnz u32 entries plus two pointer
        // arrays of (dim + 1) usize entries.
        let g = &self.graph;
        let graph = 8 * g.nnz() + 8 * (g.nrows() + g.ncols() + 2);
        mates + scaling + graph
    }
}

/// An admitted worker job: the job, its context, the connection it replies
/// on, and the handles it claims (at most two).
struct Ticket {
    job: Job,
    ctx: JobCtx,
    conn: Arc<Conn>,
    claims: Vec<(String, Mode)>,
}

/// Everything the daemon's one lock guards.
#[derive(Default)]
struct Shared {
    /// Cached instances: a handle has an entry only once a job stored an
    /// instance under it.
    handles: HashMap<String, HandleState>,
    /// The LRU clock, bumped by each claim or store of a cached handle.
    clock: u64,
    /// Byte budget for `handles`.
    budget: usize,
    /// Every admitted worker job not yet finished, in submission order, and
    /// whether it has started.
    jobs: Vec<(Arc<Ticket>, bool)>,
    /// Started jobs no pool task has picked up yet, oldest first; see
    /// [`spawn_tasks`].
    runnable: VecDeque<Arc<Ticket>>,
}

impl Shared {
    /// An unfinished job claims `handle`: `drop` and eviction leave it be.
    fn claimed(&self, handle: &str) -> bool {
        self.jobs.iter().any(|(ticket, _)| ticket.claims.iter().any(|(h, _)| h == handle))
    }

    /// Mark `handle` just used, when it is cached.
    fn touch(&mut self, handle: &str) {
        if let Some(state) = self.handles.get_mut(handle) {
            self.clock += 1;
            state.touched = self.clock;
        }
    }

    /// Start every waiting job that no earlier unfinished job conflicts
    /// with (one claiming the same handle, where either side writes): queue
    /// it as runnable, and return how many started. Jobs sharing a handle
    /// so start in submission order, reads of it side by side and writes
    /// alone; jobs that start together queue oldest first.
    fn start_ready(&mut self) -> usize {
        let mut held: HashMap<&str, Mode> = HashMap::new();
        let mut started = 0;
        for (ticket, running) in &mut self.jobs {
            let ticket: &Arc<Ticket> = ticket;
            let free = ticket.claims.iter().all(|(h, mode)| {
                held.get(h.as_str())
                    .is_none_or(|&earlier| earlier == Mode::Read && *mode == Mode::Read)
            });
            if free && !*running {
                *running = true;
                self.runnable.push_back(Arc::clone(ticket));
                started += 1;
            }
            for (h, mode) in &ticket.claims {
                let earlier = held.entry(h).or_insert(*mode);
                if *mode == Mode::Write {
                    *earlier = Mode::Write;
                }
            }
        }
        started
    }

    /// The one handle-state write, for `store`-ing solves and deltas
    /// alike: cache `graph`, `mates` and the scaling memo under `handle`,
    /// then evict least-recently-touched unclaimed handles until the byte
    /// budget holds. The storing job claims `handle`, so a single oversized
    /// instance stays usable for the job that loaded it.
    fn store(
        &mut self,
        handle: &str,
        graph: Arc<BipartiteGraph>,
        mates: Matching,
        scaling: Option<ScalingMemo>,
    ) {
        self.clock += 1;
        let state = HandleState { graph, mates: Arc::new(mates), scaling, touched: self.clock };
        self.handles.insert(handle.to_string(), state);
        self.evict_to_budget();
    }

    fn evict_to_budget(&mut self) {
        while self.handles.values().map(HandleState::approx_bytes).sum::<usize>() > self.budget {
            let victim = self
                .handles
                .iter()
                .filter(|(handle, _)| !self.claimed(handle))
                .min_by_key(|(_, state)| state.touched)
                .map(|(handle, _)| handle.clone());
            let Some(handle) = victim else { return };
            self.handles.remove(&handle);
        }
    }

    /// Detach an unclaimed handle from the cache.
    fn drop_handle(&mut self, handle: &str) -> Result<(), JobError> {
        if self.claimed(handle) {
            Err((code::HANDLE, format!("handle {handle:?} has jobs in flight; retry later")))
        } else if self.handles.remove(handle).is_some() {
            Ok(())
        } else {
            Err((code::HANDLE, format!("no instance cached under handle {handle:?}")))
        }
    }
}

// ---------------------------------------------------------------------------
// Daemon core and per-connection plumbing
// ---------------------------------------------------------------------------

/// State shared across every connection of one daemon process.
struct ServeCore {
    pool: WorkspacePool,
    /// The instance cache and the job list, under the daemon's one lock.
    shared: Mutex<Shared>,
    opts: ServeOptions,
    observed_workers: usize,
    shutdown: AtomicBool,
}

impl ServeCore {
    fn new(opts: &ServeOptions) -> Self {
        let pool = Workspace::per_worker(opts.threads);
        let observed_workers = pool.run(observed_parallelism);
        let budget = faults::cache_budget(opts.cache_bytes);
        ServeCore {
            pool,
            shared: Mutex::new(Shared { budget, ..Shared::default() }),
            opts: opts.clone(),
            observed_workers,
            shutdown: AtomicBool::new(false),
        }
    }

    /// True when the external stop flag (SIGTERM in the CLI) has flipped.
    fn stop_requested(&self) -> bool {
        self.opts.stop.is_some_and(|s| s.load(Ordering::SeqCst))
    }
}

/// What flows from the reader thread and the workers to the connection
/// loop, which owns the output stream.
enum Event {
    /// One complete input line (newline stripped).
    Line(String),
    /// An input line exceeding `max_line_bytes` was discarded; the total
    /// discarded length in bytes.
    Oversize(usize),
    /// Input exhausted (EOF, read error, or client gone).
    Eof,
    /// A rendered reply from a worker, ready to write verbatim.
    Reply(String),
}

/// How deep the per-connection event channel is. Bounded so a client that
/// stops reading exerts backpressure on its workers instead of buffering
/// replies without limit.
const EVENT_CHANNEL_DEPTH: usize = 256;

/// How often the connection loop wakes to poll shutdown/stop flags while
/// idle.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Per-connection shared context: workers render replies and push them
/// through `tx`; only the connection loop ever touches the output stream.
struct Conn {
    core: Arc<ServeCore>,
    tx: mpsc::SyncSender<Event>,
    in_flight: AtomicUsize,
    jobs: AtomicUsize,
    ok: AtomicUsize,
    errors: AtomicUsize,
    /// This connection processed a `shutdown` op.
    shutdown: AtomicBool,
}

impl Conn {
    /// Count `reply` for the shutdown summary and render its line — the
    /// one place replies are counted, inline and worker-produced alike.
    fn render(&self, reply: Json) -> String {
        let ok = reply.get("ok") == Some(&Json::Bool(true));
        (if ok { &self.ok } else { &self.errors }).fetch_add(1, Ordering::Relaxed);
        reply.to_string()
    }

    /// Reserve an in-flight slot, or refuse (admission control).
    fn admit(&self) -> bool {
        self.in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur < self.core.opts.max_queue).then_some(cur + 1)
            })
            .is_ok()
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            jobs: self.jobs.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shutdown: self.shutdown.load(Ordering::Relaxed),
        }
    }
}

/// The connection loop's exclusively-owned output stream. A failed write
/// (client gone) latches `broken`: later writes become no-ops while the
/// drain machinery keeps the job list and counters consistent.
struct LineWriter<W: Write> {
    out: W,
    broken: bool,
}

impl<W: Write> LineWriter<W> {
    /// Write a framing line (`{"event":…}`) — never fault-corrupted.
    fn event(&mut self, doc: &Json) {
        self.write_raw(doc.to_string());
    }

    /// Write a job reply line, applying any reply-corruption fault.
    fn reply(&mut self, mut text: String) {
        faults::corrupt_reply(&mut text);
        self.write_raw(text);
    }

    fn write_raw(&mut self, text: String) {
        if self.broken {
            return;
        }
        if writeln!(self.out, "{text}").and_then(|()| self.out.flush()).is_err() {
            self.broken = true;
        }
    }
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

/// The one `"ok":true` envelope, for all seven ops: id, ok, op, then the
/// op's own `fields`.
fn ok_doc(id: &Json, op: &str, fields: Vec<(&str, Json)>) -> Json {
    let head = [("id", id.clone()), ("ok", Json::Bool(true)), ("op", Json::from(op))];
    Json::obj(head.into_iter().chain(fields).collect())
}

/// An `"ok":false` reply: id, ok, code, error, then `extra` fields.
fn error_doc(id: &Json, (code, message): JobError, extra: Vec<(&str, Json)>) -> Json {
    let head = [
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        ("code", Json::from(code)),
        ("error", Json::from(message)),
    ];
    Json::obj(head.into_iter().chain(extra).collect())
}

/// A solve or delta reply: the op's `fields`, then the report, then the
/// row mates when the job asked for them.
fn solved(
    id: &Json,
    op: &str,
    mut fields: Vec<(&str, Json)>,
    report: &SolveReport,
    mates: bool,
) -> Json {
    fields.push(("report", report.to_json()));
    if mates {
        let rmate = report.matching.rmates().iter();
        let rmate = rmate.map(|&j| if j == NIL { Json::Null } else { Json::Int(j as i64) });
        fields.push(("rmate", Json::Arr(rmate.collect())));
    }
    ok_doc(id, op, fields)
}

/// Verify a finished solve's matching, then record the job's deadline
/// and, when asked, the quality ratio against the exact optimum.
fn check_report(
    report: &mut SolveReport,
    graph: &BipartiteGraph,
    ctx: &JobCtx,
    quality: bool,
) -> Result<(), JobError> {
    let valid = report.matching.verify(graph);
    valid.map_err(|e| (code::INTERNAL, format!("produced an invalid matching: {e}")))?;
    report.deadline_ms = ctx.deadline_ms;
    if quality {
        report.set_quality(sprank(graph));
    }
    Ok(())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"job panicked").to_string(),
    }
}

/// Build the bipartite graph for an inline instance ref, range- and
/// bounds-checked (a bad size or edge must become an error reply, not a
/// worker panic).
fn build_inline(
    nrows: usize,
    ncols: usize,
    edges: &[(usize, usize)],
) -> Result<BipartiteGraph, JobError> {
    if nrows == 0 || ncols == 0 {
        return Err((code::INSTANCE, "inline instances need nrows ≥ 1 and ncols ≥ 1".into()));
    }
    if nrows.max(ncols) > MAX_DIM {
        let message =
            format!("inline instance {nrows}×{ncols} exceeds the largest supported size {MAX_DIM}");
        return Err((code::INSTANCE, message));
    }
    let mut t = TripletMatrix::with_capacity(nrows, ncols, edges.len());
    for &(i, j) in edges {
        if i >= nrows || j >= ncols {
            return Err((
                code::INSTANCE,
                format!("edge ({i},{j}) out of bounds for {nrows}×{ncols}"),
            ));
        }
        t.push(i, j);
    }
    Ok(BipartiteGraph::from_csr(t.into_csr()))
}

// ---------------------------------------------------------------------------
// Job execution (on pool workers)
// ---------------------------------------------------------------------------

/// Run a solve that claimed the handles `claims` at submission.
fn execute_solve(
    core: &ServeCore,
    id: &Json,
    job: &SolveJob,
    ctx: &JobCtx,
    claims: &[(String, Mode)],
) -> Result<Json, JobError> {
    let (graph, memo): (Arc<BipartiteGraph>, Option<ScalingMemo>) = match &job.instance {
        InstanceRef::Gen(spec) => {
            (Arc::new(parse_gen_spec(spec).map_err(|e| (code::INSTANCE, e))?), None)
        }
        InstanceRef::Inline { nrows, ncols, edges } => {
            (Arc::new(build_inline(*nrows, *ncols, edges)?), None)
        }
        InstanceRef::Handle(h) => {
            if !claims.iter().any(|(claimed, _)| claimed == h) {
                return Err((code::HANDLE, format!("no instance cached under handle {h:?}")));
            }
            let cached = lock(&core.shared).handles.get(h).cloned();
            let state = cached.ok_or_else(|| {
                (code::HANDLE, format!("handle {h:?} exists but has no cached instance yet"))
            })?;
            (state.graph, state.scaling)
        }
    };

    // The memo key is the job's scale stage. A `dm,` job scales each
    // extracted block on its own, so it neither reads nor fills a memo.
    let stage =
        job.pipeline.scale.filter(|_| !matches!(job.pipeline.workload, Workload::Decompose(_)));
    let hit = memo.filter(|(key, _)| Some(*key) == stage).map(|(_, s)| s);
    // A `store` leaves its stage's scaling with the handle it fills: the
    // hit it copied, or a copy of what it computed.
    let keep = stage.is_some() && hit.is_none() && job.store.is_some();
    let outcome = core.pool.with_workspace(|ws| {
        let pipeline = job.pipeline.clone().with_seed(job.seed);
        let report = pipeline.solve_scaled(&graph, ws, &ctx.token, hit.as_deref());
        report.map(|report| (report, keep.then(|| Arc::new(ws.scaling.clone()))))
    });
    let Ok((mut report, kept)) = outcome else { return Err(ctx.deadline_error()) };
    check_report(&mut report, &graph, ctx, job.quality)?;
    if let Some(handle) = &job.store {
        let mates = report.matching.clone();
        lock(&core.shared).store(handle, Arc::clone(&graph), mates, stage.zip(hit.or(kept)));
    }

    let mut fields =
        vec![("pipeline", Json::from(job.pipeline.spec())), ("seed", Json::from(job.seed))];
    if let Some(h) = &job.store {
        fields.push(("handle", Json::from(h.as_str())));
    }
    if let Some(w) = report.weight {
        // Weighted workloads answer "how heavy" at the top level too, so
        // clients need not dig into the nested report.
        fields.push(("weight", Json::from(w)));
    }
    Ok(solved(id, "solve", fields, &report, job.mates))
}

fn execute_delta(
    core: &ServeCore,
    id: &Json,
    job: &DeltaJob,
    ctx: &JobCtx,
) -> Result<Json, JobError> {
    let cached = lock(&core.shared).handles.get(&job.handle).cloned();
    let HandleState { graph, mates, .. } = cached.ok_or_else(|| {
        (code::HANDLE, format!("no instance cached under handle {:?}", job.handle))
    })?;
    let (nrows, ncols) = (graph.nrows(), graph.ncols());
    let mut edges = job.add.iter().chain(&job.remove);
    if let Some((i, j)) = edges.find(|&&(i, j)| i >= nrows || j >= ncols) {
        let message = format!("delta edge ({i},{j}) out of bounds for {nrows}×{ncols}");
        return Err((code::INSTANCE, message));
    }

    // Patch the cached CSR in place (one merge pass over the touched rows)
    // instead of re-sorting the whole pattern through a triplet rebuild.
    // Removing an absent edge or adding a present one is a no-op, so
    // clients need not track the exact current pattern.
    let mutated = BipartiteGraph::from_csr(graph.csr().patched(&job.add, &job.remove));

    // Warm start: the cached mates, minus pairs whose edge was removed —
    // still a valid matching of the mutated graph, so the finisher only
    // re-augments what the delta actually broke.
    let mut rmate = mates.rmates().to_vec();
    let mut cmate = mates.cmates().to_vec();
    for i in 0..rmate.len() {
        let j = rmate[i];
        if j != NIL && !mutated.csr().contains(i, j as usize) {
            cmate[j as usize] = NIL;
            rmate[i] = NIL;
        }
    }
    let initial = Some(Matching::from_mates(rmate, cmate));

    let finished = timed_stage(format!("delta:{}", job.finisher), || {
        core.pool.with_workspace(|ws| {
            ws.run(|ws| run_augment(job.finisher, &mutated, initial, ws, &ctx.token))
        })
    });
    // On cancellation the cached handle state is left exactly as it was:
    // the delta never happened, and the workspace stays reusable.
    let Ok((matching, stage)) = finished else {
        return Err(ctx.deadline_error());
    };
    let mut report = SolveReport::new(matching, vec![stage]);
    check_report(&mut report, &mutated, ctx, job.quality)?;
    let mates = report.matching.clone();
    lock(&core.shared).store(&job.handle, Arc::new(mutated), mates, None);

    let fields = vec![
        ("handle", Json::from(job.handle.as_str())),
        ("warm", Json::Bool(true)),
        ("added", Json::from(job.add.len())),
        ("removed", Json::from(job.remove.len())),
    ];
    Ok(solved(id, "delta", fields, &report, job.mates))
}

fn execute(ticket: &Ticket) -> Result<Json, JobError> {
    let Ticket { job, ctx, conn, claims } = ticket;
    // A deadline that expired while the job sat in a queue cancels it
    // before any work starts — even for pipelines whose stages have no
    // cooperative checkpoints of their own.
    if ctx.token.is_cancelled() {
        return Err(ctx.deadline_error());
    }
    match &job.op {
        Op::Solve(sj) => execute_solve(&conn.core, &job.id, sj, ctx, claims),
        Op::Delta(dj) => execute_delta(&conn.core, &job.id, dj, ctx),
        Op::Sleep { ms } => {
            let total = Duration::from_millis((*ms).min(60_000));
            let t0 = Instant::now();
            // Chunked so a deadline interrupts the nap promptly — this is
            // what makes deadline tests cheap and deterministic.
            while let Some(left) = total.checked_sub(t0.elapsed()).filter(|d| !d.is_zero()) {
                if ctx.token.is_cancelled() {
                    return Err(ctx.deadline_error());
                }
                std::thread::sleep(left.min(Duration::from_millis(5)));
            }
            Ok(ok_doc(&job.id, "sleep", vec![("ms", Json::from(*ms))]))
        }
        // Inline ops never reach the workers.
        Op::Ping | Op::Drop { .. } | Op::Cancel { .. } | Op::Shutdown => {
            unreachable!("handled inline")
        }
    }
}

/// Run one scheduled job on a worker: execute (panic-safe), leave the job
/// list, enqueue the reply, start the jobs it held back and release the
/// admission slot — in that order, so a drain that observes zero in-flight
/// jobs knows every reply is already in the channel.
fn run_job<'s>(scope: &rayon::Scope<'s>, ticket: Arc<Ticket>) {
    let Ticket { job, ctx, conn, .. } = &*ticket;
    faults::stall_if_due("start", ctx.ord);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        faults::panic_if_due(ctx.ord);
        execute(&ticket)
    }));
    faults::stall_if_due("finish", ctx.ord);
    let reply = match outcome {
        Ok(Ok(reply)) => reply,
        Ok(Err(error)) => {
            let mut extra = Vec::new();
            if error.0 == code::DEADLINE {
                extra.push(("cancelled", Json::Bool(true)));
                extra.push(("deadline_ms", Json::opt(ctx.deadline_ms)));
            }
            if let Some(h) = job.primary_handle() {
                extra.push(("handle", Json::from(h)));
            }
            error_doc(&job.id, error, extra)
        }
        Err(payload) => error_doc(&job.id, (code::INTERNAL, panic_message(payload)), Vec::new()),
    };
    // Leave the job list *before* the reply goes out: a client that reacts
    // to the reply instantly must find the handle free for a `drop`, and
    // the id gone for a `cancel` ("no in-flight job").
    let started = {
        let mut shared = lock(&conn.core.shared);
        shared.jobs.retain(|(listed, _)| !Arc::ptr_eq(listed, &ticket));
        shared.start_ready()
    };
    let _ = conn.tx.send(Event::Reply(conn.render(reply)));
    // The jobs this one held back start only once its reply is queued, so
    // none of their replies can overtake it. A started job may belong to a
    // different connection: its owner's drain tracks it through the
    // owner's in-flight counter.
    spawn_tasks(scope, &conn.core, started);
    conn.in_flight.fetch_sub(1, Ordering::SeqCst);
}

/// Admit one worker-bound job and add it to the job list, which starts it
/// once no earlier job it conflicts with is unfinished. The job's deadline
/// is armed here, at submission — queue wait counts against the budget.
fn schedule<'s>(conn: &Arc<Conn>, scope: &rayon::Scope<'s>, job: Job) -> Result<(), JobError> {
    if !conn.admit() {
        let message = format!(
            "queue full: {} jobs in flight (max_queue {})",
            conn.in_flight.load(Ordering::SeqCst),
            conn.core.opts.max_queue
        );
        return Err((code::QUEUE, message));
    }
    let defaulted = conn.core.opts.default_deadline_ms;
    let deadline_ms = job.deadline_ms.or((defaulted > 0).then_some(defaulted));
    let token = match deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::unbounded(),
    };
    let ctx = JobCtx { token, deadline_ms, ord: faults::next_job() };
    let mut shared = lock(&conn.core.shared);
    let mut claims = Vec::new();
    for (k, (handle, mode)) in job.claims().into_iter().enumerate() {
        // A store's separate source is claimed only when it is cached or
        // claimed: otherwise no job holds or awaits it, so it holds no
        // instance for this job whatever later jobs store.
        if k == 0 || shared.handles.contains_key(handle) || shared.claimed(handle) {
            shared.touch(handle);
            claims.push((handle.to_string(), mode));
        }
    }
    let ticket = Ticket { job, ctx, conn: Arc::clone(conn), claims };
    shared.jobs.push((Arc::new(ticket), false));
    let started = shared.start_ready();
    drop(shared);
    spawn_tasks(scope, &conn.core, started);
    Ok(())
}

/// Spawn one pool task per job that [`Shared::start_ready`] queued. Every
/// task runs the *oldest* queued job, not its own: tasks are
/// interchangeable, so jobs start in the order they became runnable
/// whatever order the pool's deques run the tasks in (a worker pops its
/// own deque newest-first). A task may so run another connection's job;
/// `scope` is the daemon-wide one (see [`serve_stream`]), which no
/// session waits on. Never called under the lock, which the tasks take:
/// a scope without workers runs a task inline.
fn spawn_tasks<'s>(scope: &rayon::Scope<'s>, core: &Arc<ServeCore>, count: usize) {
    for _ in 0..count {
        let core = Arc::clone(core);
        scope.spawn(move |s| {
            // One task per queued job, each popping once: never empty here.
            let oldest = lock(&core.shared).runnable.pop_front();
            if let Some(ticket) = oldest {
                run_job(s, ticket);
            }
        });
    }
}

/// Process one input line: answer inline ops at once and hand
/// worker-bound jobs to [`schedule`]. Returns the reply to write now, if
/// any (blank lines get none, worker jobs reply later).
fn handle_line<'s>(conn: &Arc<Conn>, scope: &rayon::Scope<'s>, text: &str) -> Option<Json> {
    let text = text.trim();
    if text.is_empty() {
        return None;
    }
    conn.jobs.fetch_add(1, Ordering::Relaxed);
    let doc = match parse_json(text) {
        Ok(doc) => doc,
        Err(e) => {
            let error = (code::PARSE, format!("malformed job line: {e}"));
            return Some(error_doc(&Json::Null, error, Vec::new()));
        }
    };
    let Some(id) = doc.get("id") else {
        let error = (code::PARSE, "job has no \"id\"; replies are tagged with it".to_string());
        return Some(error_doc(&Json::Null, error, Vec::new()));
    };
    let reply = parse_job(&doc, id).and_then(|job| match &job.op {
        Op::Ping => Ok(Some(ok_doc(id, "ping", Vec::new()))),
        Op::Shutdown => {
            conn.core.shutdown.store(true, Ordering::SeqCst);
            conn.shutdown.store(true, Ordering::Relaxed);
            Ok(Some(ok_doc(id, "shutdown", Vec::new())))
        }
        Op::Drop { handle } => {
            lock(&conn.core.shared).drop_handle(handle)?;
            Ok(Some(ok_doc(id, "drop", vec![("handle", Json::from(handle.as_str()))])))
        }
        Op::Cancel { job: target } => {
            // The newest unfinished job of this connection with that id.
            let key = target.to_string();
            let shared = lock(&conn.core.shared);
            let mut jobs = shared.jobs.iter().rev().map(|(ticket, _)| ticket);
            match jobs.find(|t| Arc::ptr_eq(&t.conn, conn) && t.job.id.to_string() == key) {
                Some(ticket) => {
                    ticket.ctx.token.cancel();
                    Ok(Some(ok_doc(id, "cancel", vec![("job", target.clone())])))
                }
                None => Err((code::JOB, format!("no in-flight job {target} on this connection"))),
            }
        }
        Op::Solve(_) | Op::Delta(_) | Op::Sleep { .. } => schedule(conn, scope, job).map(|()| None),
    });
    reply.unwrap_or_else(|error| Some(error_doc(id, error, Vec::new())))
}

/// The connection loop: runs on the connection's own thread, owns the
/// output stream, and multiplexes three event sources — input lines from
/// the detached reader thread, rendered replies from workers, and the
/// daemon-wide shutdown/stop flags (polled).
///
/// Drain protocol: once reading has ended (EOF) or a shutdown/stop is in
/// effect, the loop keeps delivering replies until the connection's
/// in-flight count reaches zero. Workers enqueue their reply *before*
/// decrementing that count, so observing zero proves every reply is
/// already in the channel; one final non-blocking sweep flushes them.
fn conn_loop<'s, W: Write>(
    conn: &Arc<Conn>,
    scope: &rayon::Scope<'s>,
    rx: &mpsc::Receiver<Event>,
    out: &mut LineWriter<W>,
) {
    let mut done_reading = false;
    let mut draining = false;
    loop {
        if !draining && (conn.core.shutdown.load(Ordering::SeqCst) || conn.core.stop_requested()) {
            // A shutdown op (this connection's or another's), or SIGTERM:
            // stop taking new work, drain what's in flight, and spread
            // the word.
            conn.core.shutdown.store(true, Ordering::SeqCst);
            draining = true;
        }
        if (done_reading || draining) && conn.in_flight.load(Ordering::SeqCst) == 0 {
            while let Ok(event) = rx.try_recv() {
                if let Event::Reply(text) = event {
                    out.reply(text);
                }
            }
            return;
        }
        let reply = match rx.recv_timeout(POLL_INTERVAL) {
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) | Ok(Event::Eof) => {
                done_reading = true;
                None
            }
            Ok(Event::Reply(text)) => {
                out.reply(text);
                None
            }
            // While draining, further input is ignored (matching the
            // pre-concurrency behaviour of stopping the read loop).
            Ok(Event::Oversize(_) | Event::Line(_)) if draining => None,
            Ok(Event::Oversize(bytes)) => {
                conn.jobs.fetch_add(1, Ordering::Relaxed);
                let message = format!(
                    "job line of {bytes} bytes exceeds the {}-byte line limit",
                    conn.core.opts.max_line_bytes
                );
                Some(error_doc(&Json::Null, (code::PARSE, message), Vec::new()))
            }
            Ok(Event::Line(text)) => handle_line(conn, scope, &text),
        };
        if let Some(reply) = reply {
            out.reply(conn.render(reply));
        }
    }
}

// ---------------------------------------------------------------------------
// Input framing
// ---------------------------------------------------------------------------

/// Read one newline-terminated line, holding at most `cap` bytes in
/// memory: an over-cap line is consumed to its newline (or the end of
/// input), counted but not stored, and reported as [`Event::Oversize`]
/// with its total length.
fn read_line_capped<R: BufRead>(input: &mut R, cap: usize) -> std::io::Result<Event> {
    let mut buf: Vec<u8> = Vec::new();
    let mut total = 0;
    loop {
        let chunk = input.fill_buf()?;
        let (n, newline) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos, true),
            None => (chunk.len(), false),
        };
        total += n;
        if total <= cap {
            buf.extend_from_slice(&chunk[..n]);
        } else {
            buf.clear();
        }
        input.consume(n + usize::from(newline));
        // An empty chunk is the end of input.
        if newline || n == 0 {
            return Ok(match total {
                0 if !newline => Event::Eof,
                total if total > cap => Event::Oversize(total),
                _ => Event::Line(String::from_utf8_lossy(&buf).into_owned()),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Session entry points
// ---------------------------------------------------------------------------

/// Serve one connection until it has drained. Its jobs run as tasks of
/// `jobs`, the daemon-wide scope that every connection spawns into and
/// only the daemon's exit joins: a task can run any connection's job (see
/// [`spawn_tasks`]), so a per-connection scope would hold a hung-up session
/// open until another client's job ends.
fn serve_stream<'s, R, W>(
    core: &Arc<ServeCore>,
    jobs: &rayon::Scope<'s>,
    mut input: R,
    output: W,
) -> ServeSummary
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let (tx, rx) = mpsc::sync_channel::<Event>(EVENT_CHANNEL_DEPTH);
    let conn = Arc::new(Conn {
        core: Arc::clone(core),
        tx: tx.clone(),
        in_flight: AtomicUsize::new(0),
        jobs: AtomicUsize::new(0),
        ok: AtomicUsize::new(0),
        errors: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
    });
    let mut out = LineWriter { out: output, broken: false };
    out.event(&Json::obj(vec![
        ("event", Json::from("ready")),
        ("threads", Json::from(core.pool.threads())),
        ("observed_workers", Json::from(core.observed_workers)),
        ("max_queue", Json::from(core.opts.max_queue)),
        ("cache_bytes", Json::from(core.opts.cache_bytes)),
        ("max_line_bytes", Json::from(core.opts.max_line_bytes)),
        ("default_deadline_ms", Json::from(core.opts.default_deadline_ms)),
    ]));
    // The detached reader thread pumps capped lines into the channel until
    // EOF or a read error (signalled as `Eof`), or until the connection
    // loop has gone away.
    let cap = match core.opts.max_line_bytes {
        0 => usize::MAX,
        cap => cap,
    };
    std::thread::spawn(move || loop {
        let event = read_line_capped(&mut input, cap).unwrap_or(Event::Eof);
        let eof = matches!(event, Event::Eof);
        if tx.send(event).is_err() || eof {
            return;
        }
    });
    conn_loop(&conn, jobs, &rx, &mut out);
    let summary = conn.summary();
    out.event(&Json::obj(vec![
        ("event", Json::from("shutdown")),
        ("jobs", Json::from(summary.jobs)),
        ("ok", Json::from(summary.ok)),
        ("errors", Json::from(summary.errors)),
    ]));
    summary
}

/// Run a serve session over an arbitrary line stream: read jobs from
/// `input` until EOF or a `shutdown` op, stream one reply line per job to
/// `output` (completion order), framed by `{"event":"ready",…}` and
/// `{"event":"shutdown",…}` lines. This is `dsmatch serve`'s stdin mode.
pub fn serve<R, W>(input: R, output: W, opts: &ServeOptions) -> ServeSummary
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let core = Arc::new(ServeCore::new(opts));
    core.pool.rayon_pool().scope(|jobs| serve_stream(&core, jobs, input, output))
}

/// Serve connections on a Unix domain socket **concurrently** — one
/// session per client, all sharing one instance cache and worker pool —
/// until a client sends `{"op":"shutdown"}` or [`ServeOptions::stop`]
/// flips. At most [`ServeOptions::max_clients`] sessions run at once;
/// excess connections get one `{"event":"error","code":"busy",…}` line.
/// On shutdown every live session drains its in-flight jobs before its
/// summary line goes out, then the socket file is unlinked.
///
/// A stale socket file (no daemon answering on it) is unlinked and
/// rebound; a *live* one produces an `AddrInUse` error naming the
/// conflict instead of hijacking the path.
#[cfg(unix)]
pub fn serve_unix_socket(
    path: &std::path::Path,
    opts: &ServeOptions,
) -> std::io::Result<ServeSummary> {
    use std::io::ErrorKind;
    use std::os::unix::net::{UnixListener, UnixStream};

    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) if e.kind() == ErrorKind::AddrInUse => {
            match UnixStream::connect(path) {
                // Someone answers: refuse to steal a live daemon's socket.
                Ok(_) => {
                    return Err(std::io::Error::new(
                        ErrorKind::AddrInUse,
                        format!(
                            "socket {} is in use by a live daemon; \
                             stop it first or choose another --socket path",
                            path.display()
                        ),
                    ))
                }
                // Nobody home: a stale file from a crashed daemon.
                Err(_) => {
                    std::fs::remove_file(path)?;
                    UnixListener::bind(path)?
                }
            }
        }
        Err(e) => return Err(e),
    };
    listener.set_nonblocking(true)?;

    let core = Arc::new(ServeCore::new(opts));
    // Read-halves of live sessions: their count is the live-session count
    // `max_clients` bounds, and shutdown uses them to unblock parked
    // reader threads (shutting down only the read side keeps the write
    // side open for drained replies).
    let registry: Mutex<HashMap<u64, UnixStream>> = Mutex::new(HashMap::new());
    let totals = Mutex::new(ServeSummary::default());
    let mut next_id: u64 = 0;
    let mut fatal: Option<std::io::Error> = None;

    // Sessions run on scoped threads and spawn their jobs into `jobs`,
    // which joins the last task once every session has drained.
    core.pool.rayon_pool().scope(|jobs| {
        std::thread::scope(|s| {
            while !(core.shutdown.load(Ordering::SeqCst) || core.stop_requested()) {
                match listener.accept() {
                    Ok((mut stream, _addr)) => {
                        let _ = stream.set_nonblocking(false);
                        let limit = core.opts.max_clients;
                        let (error_code, message) = if limit > 0 && lock(&registry).len() >= limit {
                            (code::BUSY, format!("daemon at max_clients ({limit}); retry later"))
                        } else if let (Ok(reader), Ok(registered)) =
                            (stream.try_clone(), stream.try_clone())
                        {
                            let id = next_id;
                            next_id += 1;
                            lock(&registry).insert(id, registered);
                            let (core, registry, totals) = (&core, &registry, &totals);
                            s.spawn(move || {
                                let reader = std::io::BufReader::new(reader);
                                let summary = serve_stream(core, jobs, reader, stream);
                                let mut total = lock(totals);
                                total.jobs += summary.jobs;
                                total.ok += summary.ok;
                                total.errors += summary.errors;
                                total.shutdown |= summary.shutdown;
                                lock(registry).remove(&id);
                            });
                            continue;
                        } else {
                            (code::INTERNAL, "failed to clone the connection stream".to_string())
                        };
                        let doc = Json::obj(vec![
                            ("event", Json::from("error")),
                            ("code", Json::from(error_code)),
                            ("error", Json::from(message)),
                        ]);
                        let _ = writeln!(stream, "{doc}"); // dropped: connection closed
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        fatal = Some(e);
                        break;
                    }
                }
            }
            // Stopping (client shutdown op, SIGTERM, or a fatal accept
            // error): make sure every session notices, and unblock reader
            // threads parked on idle connections. Sessions then drain their
            // in-flight jobs; the scope join below waits for all of them.
            core.shutdown.store(true, Ordering::SeqCst);
            let streams: Vec<UnixStream> =
                lock(&registry).drain().map(|(_, stream)| stream).collect();
            for stream in streams {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
        })
    });

    let _ = std::fs::remove_file(path);
    match fatal {
        Some(e) => Err(e),
        None => Ok(totals.into_inner().unwrap_or_else(|p| p.into_inner())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(input: &str, opts: &ServeOptions) -> (ServeSummary, Vec<Json>) {
        let mut out: Vec<u8> = Vec::new();
        let summary = serve(std::io::Cursor::new(input.to_string()), &mut out, opts);
        let lines = String::from_utf8(out)
            .expect("utf8 output")
            .lines()
            .map(|l| parse_json(l).unwrap_or_else(|e| panic!("bad reply line {l:?}: {e}")))
            .collect();
        (summary, lines)
    }

    fn opts(threads: usize) -> ServeOptions {
        ServeOptions { threads, ..ServeOptions::default() }
    }

    #[test]
    fn frames_sessions_with_ready_and_shutdown_events() {
        let (summary, lines) = run("", &opts(1));
        assert_eq!(summary, ServeSummary::default());
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("event").unwrap().as_str(), Some("ready"));
        assert!(lines[0].get("observed_workers").unwrap().as_usize().is_some());
        assert_eq!(lines[1].get("event").unwrap().as_str(), Some("shutdown"));
    }

    #[test]
    fn job_parse_errors_are_structured_and_typed() {
        let input = concat!(
            "{not json\n",
            "{\"op\":\"solve\"}\n",
            "{\"id\":1,\"op\":\"warp\"}\n",
            "{\"id\":2,\"pipeline\":\"two,frobnicate\",\"instance\":\"gen:er:50:3\"}\n",
            "{\"id\":3,\"pipeline\":\"two\",\"instance\":\"file.mtx\"}\n",
            "{\"id\":4,\"op\":\"delta\",\"handle\":\"h\",\"finisher\":\"two\"}\n",
        );
        let (summary, lines) = run(input, &opts(1));
        assert_eq!(summary.jobs, 6);
        assert_eq!(summary.errors, 6);
        assert_eq!(summary.ok, 0);
        let code_of = |k: usize| lines[k + 1].get("code").unwrap().as_str().unwrap().to_string();
        assert_eq!(code_of(0), "parse", "malformed JSON");
        assert_eq!(code_of(1), "parse", "missing id");
        assert_eq!(code_of(2), "parse", "unknown op");
        assert_eq!(code_of(3), "spec", "unknown algorithm surfaces SpecError");
        assert!(
            lines[4].get("error").unwrap().as_str().unwrap().contains("unknown algorithm"),
            "SpecError Display is carried verbatim"
        );
        assert_eq!(code_of(4), "parse", "non-gen string instance");
        assert_eq!(code_of(5), "spec", "non-exact finisher");
    }

    /// A job `id` claiming `claims`, on a connection of its own to `core`.
    fn ticket(core: &Arc<ServeCore>, id: &str, claims: &[(&str, Mode)]) -> Arc<Ticket> {
        let (tx, _) = mpsc::sync_channel(1);
        let conn = Arc::new(Conn {
            core: Arc::clone(core),
            tx,
            in_flight: AtomicUsize::new(0),
            jobs: AtomicUsize::new(0),
            ok: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let job = Job { id: Json::from(id), op: Op::Sleep { ms: 0 }, deadline_ms: None };
        let ctx = JobCtx { token: CancelToken::unbounded(), deadline_ms: None, ord: 0 };
        let claims = claims.iter().map(|&(handle, mode)| (handle.to_string(), mode)).collect();
        Arc::new(Ticket { job, ctx, conn, claims })
    }

    /// Eviction takes least-recently-touched unclaimed handles until the
    /// budget holds, and never a claimed one: held by a writer (the store
    /// that just wrote it, say), or by readers alone.
    #[test]
    fn eviction_takes_lru_unclaimed_handles_but_never_a_claimed_one() {
        let core = Arc::new(ServeCore::new(&opts(1)));
        let graph = Arc::new(parse_gen_spec("er:20:2").unwrap());
        let mates = Arc::new(Matching::new(20, 20));
        let state = HandleState { graph, mates, scaling: None, touched: 0 };
        // Room for one handle.
        let mut shared = Shared { budget: state.approx_bytes() * 3 / 2, ..Shared::default() };
        let put = |shared: &mut Shared, handle: &str| {
            shared.clock += 1;
            let touched = shared.clock;
            shared.handles.insert(handle.to_string(), HandleState { touched, ..state.clone() });
        };
        let claim = |shared: &mut Shared, handle: &str, mode: Mode| {
            shared.jobs.push((ticket(&core, handle, &[(handle, mode)]), true));
        };
        let cached = |shared: &Shared| {
            let mut handles: Vec<String> = shared.handles.keys().cloned().collect();
            handles.sort();
            handles
        };

        for handle in ["a", "b", "c"] {
            put(&mut shared, handle);
        }
        claim(&mut shared, "c", Mode::Write);
        shared.evict_to_budget();
        assert_eq!(cached(&shared), ["c"], "the two least recently touched go");
        shared.jobs.clear();

        for handle in ["busy", "read", "new"] {
            put(&mut shared, handle);
        }
        claim(&mut shared, "busy", Mode::Write);
        claim(&mut shared, "read", Mode::Read);
        claim(&mut shared, "new", Mode::Write);
        shared.evict_to_budget();
        assert_eq!(cached(&shared), ["busy", "new", "read"], "the unclaimed LRU c went instead");
    }

    /// A read/write claim of the one handle `h` per job: jobs start in
    /// submission order, leading reads together and writes alone.
    #[test]
    fn job_list_starts_leading_reads_together_and_writes_alone_in_order() {
        let core = Arc::new(ServeCore::new(&opts(1)));
        let mut shared = Shared::default();
        let submit = |shared: &mut Shared, id: &str, mode: Mode| {
            let job = ticket(&core, id, &[("h", mode)]);
            shared.jobs.push((Arc::clone(&job), false));
            shared.start_ready();
            job
        };
        let finish = |shared: &mut Shared, job: &Arc<Ticket>| {
            shared.jobs.retain(|(listed, _)| !Arc::ptr_eq(listed, job));
            shared.start_ready();
        };
        // The ids of the jobs started since the last call, in start order.
        let started = |shared: &mut Shared| -> Vec<String> {
            shared.runnable.drain(..).map(|t| t.job.id.as_str().unwrap().to_string()).collect()
        };

        let r0 = submit(&mut shared, "r0", Mode::Read);
        let r1 = submit(&mut shared, "r1", Mode::Read);
        assert_eq!(started(&mut shared), ["r0", "r1"], "reads share");
        let w0 = submit(&mut shared, "w0", Mode::Write);
        let r2 = submit(&mut shared, "r2", Mode::Read);
        assert!(
            started(&mut shared).is_empty(),
            "a write waits for running reads, a read behind it"
        );
        finish(&mut shared, &r0);
        assert!(started(&mut shared).is_empty());
        finish(&mut shared, &r1);
        assert_eq!(started(&mut shared), ["w0"]);
        finish(&mut shared, &w0);
        assert_eq!(started(&mut shared), ["r2"]);
        finish(&mut shared, &r2);
        assert!(shared.jobs.is_empty());

        // Pending R R W R R behind a running write.
        let load = submit(&mut shared, "load", Mode::Write);
        assert_eq!(started(&mut shared), ["load"]);
        let pending = [
            ("r3", Mode::Read),
            ("r4", Mode::Read),
            ("w", Mode::Write),
            ("r5", Mode::Read),
            ("r6", Mode::Read),
        ]
        .map(|(id, mode)| submit(&mut shared, id, mode));
        assert!(started(&mut shared).is_empty(), "all wait behind the running write");
        finish(&mut shared, &load);
        assert_eq!(started(&mut shared), ["r3", "r4"], "the leading reads start together");
        finish(&mut shared, &pending[0]);
        assert!(started(&mut shared).is_empty(), "w waits for both reads");
        finish(&mut shared, &pending[1]);
        assert_eq!(started(&mut shared), ["w"]);
        finish(&mut shared, &pending[2]);
        assert_eq!(started(&mut shared), ["r5", "r6"], "the last reads start after w");
        finish(&mut shared, &pending[3]);
        finish(&mut shared, &pending[4]);
        assert!(shared.jobs.is_empty() && started(&mut shared).is_empty());
    }

    /// Run `input` as one session on `core`, whose cache outlives it, and
    /// return its lines.
    fn session(core: &Arc<ServeCore>, input: &str) -> Vec<Json> {
        let input = std::io::Cursor::new(input.to_string());
        let mut out = Vec::new();
        let summary =
            core.pool.rayon_pool().scope(|jobs| serve_stream(core, jobs, input, &mut out));
        assert_eq!(summary.errors, 0);
        String::from_utf8(out).unwrap().lines().map(|l| parse_json(l).unwrap()).collect()
    }

    fn cached(core: &ServeCore, handle: &str) -> HandleState {
        lock(&core.shared).handles.get(handle).cloned().expect("a cached handle")
    }

    fn memo(core: &ServeCore, handle: &str) -> Option<ScalingMemo> {
        cached(core, handle).scaling
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_store_memoizes_its_scaling_and_counts_it_in_the_cache_bytes() {
        let core = Arc::new(ServeCore::new(&opts(1)));
        session(
            &core,
            "{\"id\":1,\"pipeline\":\"scale:sk:5,two,pr\",\"instance\":\"gen:er:300:4:2\",\"store\":\"h\"}\n",
        );
        let state = cached(&core, "h");
        let (stage, memo_h) = state.scaling.clone().expect("the store filled the memo");
        assert_eq!(stage.label(), "scale:sk:5");
        let fresh = dsmatch_scale::sinkhorn_knopp(&state.graph, &stage.config);
        assert_eq!(bits(&memo_h.dr), bits(&fresh.dr));
        assert_eq!(bits(&memo_h.dc), bits(&fresh.dc));
        assert_eq!(bits(&memo_h.row_sums), bits(&fresh.row_sums));
        assert_eq!(bits(&memo_h.col_sums), bits(&fresh.col_sums));
        assert_eq!(bits(&memo_h.history), bits(&fresh.history));
        assert_eq!((memo_h.iterations, memo_h.error.to_bits()), (5, fresh.error.to_bits()));
        let memo_bytes = 8 * (2 * 300 + 2 * 300 + 5);
        let unscaled = HandleState { scaling: None, ..state.clone() };
        assert_eq!(state.approx_bytes(), unscaled.approx_bytes() + memo_bytes);

        // Reads keep the memo: a hit, another stage and a `dm,` job leave
        // the same scaling in place. A store of the same instance under
        // the same stage carries the hit over.
        session(
            &core,
            concat!(
                "{\"id\":2,\"pipeline\":\"scale:sk:5,suitor\",\"instance\":{\"handle\":\"h\"}}\n",
                "{\"id\":3,\"pipeline\":\"scale:sk:3,two\",\"instance\":{\"handle\":\"h\"}}\n",
                "{\"id\":4,\"pipeline\":\"dm,scale:sk:5,two\",\"instance\":{\"handle\":\"h\"}}\n",
                "{\"id\":5,\"pipeline\":\"scale:sk:5,two\",\"instance\":{\"handle\":\"h\"},\"store\":\"h2\"}\n",
            ),
        );
        let (_, kept) = memo(&core, "h").expect("still memoized");
        assert!(Arc::ptr_eq(&kept, &memo_h));
        let (_, copied) = memo(&core, "h2").expect("the store carried the memo over");
        assert!(Arc::ptr_eq(&copied, &memo_h));

        // A delta replaces the state, and reads never fill a memo.
        session(&core, "{\"id\":6,\"op\":\"delta\",\"handle\":\"h\",\"add\":[[0,1]]}\n");
        assert!(memo(&core, "h").is_none());
        session(
            &core,
            "{\"id\":7,\"pipeline\":\"scale:sk:3,two\",\"instance\":{\"handle\":\"h\"}}\n",
        );
        assert!(memo(&core, "h").is_none());
    }

    /// A hit samples from the memo itself: with a 1-iteration scaling
    /// planted under the `scale:sk:5` key, a `scale:sk:5,two` read
    /// reports 1 iteration and samples what `scale:sk:1,two` samples.
    #[test]
    fn a_hit_samples_from_the_memo_not_a_fresh_scaling() {
        let core = Arc::new(ServeCore::new(&opts(1)));
        let gen = "\"instance\":\"gen:er:300:4:2\"";
        session(
            &core,
            &format!("{{\"id\":1,\"pipeline\":\"scale:sk:5,two\",{gen},\"store\":\"h\"}}\n"),
        );
        {
            let mut shared = lock(&core.shared);
            let state = shared.handles.get_mut("h").expect("a cached handle");
            let (stage, _) = state.scaling.clone().expect("the store filled the memo");
            let config = dsmatch_scale::ScalingConfig { max_iterations: 1, ..stage.config };
            let planted = dsmatch_scale::sinkhorn_knopp(&state.graph, &config);
            state.scaling = Some((stage, Arc::new(planted)));
        }
        let read = |pipeline: &str, instance: &str| {
            let job = format!(
                "{{\"id\":2,\"pipeline\":\"{pipeline}\",\"seed\":9,{instance},\"mates\":true}}\n"
            );
            session(&core, &job).swap_remove(1)
        };
        let hit = read("scale:sk:5,two", "\"instance\":{\"handle\":\"h\"}");
        let one = read("scale:sk:1,two", gen);
        let five = read("scale:sk:5,two", gen);
        let iterations =
            |r: &Json| r.get("report").and_then(|r| r.get("scaling_iterations")).cloned();
        assert_eq!(iterations(&hit), Some(Json::from(1usize)));
        assert_eq!(hit.get("rmate"), one.get("rmate"));
        assert_ne!(hit.get("rmate"), five.get("rmate"), "the two scalings sample apart");
    }

    #[test]
    fn a_cancelled_store_leaves_the_memo_it_would_replace() {
        let core = Arc::new(ServeCore::new(&opts(1)));
        let gen = "\"instance\":\"gen:er:300:4:2\",\"store\":\"h\"";
        session(&core, &format!("{{\"id\":1,\"pipeline\":\"scale:sk:5,two\",{gen}}}\n"));
        let (_, before) = memo(&core, "h").expect("the store filled the memo");

        let line = format!("{{\"id\":2,\"pipeline\":\"scale:sk:3,two\",{gen}}}");
        let id = Json::Int(2);
        let job = parse_job(&parse_json(&line).unwrap(), &id).unwrap();
        let Op::Solve(sj) = &job.op else { panic!("a solve job") };
        let cancelled = JobCtx { token: CancelToken::unbounded(), deadline_ms: None, ord: 0 };
        cancelled.token.cancel();
        let (code, _) = execute_solve(&core, &id, sj, &cancelled, &[]).unwrap_err();
        assert_eq!(code, code::DEADLINE);
        let (stage, after) = memo(&core, "h").expect("still memoized");
        assert_eq!(stage.label(), "scale:sk:5");
        assert!(Arc::ptr_eq(&after, &before), "a cancelled store replaces nothing");

        let ctx = JobCtx { token: CancelToken::unbounded(), deadline_ms: None, ord: 0 };
        execute_solve(&core, &id, sj, &ctx, &[]).unwrap();
        let (stage, _) = memo(&core, "h").expect("memoized");
        assert_eq!(stage.label(), "scale:sk:3", "the same store uncancelled replaces it");
    }

    #[test]
    fn sleep_solve_and_ping_round_trip() {
        let input = concat!(
            "{\"id\":\"s\",\"op\":\"sleep\",\"ms\":1}\n",
            "{\"id\":\"p\",\"op\":\"ping\"}\n",
        );
        let (summary, lines) = run(input, &opts(2));
        assert_eq!(summary.ok, 2);
        assert_eq!(summary.errors, 0);
        let ids: Vec<&str> =
            lines[1..=2].iter().map(|l| l.get("id").unwrap().as_str().unwrap()).collect();
        assert!(ids.contains(&"s") && ids.contains(&"p"));
    }

    #[test]
    fn deadline_cancels_sleep_and_daemon_keeps_serving() {
        let input = concat!(
            "{\"id\":\"slow\",\"op\":\"sleep\",\"ms\":5000,\"deadline_ms\":30}\n",
            "{\"id\":\"p\",\"op\":\"ping\"}\n",
        );
        let t0 = Instant::now();
        let (summary, lines) = run(input, &opts(2));
        assert!(
            // lint:allow(test-deadline): upper bound proving the 5 s sleep was cut short — must stay below 5 s, so it cannot route through the widening knob
            t0.elapsed() < Duration::from_secs(4),
            "the 5 s sleep must be cut short by its 30 ms deadline"
        );
        assert_eq!(summary.ok, 1, "the ping still succeeds");
        assert_eq!(summary.errors, 1);
        let reply = lines[1..lines.len() - 1]
            .iter()
            .find(|l| l.get("id").and_then(Json::as_str) == Some("slow"))
            .expect("a reply for the cancelled job");
        assert_eq!(reply.get("code").unwrap().as_str(), Some("deadline"));
        assert_eq!(reply.get("cancelled").unwrap().as_bool(), Some(true));
        assert_eq!(reply.get("deadline_ms").unwrap().as_u64(), Some(30));
    }

    #[test]
    fn client_cancel_cuts_job_short_and_daemon_keeps_serving() {
        // The job is listed at submission, so the inline `cancel` op lands
        // even if the worker has not started the sleep.
        let input = concat!(
            "{\"id\":\"slow\",\"op\":\"sleep\",\"ms\":5000}\n",
            "{\"id\":\"c\",\"op\":\"cancel\",\"job\":\"slow\"}\n",
            "{\"id\":\"p\",\"op\":\"ping\"}\n",
        );
        let t0 = Instant::now();
        let (summary, lines) = run(input, &opts(2));
        assert!(
            // lint:allow(test-deadline): upper bound proving the 5 s sleep was cut short — must stay below 5 s, so it cannot route through the widening knob
            t0.elapsed() < Duration::from_secs(4),
            "the 5 s sleep must be cut short by the client cancel"
        );
        assert_eq!(summary.ok, 2, "cancel ack and ping both succeed");
        assert_eq!(summary.errors, 1, "only the cancelled job errors");
        let by_id = |id: &str| {
            lines[1..lines.len() - 1]
                .iter()
                .find(|l| l.get("id").and_then(Json::as_str) == Some(id))
                .unwrap_or_else(|| panic!("a reply for {id:?}"))
        };
        let ack = by_id("c");
        assert_eq!(ack.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(ack.get("op").unwrap().as_str(), Some("cancel"));
        assert_eq!(ack.get("job").unwrap().as_str(), Some("slow"));
        let reply = by_id("slow");
        assert_eq!(reply.get("code").unwrap().as_str(), Some("deadline"));
        assert_eq!(reply.get("cancelled").unwrap().as_bool(), Some(true));
        assert!(reply.get("deadline_ms").unwrap().is_null(), "no deadline was set");
        assert!(
            reply.get("error").unwrap().as_str().unwrap().contains("client request"),
            "{reply}"
        );
    }

    #[test]
    fn cancel_of_unknown_job_is_a_structured_job_error() {
        let input = concat!(
            "{\"id\":\"c\",\"op\":\"cancel\",\"job\":\"ghost\"}\n",
            "{\"id\":\"c2\",\"op\":\"cancel\"}\n",
            "{\"id\":\"p\",\"op\":\"ping\"}\n",
        );
        let (summary, lines) = run(input, &opts(1));
        assert_eq!(summary.ok, 1, "the daemon keeps serving");
        assert_eq!(summary.errors, 2);
        assert_eq!(lines[1].get("code").unwrap().as_str(), Some("job"));
        assert!(lines[1].get("error").unwrap().as_str().unwrap().contains("no in-flight job"));
        assert_eq!(lines[2].get("code").unwrap().as_str(), Some("parse"), "missing \"job\" field");
    }

    #[test]
    fn weighted_and_dm_specs_serve_with_weight_in_reply() {
        let input = concat!(
            "{\"id\":\"w\",\"pipeline\":\"scale:sk:5,suitor\",\"instance\":\"gen:er:200:4\"}\n",
            "{\"id\":\"d\",\"pipeline\":\"dm,two,pf\",\"instance\":\"gen:er:200:4\"}\n",
        );
        let (summary, lines) = run(input, &opts(2));
        assert_eq!(summary.ok, 2, "{lines:?}");
        let by_id = |id: &str| {
            lines[1..lines.len() - 1]
                .iter()
                .find(|l| l.get("id").and_then(Json::as_str) == Some(id))
                .unwrap_or_else(|| panic!("a reply for {id:?}"))
        };
        let weighted = by_id("w");
        let weight = weighted.get("weight").unwrap().as_f64().expect("weighted reply has weight");
        assert!(weight.is_finite() && weight > 0.0, "{weight}");
        let in_report =
            weighted.get("report").unwrap().get("weight").unwrap().as_f64().expect("report weight");
        assert_eq!(weight, in_report);
        let dm = by_id("d").get("report").unwrap();
        assert!(dm.get("cardinality").unwrap().as_usize().unwrap() > 0);
        assert!(dm.get("weight").unwrap().is_null(), "dm cardinality solve has no weight");
    }

    #[test]
    fn default_deadline_applies_when_job_has_none() {
        let input = "{\"id\":\"slow\",\"op\":\"sleep\",\"ms\":5000}\n";
        let mut o = opts(1);
        o.default_deadline_ms = 20;
        let t0 = Instant::now();
        let (summary, lines) = run(input, &o);
        // lint:allow(test-deadline): upper bound proving the 5 s sleep was cut short — must stay below 5 s, so it cannot route through the widening knob
        assert!(t0.elapsed() < Duration::from_secs(4));
        assert_eq!(summary.errors, 1);
        assert_eq!(lines[1].get("code").unwrap().as_str(), Some("deadline"));
        assert_eq!(lines[1].get("deadline_ms").unwrap().as_u64(), Some(20));
    }

    #[test]
    fn oversize_lines_get_parse_errors_not_crashes() {
        let mut o = opts(1);
        o.max_line_bytes = 64;
        let long = format!("{{\"id\":\"big\",\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(200));
        let input = format!("{long}\n{{\"id\":\"p\",\"op\":\"ping\"}}\n");
        let (summary, lines) = run(&input, &o);
        assert_eq!(summary.jobs, 2);
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.ok, 1, "the next job on the stream still works");
        assert_eq!(lines[1].get("code").unwrap().as_str(), Some("parse"));
        assert!(
            lines[1].get("error").unwrap().as_str().unwrap().contains("line limit"),
            "{}",
            lines[1]
        );
        assert_eq!(lines[2].get("id").unwrap().as_str(), Some("p"));
    }

    #[test]
    fn out_of_range_instance_sizes_are_errors_not_panics() {
        for (spec, needle) in [
            ("er:10:1e300", "degree 1e300 exceeds the size 10"),
            ("er:5000000000:1", "largest supported size"),
            ("er:4294967295:1", "largest supported size"),
            ("er:4000000000:4000000000", "edge draws exceed"),
            // The zero, negative and non-finite messages predate the
            // range checks and stay as they were.
            ("er:0:3", "size must be positive"),
            ("er:-4:3", "bad size \"-4\""),
            ("er:40:-1", "degree must be positive and finite"),
            ("er:40:inf", "degree must be positive and finite"),
            ("er:40:NaN", "degree must be positive and finite"),
        ] {
            let err = parse_gen_spec(spec).err().unwrap_or_else(|| panic!("{spec} must fail"));
            assert!(err.contains(needle), "{spec}: {err}");
        }
        let full = parse_gen_spec("er:3:3").expect("a degree equal to the size is accepted");
        assert!(full.nnz() <= 9);

        let (code, message) = build_inline(5_000_000_000, 2, &[]).expect_err("too many rows");
        assert_eq!(code, code::INSTANCE);
        assert!(message.contains("largest supported size"), "{message}");
        assert!(build_inline(2, MAX_DIM + 1, &[]).is_err());
    }

    #[test]
    fn read_line_capped_frames_and_counts() {
        let data = b"short\n0123456789abcdef-too-long\nnext\n";
        let mut input = std::io::Cursor::new(&data[..]);
        match read_line_capped(&mut input, 10).unwrap() {
            Event::Line(l) => assert_eq!(l, "short"),
            _ => panic!("expected a line"),
        }
        match read_line_capped(&mut input, 10).unwrap() {
            Event::Oversize(n) => assert_eq!(n, 25),
            _ => panic!("expected oversize"),
        }
        match read_line_capped(&mut input, 10).unwrap() {
            Event::Line(l) => assert_eq!(l, "next"),
            _ => panic!("the stream recovers cleanly after an oversize line"),
        }
        match read_line_capped(&mut input, 10).unwrap() {
            Event::Eof => {}
            _ => panic!("expected EOF"),
        }
    }
}
