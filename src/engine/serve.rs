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
//! daemon's cache. Each job carries its **own** pipeline spec — the
//! Duff–Kaya–Uçar transversal methodology's per-instance algorithm choice,
//! as a protocol.
//!
//! ## Concurrency & robustness
//!
//! [`serve_unix_socket`] accepts **concurrent connections** — one
//! reader/writer pair per client, all sharing the same instance cache and
//! [`WorkspacePool`] — bounded by [`ServeOptions::max_clients`] (excess
//! connections are turned away with a structured `"busy"` error line).
//! Per-connection reply ordering is whatever job *completion* order is;
//! jobs naming the same handle execute in daemon-wide submission order (a
//! per-handle FIFO that spans connections), so two clients mutating one
//! handle see a serializable history.
//!
//! Jobs are spawned onto the [`WorkspacePool`] as stealable tasks:
//! concurrent jobs solve on distinct pinned-1-thread slot workspaces, so
//! every result is byte-identical to a 1-thread solve of the same
//! `(instance, seed)`. Admission control bounds each connection's
//! in-flight queue (`max_queue`): beyond it, jobs get an immediate
//! structured `"queue"` error instead of unbounded memory growth. Input
//! lines longer than [`ServeOptions::max_line_bytes`] are discarded in
//! bounded memory and answered with a `"parse"` error. *Every* failure —
//! malformed JSON, unknown algorithm, missing handle, even a solver panic —
//! becomes an error reply; the daemon never dies on a bad job.
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
//! in-flight (or still-queued) job on the same connection. The cancelled
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
//! finisher (`pf-par` by default, `auto` for the statistics-driven pick)
//! instead of solving from scratch — the tree-grafting warm-start lineage.
//! The reply's `"warm":true`, the stage's `"phases"` counter and (under
//! `auto`) its `"selected"` engine make the saving observable: a delta
//! whose cached matching survives the mutation certifies in one phase.
//!
//! [`Csr::patched`]: dsmatch_graph::Csr::patched
//! [`CancelToken`]: dsmatch_graph::CancelToken
//! [`Pipeline::solve_cancel`]: super::pipeline::Pipeline::solve_cancel

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use dsmatch_exact::sprank;
use dsmatch_graph::{BipartiteGraph, CancelToken, Matching, TripletMatrix, NIL};
use dsmatch_json::{parse_json, Json};

use super::batch::WorkspacePool;
use super::faults;
use super::pipeline::{run_augment, timed_stage, Pipeline};
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
    /// A bad instance reference: `gen:` spec, or out-of-bounds inline/delta edges.
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
    /// Byte budget for the instance cache; least-recently-used idle
    /// handles are evicted when the cached graphs + mates exceed it.
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

/// Synthesize an instance from the spec grammar shared by the CLI
/// positional argument and the serve protocol's string instance refs:
/// `er:<n>:<avg_degree>[:<seed>]` (the part after the `gen:` prefix).
pub fn parse_gen_spec(spec: &str) -> Result<BipartiteGraph, String> {
    let usage = "expected gen:er:<n>:<avg_degree>[:<seed>]";
    match spec.split(':').collect::<Vec<_>>().as_slice() {
        ["er", n, d, rest @ ..] => {
            let n: usize = n.parse().map_err(|_| format!("bad size {n:?}; {usage}"))?;
            if n == 0 {
                return Err(format!("size must be positive; {usage}"));
            }
            let d: f64 = d.parse().map_err(|_| format!("bad degree {d:?}; {usage}"))?;
            if !d.is_finite() || d <= 0.0 {
                return Err(format!("degree must be positive and finite; {usage}"));
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

// ---------------------------------------------------------------------------
// Job model
// ---------------------------------------------------------------------------

/// `(code, message)` for an error reply.
type JobError = (&'static str, String);

#[derive(Clone, Debug)]
enum InstanceRef {
    /// `"gen:er:…"` — synthesized on the worker.
    Gen(String),
    /// `{"nrows":…,"ncols":…,"edges":[[i,j],…]}`.
    Inline { nrows: usize, ncols: usize, edges: Vec<(usize, usize)> },
    /// `{"handle":"name"}` — a previously `store`d instance.
    Handle(String),
}

#[derive(Clone, Debug)]
struct SolveJob {
    pipeline: Pipeline,
    seed: u64,
    instance: InstanceRef,
    store: Option<String>,
    quality: bool,
    mates: bool,
}

#[derive(Clone, Debug)]
struct DeltaJob {
    handle: String,
    add: Vec<(usize, usize)>,
    remove: Vec<(usize, usize)>,
    finisher: AlgorithmKind,
    quality: bool,
    mates: bool,
}

#[derive(Clone, Debug)]
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

#[derive(Clone, Debug)]
struct Job {
    id: Json,
    op: Op,
    /// Per-job deadline override, milliseconds (`Some(0)` = already due).
    deadline_ms: Option<u64>,
}

impl Job {
    /// The handle this job's execution must serialize on, if any: the
    /// mutation target for solves that `store`, the read source for
    /// handle-referencing solves, the delta's subject.
    fn primary_handle(&self) -> Option<&str> {
        match &self.op {
            Op::Solve(sj) => sj.store.as_deref().or(match &sj.instance {
                InstanceRef::Handle(h) => Some(h),
                _ => None,
            }),
            Op::Delta(dj) => Some(&dj.handle),
            _ => None,
        }
    }
}

/// Everything a worker needs beyond the job itself: the armed cancel
/// token, the budget it encodes (for replies), and the daemon-global
/// submission ordinal the fault plan keys on.
#[derive(Clone, Debug)]
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

fn parse_edge_list(v: &Json, key: &str) -> Result<Vec<(usize, usize)>, JobError> {
    let Some(field) = v.get(key) else { return Ok(Vec::new()) };
    let items = field
        .as_arr()
        .ok_or_else(|| (code::PARSE, format!("{key:?} must be an array of [row,col] pairs")))?;
    let mut edges = Vec::with_capacity(items.len());
    for item in items {
        let pair = item.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
            (code::PARSE, format!("{key:?} entries must be [row,col] pairs, got {item}"))
        })?;
        let (i, j) = (pair[0].as_usize(), pair[1].as_usize());
        match (i, j) {
            (Some(i), Some(j)) => edges.push((i, j)),
            _ => {
                return Err((
                    code::PARSE,
                    format!("{key:?} entries must be non-negative integers, got {item}"),
                ))
            }
        }
    }
    Ok(edges)
}

fn required_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, JobError> {
    v.get(key)
        .and_then(Json::as_str)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| (code::PARSE, format!("job needs a non-empty string {key:?} field")))
}

fn optional_bool(v: &Json, key: &str) -> Result<bool, JobError> {
    match v.get(key) {
        None => Ok(false),
        Some(b) => b.as_bool().ok_or_else(|| (code::PARSE, format!("{key:?} must be a boolean"))),
    }
}

fn parse_instance_ref(v: &Json) -> Result<InstanceRef, JobError> {
    let field = v.get("instance").ok_or_else(|| {
        (
            code::PARSE,
            "solve job needs an \"instance\": a \"gen:…\" spec, \
         {\"handle\":…}, or {\"nrows\",\"ncols\",\"edges\"}"
                .to_string(),
        )
    })?;
    if let Some(s) = field.as_str() {
        let Some(spec) = s.strip_prefix("gen:") else {
            return Err((
                code::PARSE,
                format!("string instance refs must be \"gen:…\" specs, got {s:?}"),
            ));
        };
        return Ok(InstanceRef::Gen(spec.to_string()));
    }
    if let Some(h) = field.get("handle") {
        let h = h
            .as_str()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| (code::PARSE, "\"handle\" must be a non-empty string".to_string()))?;
        return Ok(InstanceRef::Handle(h.to_string()));
    }
    let dims =
        (field.get("nrows").and_then(Json::as_usize), field.get("ncols").and_then(Json::as_usize));
    if let (Some(nrows), Some(ncols)) = dims {
        let edges = parse_edge_list(field, "edges")?;
        return Ok(InstanceRef::Inline { nrows, ncols, edges });
    }
    Err((
        code::PARSE,
        format!("unsupported instance ref {field}; expected a \"gen:…\" spec, {{\"handle\":…}}, or {{\"nrows\",\"ncols\",\"edges\"}}"),
    ))
}

fn parse_job(v: &Json) -> Result<Job, (Json, JobError)> {
    let id = match v.get("id") {
        Some(id) => id.clone(),
        None => {
            return Err((
                Json::Null,
                (code::PARSE, "job has no \"id\"; replies are tagged with it".to_string()),
            ))
        }
    };
    let fail = |e: JobError| (id.clone(), e);
    let op_name = match v.get("op") {
        None => "solve",
        Some(op) => {
            op.as_str().ok_or_else(|| fail((code::PARSE, "\"op\" must be a string".to_string())))?
        }
    };
    let seed = match v.get("seed") {
        None => 1,
        Some(s) => s
            .as_u64()
            .ok_or_else(|| fail((code::PARSE, "\"seed\" must be a non-negative integer".into())))?,
    };
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(d) => Some(d.as_u64().ok_or_else(|| {
            fail((code::PARSE, "\"deadline_ms\" must be a non-negative integer".into()))
        })?),
    };
    let op = match op_name {
        "solve" => {
            let spec = required_str(v, "pipeline").map_err(fail)?;
            let pipeline: Pipeline =
                spec.parse().map_err(|e| fail((code::SPEC, format!("{e}"))))?;
            let instance = parse_instance_ref(v).map_err(fail)?;
            let store = match v.get("store") {
                None => None,
                Some(s) => Some(
                    s.as_str()
                        .filter(|h| !h.is_empty())
                        .ok_or_else(|| {
                            fail((code::PARSE, "\"store\" must be a non-empty string".into()))
                        })?
                        .to_string(),
                ),
            };
            Op::Solve(SolveJob {
                pipeline,
                seed,
                instance,
                store,
                quality: optional_bool(v, "quality").map_err(fail)?,
                mates: optional_bool(v, "mates").map_err(fail)?,
            })
        }
        "delta" => {
            let handle = required_str(v, "handle").map_err(fail)?.to_string();
            let finisher = match v.get("finisher") {
                None => AlgorithmKind::PothenFanPar,
                Some(f) => {
                    let name = f.as_str().ok_or_else(|| {
                        fail((code::PARSE, "\"finisher\" must be a string".into()))
                    })?;
                    let kind: AlgorithmKind =
                        name.parse().map_err(|e| fail((code::SPEC, format!("{e}"))))?;
                    if !kind.is_exact() {
                        let e = crate::engine::SpecError::NonExactFinisher { finisher: kind };
                        return Err(fail((code::SPEC, e.to_string())));
                    }
                    kind
                }
            };
            Op::Delta(DeltaJob {
                handle,
                add: parse_edge_list(v, "add").map_err(fail)?,
                remove: parse_edge_list(v, "remove").map_err(fail)?,
                finisher,
                quality: optional_bool(v, "quality").map_err(fail)?,
                mates: optional_bool(v, "mates").map_err(fail)?,
            })
        }
        "ping" => Op::Ping,
        "drop" => Op::Drop { handle: required_str(v, "handle").map_err(fail)?.to_string() },
        "sleep" => {
            let ms = v
                .get("ms")
                .and_then(Json::as_u64)
                .ok_or_else(|| fail((code::PARSE, "sleep job needs integer \"ms\"".into())))?;
            Op::Sleep { ms }
        }
        "cancel" => {
            let target = v.get("job").ok_or_else(|| {
                fail((code::PARSE, "cancel job needs a \"job\" field: the target job's id".into()))
            })?;
            Op::Cancel { job: target.clone() }
        }
        "shutdown" => Op::Shutdown,
        other => {
            return Err(fail((
                code::PARSE,
                format!(
                    "unknown op {other:?}; expected solve|delta|ping|drop|sleep|cancel|shutdown"
                ),
            )))
        }
    };
    Ok(Job { id, op, deadline_ms })
}

// ---------------------------------------------------------------------------
// Instance cache
// ---------------------------------------------------------------------------

#[derive(Default)]
struct HandleState {
    graph: Option<Arc<BipartiteGraph>>,
    mates: Option<Matching>,
}

impl HandleState {
    fn approx_bytes(&self) -> usize {
        let graph = self.mates.as_ref().map_or(0, |m| 4 * (m.nrows() + m.ncols()));
        self.graph.as_ref().map_or(graph, |g| {
            // CSR + CSC: two index arrays of nnz u32 entries plus two
            // pointer arrays of (dim + 1) usize entries.
            graph + 8 * g.nnz() + 8 * (g.nrows() + g.ncols() + 2)
        })
    }
}

#[derive(Default)]
struct HandleQueue {
    /// A job owning this handle is running (or scheduled to run).
    busy: bool,
    /// Jobs waiting for the handle, in daemon-wide submission order. Each
    /// carries the connection it belongs to: the per-handle FIFO spans
    /// connections, so a successor may reply on a different stream than
    /// its predecessor.
    pending: VecDeque<(Job, JobCtx, Arc<Conn>)>,
}

/// One cached instance: per-handle job serialization + the cached
/// graph/mates + LRU bookkeeping.
#[derive(Default)]
struct HandleEntry {
    queue: Mutex<HandleQueue>,
    state: Mutex<HandleState>,
    bytes: AtomicUsize,
    touched: AtomicU64,
}

struct Cache {
    entries: HashMap<String, Arc<HandleEntry>>,
    clock: u64,
    budget: usize,
}

impl Cache {
    fn touch(&mut self, entry: &HandleEntry) {
        self.clock += 1;
        entry.touched.store(self.clock, Ordering::Relaxed);
    }

    fn entry_for(&mut self, handle: &str) -> Arc<HandleEntry> {
        let entry = Arc::clone(self.entries.entry(handle.to_string()).or_default());
        self.touch(&entry);
        entry
    }

    /// Evict least-recently-touched idle entries until the byte budget
    /// holds. `protect` (the handle just written) is never evicted, so a
    /// single oversized instance stays usable for the job that loaded it.
    fn evict_to_budget(&mut self, protect: &str) {
        loop {
            let total: usize = self.entries.values().map(|e| e.bytes.load(Ordering::Relaxed)).sum();
            if total <= self.budget {
                return;
            }
            let victim = self
                .entries
                .iter()
                .filter(|(name, entry)| {
                    if name.as_str() == protect {
                        return false;
                    }
                    // Never evict a handle with jobs in flight; lock order
                    // is cache → queue everywhere, so this cannot deadlock.
                    let q = entry.queue.lock().unwrap_or_else(|p| p.into_inner());
                    !q.busy && q.pending.is_empty()
                })
                .min_by_key(|(_, entry)| entry.touched.load(Ordering::Relaxed))
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    self.entries.remove(&name);
                }
                None => return,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Daemon core and per-connection plumbing
// ---------------------------------------------------------------------------

/// State shared across every connection of one daemon process.
struct ServeCore {
    pool: WorkspacePool,
    cache: Mutex<Cache>,
    opts: ServeOptions,
    observed_workers: usize,
    shutdown: AtomicBool,
}

impl ServeCore {
    fn new(opts: &ServeOptions) -> Self {
        let pool = Workspace::per_worker(opts.threads);
        let observed_workers = pool.run(observed_parallelism);
        ServeCore {
            pool,
            cache: Mutex::new(Cache {
                entries: HashMap::new(),
                clock: 0,
                budget: faults::cache_budget(opts.cache_bytes),
            }),
            opts: opts.clone(),
            observed_workers,
            shutdown: AtomicBool::new(false),
        }
    }

    fn cache_lock(&self) -> std::sync::MutexGuard<'_, Cache> {
        self.cache.lock().unwrap_or_else(|p| p.into_inner())
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
    /// Cancel tokens of this connection's in-flight worker jobs, keyed by
    /// the job id's JSON rendering: inserted at submission, removed before
    /// the reply is enqueued, cancelled by the inline `cancel` op. A
    /// reused id overwrites — a `cancel` always targets the latest.
    cancels: Mutex<HashMap<String, CancelToken>>,
}

impl Conn {
    fn new(core: Arc<ServeCore>, tx: mpsc::SyncSender<Event>) -> Self {
        Conn {
            core,
            tx,
            in_flight: AtomicUsize::new(0),
            jobs: AtomicUsize::new(0),
            ok: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
            cancels: Mutex::new(HashMap::new()),
        }
    }

    fn count(&self, ok: bool) {
        if ok {
            self.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Worker-side reply path: count, render, enqueue for the connection
    /// loop. Replies are enqueued *before* the in-flight slot is released
    /// (see [`run_job`]), so a drain that observes zero in-flight jobs
    /// knows every reply is already in the channel.
    fn send_reply(&self, doc: Json) {
        self.count(doc.get("ok").and_then(Json::as_bool) == Some(true));
        let _ = self.tx.send(Event::Reply(doc.to_string()));
    }

    /// Reserve an in-flight slot, or refuse (admission control).
    fn admit(&self) -> bool {
        self.in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur < self.core.opts.max_queue).then_some(cur + 1)
            })
            .is_ok()
    }

    fn summary(&self, shutdown: bool) -> ServeSummary {
        ServeSummary {
            jobs: self.jobs.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shutdown,
        }
    }
}

/// The connection loop's exclusively-owned output stream. A failed write
/// (client gone) latches `broken`: later writes become no-ops while the
/// drain machinery keeps handle queues and counters consistent.
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

fn error_doc(id: &Json, code: &'static str, message: &str) -> Json {
    Json::obj(vec![
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        ("code", Json::from(code)),
        ("error", Json::from(message)),
    ])
}

fn mates_json(m: &Matching) -> Json {
    Json::Arr(
        m.rmates()
            .iter()
            .map(|&j| if j == NIL { Json::Null } else { Json::Int(j as i64) })
            .collect(),
    )
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "job panicked".to_string())
}

/// Build the bipartite graph for an inline instance ref, bounds-checked
/// (an out-of-range edge must become an error reply, not a worker panic).
fn build_inline(
    nrows: usize,
    ncols: usize,
    edges: &[(usize, usize)],
) -> Result<BipartiteGraph, JobError> {
    if nrows == 0 || ncols == 0 {
        return Err((code::INSTANCE, "inline instances need nrows ≥ 1 and ncols ≥ 1".into()));
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

fn execute_solve(core: &ServeCore, job: &SolveJob, ctx: &JobCtx) -> Result<Json, JobError> {
    let graph: Arc<BipartiteGraph> = match &job.instance {
        InstanceRef::Gen(spec) => Arc::new(parse_gen_spec(spec).map_err(|e| (code::INSTANCE, e))?),
        InstanceRef::Inline { nrows, ncols, edges } => {
            Arc::new(build_inline(*nrows, *ncols, edges)?)
        }
        InstanceRef::Handle(h) => {
            let entry =
                core.cache_lock().entries.get(h).cloned().ok_or_else(|| {
                    (code::HANDLE, format!("no instance cached under handle {h:?}"))
                })?;
            let state = entry.state.lock().unwrap_or_else(|p| p.into_inner());
            state.graph.clone().ok_or_else(|| {
                (code::HANDLE, format!("handle {h:?} exists but has no cached instance yet"))
            })?
        }
    };

    let solved = core.pool.with_workspace(|ws| {
        job.pipeline.clone().with_seed(job.seed).solve_cancel(&graph, ws, &ctx.token)
    });
    let mut report = match solved {
        Ok(report) => report,
        Err(_) => return Err(ctx.deadline_error()),
    };
    report.deadline_ms = ctx.deadline_ms;
    report
        .matching
        .verify(&graph)
        .map_err(|e| (code::INTERNAL, format!("produced an invalid matching: {e}")))?;
    if job.quality {
        report.set_quality(sprank(&graph));
    }

    if let Some(handle) = &job.store {
        let entry = core.cache_lock().entry_for(handle);
        {
            let mut state = entry.state.lock().unwrap_or_else(|p| p.into_inner());
            state.graph = Some(Arc::clone(&graph));
            state.mates = Some(report.matching.clone());
            entry.bytes.store(state.approx_bytes(), Ordering::Relaxed);
        }
        core.cache_lock().evict_to_budget(handle);
    }

    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::from("solve")),
        ("pipeline".to_string(), Json::from(job.pipeline.spec())),
        ("seed".to_string(), Json::from(job.seed)),
    ];
    if let Some(h) = &job.store {
        pairs.push(("handle".to_string(), Json::from(h.as_str())));
    }
    if let Some(w) = report.weight {
        // Weighted workloads answer "how heavy" at the top level too, so
        // clients need not dig into the nested report.
        pairs.push(("weight".to_string(), Json::from(w)));
    }
    pairs.push(("report".to_string(), report.to_json()));
    if job.mates {
        pairs.push(("rmate".to_string(), mates_json(&report.matching)));
    }
    Ok(Json::Obj(pairs))
}

fn execute_delta(
    core: &ServeCore,
    job: &DeltaJob,
    ctx: &JobCtx,
    entry: &Arc<HandleEntry>,
) -> Result<Json, JobError> {
    let (graph, cached_mates) = {
        let state = entry.state.lock().unwrap_or_else(|p| p.into_inner());
        (state.graph.clone(), state.mates.clone())
    };
    let graph = graph.ok_or_else(|| {
        (code::HANDLE, format!("no instance cached under handle {:?}", job.handle))
    })?;
    let (nrows, ncols) = (graph.nrows(), graph.ncols());
    for &(i, j) in job.add.iter().chain(&job.remove) {
        if i >= nrows || j >= ncols {
            return Err((
                code::INSTANCE,
                format!("delta edge ({i},{j}) out of bounds for {nrows}×{ncols}"),
            ));
        }
    }

    // Patch the cached CSR in place (one merge pass over the touched rows)
    // instead of re-sorting the whole pattern through a triplet rebuild.
    // Removing an absent edge or adding a present one is a no-op, so
    // clients need not track the exact current pattern.
    let mutated = BipartiteGraph::from_csr(graph.csr().patched(&job.add, &job.remove));

    // Warm start: the cached mates, minus pairs whose edge was removed —
    // still a valid matching of the mutated graph, so the finisher only
    // re-augments what the delta actually broke.
    let warm = cached_mates.is_some();
    let initial = cached_mates.map(|m| {
        let mut rmate = m.rmates().to_vec();
        let mut cmate = m.cmates().to_vec();
        for i in 0..rmate.len() {
            let j = rmate[i];
            if j != NIL && !mutated.csr().contains(i, j as usize) {
                cmate[j as usize] = NIL;
                rmate[i] = NIL;
            }
        }
        Matching::from_mates(rmate, cmate)
    });

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
    matching
        .verify(&mutated)
        .map_err(|e| (code::INTERNAL, format!("produced an invalid matching: {e}")))?;

    let mut report = SolveReport::new(matching, vec![stage]);
    report.deadline_ms = ctx.deadline_ms;
    if job.quality {
        report.set_quality(sprank(&mutated));
    }

    {
        let mut state = entry.state.lock().unwrap_or_else(|p| p.into_inner());
        state.graph = Some(Arc::new(mutated));
        state.mates = Some(report.matching.clone());
        entry.bytes.store(state.approx_bytes(), Ordering::Relaxed);
    }
    {
        let mut cache = core.cache_lock();
        cache.touch(entry);
        cache.evict_to_budget(&job.handle);
    }

    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::from("delta")),
        ("handle".to_string(), Json::from(job.handle.as_str())),
        ("warm".to_string(), Json::Bool(warm)),
        ("added".to_string(), Json::from(job.add.len())),
        ("removed".to_string(), Json::from(job.remove.len())),
        ("report".to_string(), report.to_json()),
    ];
    if job.mates {
        pairs.push(("rmate".to_string(), mates_json(&report.matching)));
    }
    Ok(Json::Obj(pairs))
}

fn execute(
    core: &ServeCore,
    job: &Job,
    ctx: &JobCtx,
    entry: Option<&Arc<HandleEntry>>,
) -> Result<Json, JobError> {
    // A deadline that expired while the job sat in a queue cancels it
    // before any work starts — even for pipelines whose stages have no
    // cooperative checkpoints of their own.
    if ctx.token.is_cancelled() {
        return Err(ctx.deadline_error());
    }
    match &job.op {
        Op::Solve(sj) => execute_solve(core, sj, ctx),
        Op::Delta(dj) => {
            // Defensive: the scheduler always pairs a delta with its
            // handle entry; if that invariant ever breaks, answer with a
            // structured internal error instead of poisoning a worker.
            let Some(entry) = entry else {
                return Err((
                    code::INTERNAL,
                    "delta job was scheduled without its handle entry".to_string(),
                ));
            };
            execute_delta(core, dj, ctx, entry)
        }
        Op::Sleep { ms } => {
            let total = Duration::from_millis((*ms).min(60_000));
            let t0 = Instant::now();
            // Chunked so a deadline interrupts the nap promptly — this is
            // what makes deadline tests cheap and deterministic.
            loop {
                let elapsed = t0.elapsed();
                if elapsed >= total {
                    break;
                }
                if ctx.token.is_cancelled() {
                    return Err(ctx.deadline_error());
                }
                std::thread::sleep((total - elapsed).min(Duration::from_millis(5)));
            }
            Ok(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::from("sleep")),
                ("ms", Json::from(*ms)),
            ]))
        }
        // Inline ops never reach the workers.
        Op::Ping | Op::Drop { .. } | Op::Cancel { .. } | Op::Shutdown => {
            unreachable!("handled inline")
        }
    }
}

/// Run one scheduled job on a worker: execute (panic-safe), release the
/// handle and start its next pending job, then enqueue the reply and
/// release the admission slot — in that order (see [`Conn::send_reply`]).
fn run_job<'s>(
    conn: Arc<Conn>,
    scope: &rayon::Scope<'s>,
    job: Job,
    ctx: JobCtx,
    entry: Option<Arc<HandleEntry>>,
) {
    faults::stall_if_due("start", ctx.ord);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        faults::panic_if_due(ctx.ord);
        execute(&conn.core, &job, &ctx, entry.as_ref())
    }));
    faults::stall_if_due("finish", ctx.ord);
    let reply = match outcome {
        Ok(Ok(body)) => {
            let Json::Obj(mut pairs) = body else { unreachable!("replies are objects") };
            pairs.insert(0, ("id".to_string(), job.id.clone()));
            Json::Obj(pairs)
        }
        Ok(Err((code, message))) => {
            let mut doc = error_doc(&job.id, code, &message);
            if let Json::Obj(pairs) = &mut doc {
                if code == code::DEADLINE {
                    pairs.push(("cancelled".to_string(), Json::Bool(true)));
                    pairs.push(("deadline_ms".to_string(), Json::opt(ctx.deadline_ms)));
                }
                if let Some(h) = job.primary_handle() {
                    pairs.push(("handle".to_string(), Json::from(h)));
                }
            }
            doc
        }
        Err(payload) => error_doc(&job.id, code::INTERNAL, &panic_message(payload)),
    };
    // Release the handle (and start its next pending job) *before* the
    // reply goes out: a client that reacts to the reply instantly — e.g.
    // with a `drop` — must observe the handle idle, not racily busy.
    if let Some(entry) = entry {
        let next = {
            let mut q = entry.queue.lock().unwrap_or_else(|p| p.into_inner());
            match q.pending.pop_front() {
                Some(next) => Some(next), // stays busy
                None => {
                    q.busy = false;
                    None
                }
            }
        };
        if let Some((job, ctx, owner)) = next {
            // The successor may belong to a different connection; it joins
            // whichever scope is current — its owner's drain tracks it
            // through the owner's in-flight counter, not scope membership.
            scope.spawn(move |s| run_job(owner, s, job, ctx, Some(entry)));
        }
    }
    // Deregister before the reply goes out: a client reacting to the reply
    // with a `cancel` of the same id must get a clean "no such job".
    conn.cancels.lock().unwrap_or_else(|p| p.into_inner()).remove(&job.id.to_string());
    conn.send_reply(reply);
    conn.in_flight.fetch_sub(1, Ordering::SeqCst);
}

/// Admit + schedule one worker-bound job: direct spawn when it touches no
/// handle, per-handle FIFO when it does. The job's deadline is armed here,
/// at submission — queue wait counts against the budget.
fn schedule<'s, W: Write>(
    conn: &Arc<Conn>,
    scope: &rayon::Scope<'s>,
    out: &mut LineWriter<W>,
    job: Job,
) {
    if !conn.admit() {
        let message = format!(
            "queue full: {} jobs in flight (max_queue {})",
            conn.in_flight.load(Ordering::SeqCst),
            conn.core.opts.max_queue
        );
        conn.count(false);
        out.reply(error_doc(&job.id, code::QUEUE, &message).to_string());
        return;
    }
    let defaulted = conn.core.opts.default_deadline_ms;
    let deadline_ms = job.deadline_ms.or((defaulted > 0).then_some(defaulted));
    let token = match deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::unbounded(),
    };
    let ctx = JobCtx { token, deadline_ms, ord: faults::next_job() };
    // Register for client-initiated `cancel` before the job can run:
    // queued jobs (per-handle FIFO) are cancellable while they wait.
    conn.cancels
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert(job.id.to_string(), ctx.token.clone());
    let entry = job.primary_handle().map(|h| conn.core.cache_lock().entry_for(h));
    match entry {
        None => {
            let owner = Arc::clone(conn);
            scope.spawn(move |s| run_job(owner, s, job, ctx, None));
        }
        Some(entry) => {
            let run_now = {
                let mut q = entry.queue.lock().unwrap_or_else(|p| p.into_inner());
                if q.busy {
                    q.pending.push_back((job.clone(), ctx.clone(), Arc::clone(conn)));
                    false
                } else {
                    q.busy = true;
                    true
                }
            };
            if run_now {
                let owner = Arc::clone(conn);
                scope.spawn(move |s| run_job(owner, s, job, ctx, Some(entry)));
            }
        }
    }
}

/// What processing one input line decided.
enum LineOutcome {
    Continue,
    Shutdown,
}

fn handle_line<'s, W: Write>(
    conn: &Arc<Conn>,
    scope: &rayon::Scope<'s>,
    out: &mut LineWriter<W>,
    text: &str,
) -> LineOutcome {
    let text = text.trim();
    if text.is_empty() {
        return LineOutcome::Continue;
    }
    conn.jobs.fetch_add(1, Ordering::Relaxed);
    let doc = match parse_json(text) {
        Ok(doc) => doc,
        Err(e) => {
            conn.count(false);
            out.reply(
                error_doc(&Json::Null, code::PARSE, &format!("malformed job line: {e}"))
                    .to_string(),
            );
            return LineOutcome::Continue;
        }
    };
    let job = match parse_job(&doc) {
        Ok(job) => job,
        Err((id, (code, message))) => {
            conn.count(false);
            out.reply(error_doc(&id, code, &message).to_string());
            return LineOutcome::Continue;
        }
    };
    match &job.op {
        Op::Ping => {
            conn.count(true);
            out.reply(
                Json::obj(vec![
                    ("id", job.id.clone()),
                    ("ok", Json::Bool(true)),
                    ("op", Json::from("ping")),
                ])
                .to_string(),
            );
            LineOutcome::Continue
        }
        Op::Shutdown => {
            conn.core.shutdown.store(true, Ordering::SeqCst);
            conn.count(true);
            out.reply(
                Json::obj(vec![
                    ("id", job.id.clone()),
                    ("ok", Json::Bool(true)),
                    ("op", Json::from("shutdown")),
                ])
                .to_string(),
            );
            LineOutcome::Shutdown
        }
        Op::Drop { handle } => {
            let mut cache = conn.core.cache_lock();
            let dropped = match cache.entries.get(handle) {
                None => Err(format!("no instance cached under handle {handle:?}")),
                Some(entry) => {
                    let q = entry.queue.lock().unwrap_or_else(|p| p.into_inner());
                    if q.busy || !q.pending.is_empty() {
                        Err(format!("handle {handle:?} has jobs in flight; retry later"))
                    } else {
                        Ok(())
                    }
                }
            };
            match dropped {
                Ok(()) => {
                    cache.entries.remove(handle);
                    drop(cache);
                    conn.count(true);
                    out.reply(
                        Json::obj(vec![
                            ("id", job.id.clone()),
                            ("ok", Json::Bool(true)),
                            ("op", Json::from("drop")),
                            ("handle", Json::from(handle.as_str())),
                        ])
                        .to_string(),
                    );
                }
                Err(message) => {
                    drop(cache);
                    conn.count(false);
                    out.reply(error_doc(&job.id, code::HANDLE, &message).to_string());
                }
            }
            LineOutcome::Continue
        }
        Op::Cancel { job: target } => {
            let token = conn
                .cancels
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get(&target.to_string())
                .cloned();
            match token {
                Some(token) => {
                    token.cancel();
                    conn.count(true);
                    out.reply(
                        Json::obj(vec![
                            ("id", job.id.clone()),
                            ("ok", Json::Bool(true)),
                            ("op", Json::from("cancel")),
                            ("job", target.clone()),
                        ])
                        .to_string(),
                    );
                }
                None => {
                    conn.count(false);
                    out.reply(
                        error_doc(
                            &job.id,
                            code::JOB,
                            &format!("no in-flight job {target} on this connection"),
                        )
                        .to_string(),
                    );
                }
            }
            LineOutcome::Continue
        }
        Op::Solve(_) | Op::Delta(_) | Op::Sleep { .. } => {
            schedule(conn, scope, out, job);
            LineOutcome::Continue
        }
    }
}

/// The connection loop: runs on the connection's own thread, owns the
/// output stream, and multiplexes three event sources — input lines from
/// the detached reader thread, rendered replies from workers, and the
/// daemon-wide shutdown/stop flags (polled). Returns true when this
/// connection saw the `shutdown` op.
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
) -> bool {
    let mut done_reading = false;
    let mut draining = false;
    let mut client_shutdown = false;
    loop {
        if !draining && (conn.core.shutdown.load(Ordering::SeqCst) || conn.core.stop_requested()) {
            // Another connection's shutdown op, or SIGTERM: stop taking
            // new work, drain what's in flight, and spread the word.
            conn.core.shutdown.store(true, Ordering::SeqCst);
            draining = true;
        }
        if (done_reading || draining) && conn.in_flight.load(Ordering::SeqCst) == 0 {
            while let Ok(event) = rx.try_recv() {
                if let Event::Reply(text) = event {
                    out.reply(text);
                }
            }
            return client_shutdown;
        }
        match rx.recv_timeout(POLL_INTERVAL) {
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => done_reading = true,
            Ok(Event::Eof) => done_reading = true,
            Ok(Event::Reply(text)) => out.reply(text),
            Ok(Event::Oversize(bytes)) if !draining => {
                conn.jobs.fetch_add(1, Ordering::Relaxed);
                conn.count(false);
                let message = format!(
                    "job line of {bytes} bytes exceeds the {}-byte line limit",
                    conn.core.opts.max_line_bytes
                );
                out.reply(error_doc(&Json::Null, code::PARSE, &message).to_string());
            }
            Ok(Event::Line(text)) if !draining => {
                if let LineOutcome::Shutdown = handle_line(conn, scope, out, &text) {
                    draining = true;
                    client_shutdown = true;
                }
            }
            // While draining, further input is ignored (matching the
            // pre-concurrency behaviour of stopping the read loop).
            Ok(Event::Oversize(_)) | Ok(Event::Line(_)) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Input framing
// ---------------------------------------------------------------------------

enum LineRead {
    Eof,
    Line(String),
    Oversize(usize),
}

/// Read one newline-terminated line, holding at most `cap` bytes in
/// memory. An over-cap line is consumed to its newline (counting, not
/// storing) and reported as [`LineRead::Oversize`] with its total length.
fn read_line_capped<R: BufRead>(input: &mut R, cap: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + pos <= cap {
                buf.extend_from_slice(&chunk[..pos]);
                input.consume(pos + 1);
                return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            let total = buf.len() + pos;
            input.consume(pos + 1);
            return Ok(LineRead::Oversize(total));
        }
        let n = chunk.len();
        if buf.len() + n > cap {
            // Over the cap with no newline yet: stop storing, keep
            // counting until the line (or the stream) ends.
            let mut total = buf.len() + n;
            buf.clear();
            input.consume(n);
            loop {
                let chunk = input.fill_buf()?;
                if chunk.is_empty() {
                    return Ok(LineRead::Oversize(total));
                }
                if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                    total += pos;
                    input.consume(pos + 1);
                    return Ok(LineRead::Oversize(total));
                }
                total += chunk.len();
                let n = chunk.len();
                input.consume(n);
            }
        }
        buf.extend_from_slice(chunk);
        input.consume(n);
    }
}

/// The detached reader thread: pumps capped lines into the connection
/// loop's channel. Exits on EOF/read error (after signalling `Eof`) or
/// when the connection loop has gone away.
fn reader_loop<R: BufRead>(mut input: R, tx: mpsc::SyncSender<Event>, cap: usize) {
    let cap = if cap == 0 { usize::MAX } else { cap };
    loop {
        let event = match read_line_capped(&mut input, cap) {
            Ok(LineRead::Eof) | Err(_) => {
                let _ = tx.send(Event::Eof);
                return;
            }
            Ok(LineRead::Line(text)) => Event::Line(text),
            Ok(LineRead::Oversize(bytes)) => Event::Oversize(bytes),
        };
        if tx.send(event).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Session entry points
// ---------------------------------------------------------------------------

fn serve_stream<R, W>(core: &Arc<ServeCore>, input: R, output: W) -> ServeSummary
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let (tx, rx) = mpsc::sync_channel::<Event>(EVENT_CHANNEL_DEPTH);
    let conn = Arc::new(Conn::new(Arc::clone(core), tx.clone()));
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
    {
        let cap = core.opts.max_line_bytes;
        std::thread::spawn(move || reader_loop(input, tx, cap));
    }
    // The connection loop runs as a scope body on this thread; workers
    // drain jobs concurrently. The scope joins any task still running
    // here (e.g. a cross-connection successor) after the drain.
    let client_shutdown = core.pool.rayon_pool().scope(|s| conn_loop(&conn, s, &rx, &mut out));
    let summary = conn.summary(client_shutdown);
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
    serve_stream(&Arc::new(ServeCore::new(opts)), input, output)
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
    let active = Arc::new(AtomicUsize::new(0));
    // Read-halves of live connections, so shutdown can unblock their
    // parked reader threads (shutting down only the read side keeps the
    // write side open for drained replies).
    let registry: Arc<Mutex<HashMap<u64, UnixStream>>> = Arc::new(Mutex::new(HashMap::new()));
    let totals = Mutex::new(ServeSummary::default());
    let mut next_id: u64 = 0;
    let mut fatal: Option<std::io::Error> = None;

    std::thread::scope(|s| {
        while !(core.shutdown.load(Ordering::SeqCst) || core.stop_requested()) {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let _ = stream.set_nonblocking(false);
                    let limit = core.opts.max_clients;
                    if limit > 0 && active.load(Ordering::SeqCst) >= limit {
                        let doc = Json::obj(vec![
                            ("event", Json::from("error")),
                            ("code", Json::from(code::BUSY)),
                            (
                                "error",
                                Json::from(format!("daemon at max_clients ({limit}); retry later")),
                            ),
                        ]);
                        let mut stream = stream;
                        let _ = writeln!(stream, "{doc}");
                        continue; // dropped: connection closed
                    }
                    let (reader, registered) = match (stream.try_clone(), stream.try_clone()) {
                        (Ok(r), Ok(g)) => (r, g),
                        _ => {
                            let mut stream = stream;
                            let doc = Json::obj(vec![
                                ("event", Json::from("error")),
                                ("code", Json::from(code::INTERNAL)),
                                ("error", Json::from("failed to clone the connection stream")),
                            ]);
                            let _ = writeln!(stream, "{doc}");
                            continue;
                        }
                    };
                    let id = next_id;
                    next_id += 1;
                    active.fetch_add(1, Ordering::SeqCst);
                    registry.lock().unwrap_or_else(|p| p.into_inner()).insert(id, registered);
                    let core = Arc::clone(&core);
                    let active = Arc::clone(&active);
                    let registry = Arc::clone(&registry);
                    let totals = &totals;
                    s.spawn(move || {
                        let summary = serve_stream(&core, std::io::BufReader::new(reader), stream);
                        let mut total = totals.lock().unwrap_or_else(|p| p.into_inner());
                        total.jobs += summary.jobs;
                        total.ok += summary.ok;
                        total.errors += summary.errors;
                        total.shutdown |= summary.shutdown;
                        registry.lock().unwrap_or_else(|p| p.into_inner()).remove(&id);
                        active.fetch_sub(1, Ordering::SeqCst);
                    });
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
        let streams: Vec<UnixStream> = registry
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain()
            .map(|(_, stream)| stream)
            .collect();
        for stream in streams {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
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

    #[test]
    fn cache_evicts_lru_idle_entries_but_never_the_protected_one() {
        let mut cache = Cache { entries: HashMap::new(), clock: 0, budget: 100 };
        for name in ["a", "b", "c"] {
            let entry = cache.entry_for(name);
            entry.bytes.store(60, Ordering::Relaxed);
        }
        // Budget 100, total 180: evict the two least-recently-touched.
        cache.evict_to_budget("c");
        assert!(!cache.entries.contains_key("a"));
        assert!(!cache.entries.contains_key("b"));
        assert!(cache.entries.contains_key("c"), "the just-written handle survives");

        // Busy entries are pinned even when oldest.
        let busy = cache.entry_for("busy");
        busy.bytes.store(60, Ordering::Relaxed);
        busy.queue.lock().unwrap().busy = true;
        let idle = cache.entry_for("idle");
        idle.bytes.store(60, Ordering::Relaxed);
        cache.evict_to_budget("idle");
        assert!(cache.entries.contains_key("busy"));
        assert!(cache.entries.contains_key("idle"));
        assert!(!cache.entries.contains_key("c"), "the idle LRU entry went instead");
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
        // The cancel token is registered at submission, so the inline
        // `cancel` op lands even if the worker has not started the sleep.
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
    fn read_line_capped_frames_and_counts() {
        let data = b"short\n0123456789abcdef-too-long\nnext\n";
        let mut input = std::io::Cursor::new(&data[..]);
        match read_line_capped(&mut input, 10).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "short"),
            _ => panic!("expected a line"),
        }
        match read_line_capped(&mut input, 10).unwrap() {
            LineRead::Oversize(n) => assert_eq!(n, 25),
            _ => panic!("expected oversize"),
        }
        match read_line_capped(&mut input, 10).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "next"),
            _ => panic!("the stream recovers cleanly after an oversize line"),
        }
        match read_line_capped(&mut input, 10).unwrap() {
            LineRead::Eof => {}
            _ => panic!("expected EOF"),
        }
    }
}
