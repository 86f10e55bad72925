//! Serve-daemon contract tests: the streaming job protocol end to end —
//! engine-level over in-memory streams, and through the real `dsmatch
//! serve` binary (batch stdin mode, interactive error paths, handle
//! eviction, and the Unix-socket transport).
//!
//! The load-bearing pin is the ISSUE's acceptance criterion: a `delta`
//! re-solve against a cached instance produces mates **byte-identical** to
//! a cold solve of the mutated instance while reporting **strictly fewer**
//! augmentation phases.

use dsmatch::engine::{serve, test_timeout, Json, ServeOptions};
use dsmatch::exact::sprank;
use dsmatch::graph::{BipartiteGraph, TripletMatrix};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

// ---------------------------------------------------------------------------
// Engine-level helpers
// ---------------------------------------------------------------------------

fn run_serve(input: &str, opts: &ServeOptions) -> Vec<Json> {
    let mut out: Vec<u8> = Vec::new();
    let summary = serve(std::io::Cursor::new(input.to_string()), &mut out, opts);
    let lines: Vec<Json> = String::from_utf8(out)
        .expect("utf8 output")
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad reply line {l:?}: {e}")))
        .collect();
    // Framing invariant: ready first, shutdown last, one reply per job.
    assert_eq!(lines[0].get("event").and_then(Json::as_str), Some("ready"));
    let last = lines.len() - 1;
    assert_eq!(lines[last].get("event").and_then(Json::as_str), Some("shutdown"));
    assert_eq!(lines.len() - 2, summary.jobs, "one reply line per job line");
    lines
}

/// Reply for the job with string id `id`.
fn reply<'a>(lines: &'a [Json], id: &str) -> &'a Json {
    lines
        .iter()
        .find(|l| l.get("id").and_then(Json::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no reply with id {id:?}"))
}

fn assert_ok(r: &Json) {
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "expected ok reply: {r}");
}

fn code_of(r: &Json) -> &str {
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "expected error reply: {r}");
    r.get("code").and_then(Json::as_str).expect("error replies carry a code")
}

/// Phase count of the last stage of a reply's report.
fn last_stage_phases(r: &Json) -> usize {
    let stages = r
        .get("report")
        .and_then(|rep| rep.get("stages"))
        .and_then(Json::as_arr)
        .expect("report with stages");
    stages
        .last()
        .and_then(|s| s.get("phases"))
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("last stage reports no phase counter: {r}"))
}

fn rmate_of(r: &Json) -> Vec<Option<usize>> {
    r.get("rmate")
        .and_then(Json::as_arr)
        .expect("reply with rmate")
        .iter()
        .map(Json::as_usize)
        .collect()
}

fn edges_json(edges: &[(usize, usize)]) -> String {
    let pairs: Vec<String> = edges.iter().map(|&(i, j)| format!("[{i},{j}]")).collect();
    format!("[{}]", pairs.join(","))
}

fn inline_instance(nrows: usize, ncols: usize, edges: &[(usize, usize)]) -> String {
    format!("{{\"nrows\":{nrows},\"ncols\":{ncols},\"edges\":{}}}", edges_json(edges))
}

/// A lower-triangular pattern with a full diagonal: row `i`'s adjacency is
/// a subset of columns `0..=i`, so (by induction on rows) the **only**
/// perfect matching is the diagonal — every exact solver must return the
/// same mate array, which is what makes the warm-vs-cold byte-identity
/// test meaningful rather than vacuous.
fn triangular_edges(n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, i));
        if i >= 1 {
            edges.push((i, i - 1));
        }
        if i >= 7 {
            edges.push((i, i - 7));
        }
    }
    edges
}

fn graph_from_edges(nrows: usize, ncols: usize, edges: &[(usize, usize)]) -> BipartiteGraph {
    let mut t = TripletMatrix::with_capacity(nrows, ncols, edges.len());
    for &(i, j) in edges {
        t.push(i, j);
    }
    BipartiteGraph::from_csr(t.into_csr())
}

// ---------------------------------------------------------------------------
// Engine-level protocol tests
// ---------------------------------------------------------------------------

/// The acceptance pin: a warm delta re-solve returns mates byte-identical
/// to a cold solve of the mutated instance, in strictly fewer phases.
#[test]
fn delta_resolve_is_byte_identical_to_cold_solve_with_fewer_phases() {
    let n = 64;
    let base = triangular_edges(n);
    // Mutate strictly below the diagonal: the unique perfect matching of
    // both patterns stays the diagonal, and the cached (diagonal) mates
    // survive the mutation — the warm finisher only has to certify.
    let remove = (9usize, 2usize);
    let add = (12usize, 3usize);
    assert!(base.contains(&remove) && !base.contains(&add));
    let mutated: Vec<(usize, usize)> =
        base.iter().copied().filter(|&e| e != remove).chain([add]).collect();

    let input = format!(
        "{{\"id\":\"cold-base\",\"pipeline\":\"hk-par\",\"instance\":{},\"store\":\"h\",\"mates\":true}}\n\
         {{\"id\":\"warm\",\"op\":\"delta\",\"handle\":\"h\",\"remove\":{},\"add\":{},\"finisher\":\"hk-par\",\"mates\":true}}\n\
         {{\"id\":\"cold-mut\",\"pipeline\":\"hk-par\",\"instance\":{},\"mates\":true}}\n",
        inline_instance(n, n, &base),
        edges_json(&[remove]),
        edges_json(&[add]),
        inline_instance(n, n, &mutated),
    );
    let lines = run_serve(&input, &ServeOptions { threads: 2, ..ServeOptions::default() });

    let warm = reply(&lines, "warm");
    let cold = reply(&lines, "cold-mut");
    assert_ok(warm);
    assert_ok(cold);
    assert_eq!(warm.get("warm").and_then(Json::as_bool), Some(true));

    // Byte-identical mates: the mutated pattern's unique perfect matching.
    let expected: Vec<Option<usize>> = (0..n).map(Some).collect();
    assert_eq!(rmate_of(warm), expected, "warm delta mates");
    assert_eq!(rmate_of(cold), expected, "cold solve mates");
    assert_eq!(rmate_of(warm), rmate_of(cold));

    // Strictly fewer phases: the warm start is already maximum, so the
    // finisher runs exactly its certifying phase; a cold solve cannot.
    let warm_phases = last_stage_phases(warm);
    let cold_phases = last_stage_phases(cold);
    assert!(
        warm_phases < cold_phases,
        "warm delta must re-augment in strictly fewer phases: warm {warm_phases}, cold {cold_phases}"
    );
    assert_eq!(warm_phases, 1, "a surviving maximum matching certifies in one phase");
}

/// A delta that breaks matched edges still lands on the exact optimum of
/// the mutated graph (checked against a locally computed sprank).
#[test]
fn delta_after_removing_matched_edges_reaches_the_exact_optimum() {
    let g = dsmatch::gen::erdos_renyi_square(400, 3.0, 11);
    let base: Vec<(usize, usize)> = g.csr().iter_entries().collect();
    // Remove a spread of edges (some will be matched), add a few fresh.
    let remove: Vec<(usize, usize)> = base.iter().copied().step_by(97).take(12).collect();
    let add: Vec<(usize, usize)> = vec![(0, 399), (399, 0), (200, 7)];
    let mutated: Vec<(usize, usize)> =
        base.iter().copied().filter(|e| !remove.contains(e)).chain(add.iter().copied()).collect();
    let expected = sprank(&graph_from_edges(400, 400, &mutated));

    let input = format!(
        "{{\"id\":\"seed\",\"pipeline\":\"scale:sk:3,two,pf-par\",\"instance\":{},\"store\":\"g\"}}\n\
         {{\"id\":\"delta\",\"op\":\"delta\",\"handle\":\"g\",\"remove\":{},\"add\":{}}}\n",
        inline_instance(400, 400, &base),
        edges_json(&remove),
        edges_json(&add),
    );
    let lines = run_serve(&input, &ServeOptions { threads: 2, ..ServeOptions::default() });
    let delta = reply(&lines, "delta");
    assert_ok(delta);
    assert_eq!(delta.get("warm").and_then(Json::as_bool), Some(true));
    let card = delta
        .get("report")
        .and_then(|r| r.get("cardinality"))
        .and_then(Json::as_usize)
        .expect("delta report cardinality");
    assert_eq!(card, expected, "delta must reach the mutated instance's sprank");
}

/// The in-place CSR patch behind delta jobs is byte-identical to a full
/// rebuild, including the overlap semantics: an edge in both lists is
/// added (add wins), removing an absent edge and adding a present one are
/// no-ops. A delta whose add/remove cancel out must therefore return
/// exactly the base solve's mates, certifying in one phase.
#[test]
fn delta_patch_with_overlapping_noops_matches_the_unpatched_instance() {
    let n = 48;
    let base = triangular_edges(n);
    // (9,2) is present: removed AND re-added (add wins ⇒ still present);
    // (9,9) is present: re-added (no-op); (2,9) is absent: removed (no-op).
    assert!(base.contains(&(9, 2)) && base.contains(&(9, 9)) && !base.contains(&(2, 9)));
    let input = format!(
        "{{\"id\":\"seed\",\"pipeline\":\"hk-par\",\"instance\":{},\"store\":\"h\",\"mates\":true}}\n\
         {{\"id\":\"noop\",\"op\":\"delta\",\"handle\":\"h\",\"remove\":{},\"add\":{},\"finisher\":\"hk-par\",\"mates\":true}}\n",
        inline_instance(n, n, &base),
        edges_json(&[(9, 2), (2, 9)]),
        edges_json(&[(9, 2), (9, 9)]),
    );
    let lines = run_serve(&input, &ServeOptions { threads: 2, ..ServeOptions::default() });
    let seed = reply(&lines, "seed");
    let noop = reply(&lines, "noop");
    assert_ok(seed);
    assert_ok(noop);
    assert_eq!(rmate_of(noop), rmate_of(seed), "cancelling patch must not move any mate");
    assert_eq!(last_stage_phases(noop), 1, "nothing to re-augment: one certifying phase");
}

/// A delta job may name `auto` as its finisher: the statistics policy
/// picks the engine for the *mutated* instance and the reply's stage
/// reports which one ran in its `selected` field.
#[test]
fn delta_with_auto_finisher_reports_the_selected_engine() {
    let g = dsmatch::gen::erdos_renyi_square(400, 3.0, 11);
    let base: Vec<(usize, usize)> = g.csr().iter_entries().collect();
    let remove: Vec<(usize, usize)> = base.iter().copied().step_by(151).take(5).collect();
    let add: Vec<(usize, usize)> = vec![(7, 301), (399, 12)];
    let mutated: Vec<(usize, usize)> =
        base.iter().copied().filter(|e| !remove.contains(e)).chain(add.iter().copied()).collect();
    let expected = sprank(&graph_from_edges(400, 400, &mutated));

    let input = format!(
        "{{\"id\":\"seed\",\"pipeline\":\"scale:sk:3,two,pf-par\",\"instance\":{},\"store\":\"g\"}}\n\
         {{\"id\":\"delta\",\"op\":\"delta\",\"handle\":\"g\",\"remove\":{},\"add\":{},\"finisher\":\"auto\"}}\n",
        inline_instance(400, 400, &base),
        edges_json(&remove),
        edges_json(&add),
    );
    let lines = run_serve(&input, &ServeOptions { threads: 2, ..ServeOptions::default() });
    let delta = reply(&lines, "delta");
    assert_ok(delta);
    assert_eq!(delta.get("warm").and_then(Json::as_bool), Some(true));
    let stages = delta
        .get("report")
        .and_then(|r| r.get("stages"))
        .and_then(Json::as_arr)
        .expect("delta report stages");
    let stage = stages.last().expect("delta stage");
    assert_eq!(stage.get("stage").and_then(Json::as_str), Some("delta:auto"));
    // Sparse + uniform degrees: the policy resolves to the grafted forest.
    assert_eq!(stage.get("selected").and_then(Json::as_str), Some("pf-graft"));
    let card = delta
        .get("report")
        .and_then(|r| r.get("cardinality"))
        .and_then(Json::as_usize)
        .expect("delta report cardinality");
    assert_eq!(card, expected, "auto delta must reach the mutated instance's sprank");
}

/// One cached instance, many pipeline specs: parse once, solve under
/// per-job specs, exact jobs all landing on quality 1.
#[test]
fn cached_handle_serves_many_pipeline_specs() {
    let input = concat!(
        "{\"id\":\"load\",\"pipeline\":\"two\",\"instance\":\"gen:er:500:4:3\",\"store\":\"er\"}\n",
        "{\"id\":\"hk\",\"pipeline\":\"hk\",\"instance\":{\"handle\":\"er\"},\"quality\":true}\n",
        "{\"id\":\"pf-par\",\"pipeline\":\"scale:sk:3,two,pf-par\",\"instance\":{\"handle\":\"er\"},\"quality\":true}\n",
        "{\"id\":\"heur\",\"pipeline\":\"scale:sk:5,one\",\"instance\":{\"handle\":\"er\"},\"quality\":true}\n",
    );
    let lines = run_serve(input, &ServeOptions { threads: 2, ..ServeOptions::default() });
    for id in ["load", "hk", "pf-par", "heur"] {
        assert_ok(reply(&lines, id));
    }
    for exact in ["hk", "pf-par"] {
        let q = reply(&lines, exact)
            .get("report")
            .and_then(|r| r.get("quality"))
            .and_then(Json::as_f64)
            .expect("quality requested");
        assert_eq!(q, 1.0, "exact job {exact} must report quality 1");
    }
    let heur_q = reply(&lines, "heur")
        .get("report")
        .and_then(|r| r.get("quality"))
        .and_then(Json::as_f64)
        .expect("quality requested");
    assert!(heur_q > 0.5 && heur_q <= 1.0, "heuristic quality in range: {heur_q}");
}

/// Structured error replies, and the daemon keeps serving after each.
#[test]
fn protocol_errors_are_structured_and_nonfatal() {
    let input = concat!(
        "{\"id\":\"ghost\",\"op\":\"delta\",\"handle\":\"nope\"}\n",
        "{\"id\":\"badspec\",\"pipeline\":\"two,frobnicate\",\"instance\":\"gen:er:40:3\"}\n",
        "{\"id\":\"badgen\",\"pipeline\":\"two\",\"instance\":\"gen:zipf:40\"}\n",
        "{\"id\":\"oob\",\"pipeline\":\"two\",\"instance\":{\"nrows\":4,\"ncols\":4,\"edges\":[[9,0]]}}\n",
        "{\"id\":\"alive\",\"op\":\"ping\"}\n",
    );
    let lines = run_serve(input, &ServeOptions { threads: 1, ..ServeOptions::default() });
    assert_eq!(code_of(reply(&lines, "ghost")), "handle");
    assert_eq!(code_of(reply(&lines, "badspec")), "spec");
    assert!(
        reply(&lines, "badspec")
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown algorithm"),
        "SpecError text is surfaced verbatim"
    );
    assert_eq!(code_of(reply(&lines, "badgen")), "instance");
    assert_eq!(code_of(reply(&lines, "oob")), "instance");
    assert_ok(reply(&lines, "alive"));
}

/// Admission control: with `max_queue: 1` and one job parked on a worker,
/// the next worker-bound job is rejected deterministically — the reader
/// counts in-flight jobs at submission, so no timing is involved.
#[test]
fn full_queue_rejects_with_a_structured_error() {
    let input = concat!(
        "{\"id\":\"slow\",\"op\":\"sleep\",\"ms\":300}\n",
        "{\"id\":\"rejected\",\"pipeline\":\"two\",\"instance\":\"gen:er:40:3\"}\n",
    );
    let opts = ServeOptions { threads: 1, max_queue: 1, ..ServeOptions::default() };
    let lines = run_serve(input, &opts);
    assert_ok(reply(&lines, "slow"));
    assert_eq!(code_of(reply(&lines, "rejected")), "queue");
}

/// Reports stream in completion order: a ping submitted after a sleeping
/// job is answered before it.
#[test]
fn replies_stream_in_completion_order_not_submission_order() {
    let input = concat!(
        "{\"id\":\"slow\",\"op\":\"sleep\",\"ms\":300}\n",
        "{\"id\":\"fast\",\"op\":\"ping\"}\n",
    );
    let lines = run_serve(input, &ServeOptions { threads: 2, ..ServeOptions::default() });
    let pos = |id: &str| {
        lines
            .iter()
            .position(|l| l.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no reply {id}"))
    };
    assert!(pos("fast") < pos("slow"), "the ping must not wait behind the sleeping job");
}

/// A shutdown op stops the session: jobs after it are never read.
#[test]
fn shutdown_op_stops_reading() {
    let input = concat!(
        "{\"id\":\"p\",\"op\":\"ping\"}\n",
        "{\"id\":\"bye\",\"op\":\"shutdown\"}\n",
        "{\"id\":\"never\",\"op\":\"ping\"}\n",
    );
    let lines = run_serve(input, &ServeOptions { threads: 1, ..ServeOptions::default() });
    assert_ok(reply(&lines, "p"));
    assert_ok(reply(&lines, "bye"));
    assert!(
        !lines.iter().any(|l| l.get("id").and_then(Json::as_str) == Some("never")),
        "jobs after shutdown must not be processed"
    );
    let last = &lines[lines.len() - 1];
    assert_eq!(last.get("jobs").and_then(Json::as_usize), Some(2));
}

// ---------------------------------------------------------------------------
// Real-binary tests
// ---------------------------------------------------------------------------

fn serve_cmd(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dsmatch"));
    cmd.arg("serve").args(args);
    cmd
}

/// An interactive daemon child: write one job line, then block on its
/// reply — the synchronization the stateful lifecycle tests (drop,
/// eviction) need for determinism.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: std::io::Lines<BufReader<ChildStdout>>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = serve_cmd(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning dsmatch serve");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap()).lines();
        let mut daemon = Daemon { child, stdin, stdout };
        let ready = daemon.next_line();
        assert!(ready.contains("\"event\":\"ready\""), "first line: {ready}");
        daemon
    }

    fn next_line(&mut self) -> String {
        self.stdout.next().expect("daemon closed its stdout").expect("reading daemon stdout")
    }

    /// Send one job line and return its reply line.
    fn round_trip(&mut self, job: &str) -> String {
        writeln!(self.stdin, "{job}").expect("writing to daemon stdin");
        self.next_line()
    }

    fn finish(mut self) {
        drop(self.stdin);
        let status = self.child.wait().expect("waiting for daemon");
        assert!(status.success(), "daemon exit status: {status}");
    }
}

/// Batch mode through the real binary: mixed jobs over stdin, one reply
/// line per job, the requested worker count actually observed.
#[test]
fn binary_batch_streams_one_reply_per_job() {
    let jobs = concat!(
        "{\"id\":1,\"pipeline\":\"scale:sk:3,two\",\"instance\":\"gen:er:300:3:1\",\"store\":\"a\"}\n",
        "{\"id\":2,\"op\":\"delta\",\"handle\":\"a\",\"add\":[[0,1]]}\n",
        "{\"id\":3,\"pipeline\":\"hk\",\"instance\":\"gen:er:200:3:2\"}\n",
        "{\"id\":4,\"op\":\"ping\"}\n",
    );
    let mut child = serve_cmd(&["--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning dsmatch serve");
    child.stdin.take().unwrap().write_all(jobs.as_bytes()).expect("writing jobs");
    let out = child.wait_with_output().expect("daemon output");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"observed_workers\":2"), "ready line: {text}");
    let replies = text.lines().filter(|l| l.contains("\"id\":")).count();
    assert_eq!(replies, 4, "one reply line per job:\n{text}");
    assert!(!text.contains("\"ok\":false"), "all jobs succeed:\n{text}");
    assert!(text.contains("\"warm\":true"), "the delta re-solve ran warm:\n{text}");
}

/// Interactive lifecycle: errors of every class leave the daemon serving.
#[test]
fn binary_interactive_daemon_survives_error_replies() {
    let mut d = Daemon::spawn(&["--threads", "2"]);
    for (job, code) in [
        ("{oops", "\"code\":\"parse\""),
        ("{\"id\":1,\"pipeline\":\"warp\",\"instance\":\"gen:er:40:3\"}", "\"code\":\"spec\""),
        ("{\"id\":2,\"op\":\"delta\",\"handle\":\"ghost\"}", "\"code\":\"handle\""),
        ("{\"id\":3,\"pipeline\":\"two\",\"instance\":\"gen:er:0:3\"}", "\"code\":\"instance\""),
    ] {
        let reply = d.round_trip(job);
        assert!(reply.contains(code), "job {job}: reply {reply}");
        assert!(reply.contains("\"ok\":false"), "reply {reply}");
    }
    let pong = d.round_trip("{\"id\":4,\"op\":\"ping\"}");
    assert!(pong.contains("\"ok\":true"), "daemon still serves after errors: {pong}");
    d.finish();
}

/// Handle lifecycle: store, drop, and LRU eviction under a zero cache
/// budget — the older idle handle goes, the just-written one survives.
#[test]
fn binary_handle_lifecycle_drop_and_eviction() {
    let mut d = Daemon::spawn(&["--threads", "2", "--cache-mb", "0"]);
    let store = |h: &str| {
        format!(
            "{{\"id\":\"s\",\"pipeline\":\"two\",\"instance\":\"gen:er:200:3\",\"store\":{h:?}}}"
        )
    };
    assert!(d.round_trip(&store("h1")).contains("\"ok\":true"));
    // Storing h2 pushes the (zero) budget over; idle h1 is the LRU victim.
    assert!(d.round_trip(&store("h2")).contains("\"ok\":true"));
    let gone = d.round_trip("{\"id\":\"g\",\"pipeline\":\"hk\",\"instance\":{\"handle\":\"h1\"}}");
    assert!(
        gone.contains("\"code\":\"handle\""),
        "h1 must have been evicted under a zero budget: {gone}"
    );
    let kept = d.round_trip("{\"id\":\"k\",\"pipeline\":\"hk\",\"instance\":{\"handle\":\"h2\"}}");
    assert!(kept.contains("\"ok\":true"), "the just-written handle survives: {kept}");

    // Explicit drop detaches, further references fail, re-store works.
    assert!(d
        .round_trip("{\"id\":\"d\",\"op\":\"drop\",\"handle\":\"h2\"}")
        .contains("\"ok\":true"));
    let dropped =
        d.round_trip("{\"id\":\"g2\",\"pipeline\":\"hk\",\"instance\":{\"handle\":\"h2\"}}");
    assert!(dropped.contains("\"code\":\"handle\""), "{dropped}");
    assert!(d.round_trip(&store("h2")).contains("\"ok\":true"));
    d.finish();
}

// ---------------------------------------------------------------------------
// Unix-socket helpers (shared by the transport + concurrency tests)
// ---------------------------------------------------------------------------

/// A fresh per-test socket path under the system temp dir.
#[cfg(unix)]
fn socket_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "dsmatch-{tag}-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Connect to `path`, retrying while the daemon is still binding it.
#[cfg(unix)]
fn connect_socket(path: &std::path::Path) -> std::os::unix::net::UnixStream {
    let deadline = std::time::Instant::now() + test_timeout(30);
    loop {
        match std::os::unix::net::UnixStream::connect(path) {
            Ok(s) => return s,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(20))
            }
            Err(e) => panic!("socket {path:?} never came up: {e}"),
        }
    }
}

/// One client session on the socket daemon: a write half plus a line
/// reader over a clone of the same stream.
#[cfg(unix)]
struct SocketClient {
    write: std::os::unix::net::UnixStream,
    lines: std::io::Lines<BufReader<std::os::unix::net::UnixStream>>,
}

#[cfg(unix)]
impl SocketClient {
    fn new(stream: std::os::unix::net::UnixStream) -> SocketClient {
        let lines = BufReader::new(stream.try_clone().expect("cloning stream")).lines();
        SocketClient { write: stream, lines }
    }

    /// Connect and consume the per-connection ready line.
    fn ready(path: &std::path::Path) -> SocketClient {
        let mut c = SocketClient::new(connect_socket(path));
        let first = c.next();
        assert!(first.contains("\"event\":\"ready\""), "first line: {first}");
        c
    }

    fn next(&mut self) -> String {
        self.lines.next().expect("socket closed").expect("reading socket")
    }

    fn send(&mut self, line: &str) {
        writeln!(self.write, "{line}").expect("writing to socket");
    }

    /// Send one job line and return its reply, asserting the reply's id.
    fn round_trip(&mut self, job: &str, id: &str) -> String {
        self.send(job);
        let reply = self.next();
        assert!(reply.contains(&format!("\"id\":{id:?}")), "job {job}: reply {reply}");
        reply
    }
}

/// Satellite pin: warm `delta` jobs racing on the SAME handle from
/// concurrent client connections serialize per-handle FIFO — every reply
/// is byte-identical to the one the same job id gets from a sequential
/// single-connection run, and the daemon's cached state ends up intact.
///
/// Each client toggles its own below-diagonal edge of a triangular
/// pattern, so the mutations commute and every intermediate pattern keeps
/// the diagonal as its unique perfect matching: any interleaving that
/// respects per-handle serialization must report the diagonal mates.
#[cfg(unix)]
#[test]
fn concurrent_delta_clients_on_one_handle_match_sequential_byte_for_byte() {
    let n = 48;
    let base = triangular_edges(n);
    let path = socket_path("delta-race");
    let mut child = serve_cmd(&["--threads", "2", "--socket", path.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning socket daemon");

    let seed_job = format!(
        "{{\"id\":\"seed\",\"pipeline\":\"hk-par\",\"instance\":{},\"store\":\"h\",\"mates\":true}}",
        inline_instance(n, n, &base)
    );
    // Job lines per client: toggle edge (20+k, 19+k) off and back on, twice.
    let client_jobs = |k: usize| -> Vec<(String, String)> {
        let (i, j) = (20 + k, 19 + k);
        assert!(base.contains(&(i, j)), "toggled edge must exist in the base pattern");
        (0..4)
            .map(|r| {
                let id = format!("c{k}-{r}");
                let patch = if r % 2 == 0 {
                    format!("\"remove\":[[{i},{j}]]")
                } else {
                    format!("\"add\":[[{i},{j}]]")
                };
                let job = format!(
                    "{{\"id\":{id:?},\"op\":\"delta\",\"handle\":\"h\",{patch},\
                     \"finisher\":\"hk-par\",\"mates\":true}}"
                );
                (id, job)
            })
            .collect()
    };

    let mut seeder = SocketClient::ready(&path);
    let seeded = seeder.round_trip(&seed_job, "seed");
    assert!(seeded.contains("\"ok\":true"), "{seeded}");

    // Race: three connections hammer the handle concurrently.
    let concurrent: Vec<(String, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|k| {
                let path = &path;
                let jobs = client_jobs(k);
                s.spawn(move || {
                    let mut c = SocketClient::ready(path);
                    jobs.into_iter()
                        .map(|(id, job)| {
                            let reply = c.round_trip(&job, &id);
                            (id, reply)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });

    // The cached pattern survived the race: a fresh solve on the handle
    // still finds the diagonal, and the daemon still serves.
    let check = seeder.round_trip(
        "{\"id\":\"check\",\"pipeline\":\"hk\",\"instance\":{\"handle\":\"h\"},\"mates\":true}",
        "check",
    );
    assert!(check.contains("\"ok\":true"), "{check}");
    let bye = seeder.round_trip("{\"id\":\"bye\",\"op\":\"shutdown\"}", "bye");
    assert!(bye.contains("\"ok\":true"), "{bye}");
    assert!(child.wait().expect("waiting for daemon").success());

    // Sequential reference: the same job lines down ONE connection of an
    // in-process engine, in deterministic order.
    let mut input = format!("{seed_job}\n");
    for k in 0..3 {
        for (_, job) in client_jobs(k) {
            input.push_str(&job);
            input.push('\n');
        }
    }
    let sequential = run_serve(&input, &ServeOptions { threads: 2, ..ServeOptions::default() });

    let expected: Vec<Option<usize>> = (0..n).map(Some).collect();
    assert_eq!(concurrent.len(), 12, "one reply per racing delta job");
    for (id, line) in &concurrent {
        assert!(line.contains("\"ok\":true"), "job {id}: {line}");
        assert!(line.contains("\"warm\":true"), "job {id} must run warm: {line}");
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("reply {line:?}: {e}"));
        assert_eq!(rmate_of(&doc), expected, "job {id} mates");
        assert_eq!(
            rmate_of(&doc),
            rmate_of(reply(&sequential, id)),
            "job {id}: concurrent reply must be byte-identical to the sequential run"
        );
    }
}

/// Admission control on the socket transport: with `--max-clients 1` the
/// second connection is turned away with one structured busy line, and
/// the slot is reusable once the first client hangs up.
#[cfg(unix)]
#[test]
fn max_clients_overflow_is_rejected_with_busy_and_slot_is_reclaimed() {
    let path = socket_path("max-clients");
    let mut child =
        serve_cmd(&["--threads", "1", "--max-clients", "1", "--socket", path.to_str().unwrap()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning socket daemon");

    let mut first = SocketClient::ready(&path);
    let pong = first.round_trip("{\"id\":\"p\",\"op\":\"ping\"}", "p");
    assert!(pong.contains("\"ok\":true"), "{pong}");

    // Second concurrent connection: one busy line, then EOF.
    let mut second = SocketClient::new(connect_socket(&path));
    let line = second.next();
    assert!(line.contains("\"code\":\"busy\""), "rejection line: {line}");
    assert!(line.contains("max_clients"), "the error names the limit: {line}");
    assert!(second.lines.next().is_none(), "rejected connections are closed");

    // Hang up the occupant; the daemon reclaims the slot (the handler
    // thread exits asynchronously, so admission may lag a beat).
    drop(first);
    let deadline = std::time::Instant::now() + test_timeout(30);
    let mut third = loop {
        let mut c = SocketClient::new(connect_socket(&path));
        let first_line = c.next();
        if first_line.contains("\"event\":\"ready\"") {
            break c;
        }
        assert!(first_line.contains("\"code\":\"busy\""), "unexpected line: {first_line}");
        assert!(std::time::Instant::now() < deadline, "slot never reclaimed");
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let bye = third.round_trip("{\"id\":\"bye\",\"op\":\"shutdown\"}", "bye");
    assert!(bye.contains("\"ok\":true"), "{bye}");
    assert!(child.wait().expect("waiting for daemon").success());
}

/// The Unix-socket transport: same protocol, daemon shared across the
/// connection, shutdown op ends the process.
#[cfg(unix)]
#[test]
fn binary_unix_socket_round_trip() {
    use std::os::unix::net::UnixStream;
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dsmatch-serve-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut child = serve_cmd(&["--threads", "2", "--socket", path.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning socket daemon");

    // Wait for the socket to appear (the daemon binds it at startup).
    let deadline = std::time::Instant::now() + test_timeout(30);
    let stream = loop {
        match UnixStream::connect(&path) {
            Ok(s) => break s,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(20))
            }
            Err(e) => {
                let _ = child.kill();
                panic!("socket {path:?} never came up: {e}");
            }
        }
    };
    let mut reader = BufReader::new(stream.try_clone().expect("cloning stream")).lines();
    let mut write = stream;
    let mut next = || reader.next().expect("socket closed").expect("reading socket");

    assert!(next().contains("\"event\":\"ready\""));
    writeln!(write, "{{\"id\":1,\"pipeline\":\"two,pf-par\",\"instance\":\"gen:er:200:3\"}}")
        .unwrap();
    assert!(next().contains("\"ok\":true"));
    writeln!(write, "{{\"id\":2,\"op\":\"shutdown\"}}").unwrap();
    assert!(next().contains("\"ok\":true"));
    let status = child.wait().expect("waiting for socket daemon");
    assert!(status.success(), "daemon exit: {status}");
    let _ = std::fs::remove_file(&path);
}
