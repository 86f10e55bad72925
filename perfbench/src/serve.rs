//! The `serve-mixed` workload: two closed-loop connections to
//! `dsmatch serve --threads 2` over its Unix socket, sending a seeded mix
//! of cold, cached-handle, warm-delta, weighted and `dm,` jobs.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dsmatch_exact::{pothen_fan_par_ws, AugmentWorkspace};
use dsmatch_gen::{rmat, RmatParams};
use dsmatch_graph::{BipartiteGraph, Matching};
use dsmatch_json::{parse_json, Json};

use crate::inputs::{self, Fnv, Rng, DEGREE};
use crate::{host, stats, Metrics, Outcome, PARTS, THREADS};

/// Rows of every `er` instance the daemon sees.
pub const N: usize = 100_000;
/// The `skew` handle: R-MAT with `2^SKEW_SCALE` rows.
pub const SKEW_SCALE: u32 = 15;
/// Additions and removals per delta job.
pub const DELTA_K: usize = 8;
/// Client connections, each driven by its own thread.
pub const CONNECTIONS: usize = 2;
/// Distinct instances the cold `gen:` jobs cycle through.
const COLD_INSTANCES: usize = 4;
/// Jobs planned per connection; more than any run sends.
const SCRIPT_LEN: usize = 20_000;
/// Delta steps per connection the fingerprint hashes, whatever length a
/// run replays.
pub const FINGERPRINT_STEPS: usize = 16;
/// Delta steps replayed per connection per second of timed phase: several
/// times the per-connection delta rate this mix reaches (about one per
/// second). A connection that runs out of steps fails the run (cause
/// `script`) rather than change the job mix; raise this if it happens.
const DELTA_STEPS_PER_S: f64 = 8.0;
/// How long any single reply may take before the connection counts as
/// broken.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The job kinds of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Cold,
    Er,
    Skew,
    Delta,
    Suitor,
    Dm,
}

impl Kind {
    pub const ALL: [Kind; 6] =
        [Kind::Cold, Kind::Er, Kind::Skew, Kind::Delta, Kind::Suitor, Kind::Dm];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Er => "er",
            Kind::Skew => "skew",
            Kind::Delta => "delta",
            Kind::Suitor => "suitor",
            Kind::Dm => "dm",
        }
    }

    /// Share of the mix in percent.
    pub fn share(self) -> usize {
        match self {
            Kind::Cold => 15,
            Kind::Er => 35,
            Kind::Skew => 10,
            Kind::Delta => 20,
            Kind::Suitor => 10,
            Kind::Dm => 10,
        }
    }

    pub fn pipeline(self) -> &'static str {
        match self {
            Kind::Cold | Kind::Er | Kind::Skew => "scale:sk:5,two,auto",
            Kind::Suitor => "scale:sk:5,suitor",
            Kind::Dm => "dm,scale:sk:5,two,pr",
            Kind::Delta => "",
        }
    }
}

/// One planned job of a connection's script.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    pub kind: Kind,
    pub seed: u64,
    /// Which cold instance a `Cold` job generates.
    pub cold: usize,
}

/// Jobs per block of a script: every block holds each kind exactly its
/// share, so the mix a run completes does not drift with the seed.
const BLOCK: usize = 20;

/// The job order of connection `conn`: consecutive blocks, each a seeded
/// shuffle of the mix at its exact shares.
pub fn job_script(seed: u64, conn: usize, len: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 100 + conn as u64);
    let block: Vec<Kind> =
        Kind::ALL.iter().flat_map(|&k| std::iter::repeat_n(k, k.share() * BLOCK / 100)).collect();
    let mut script = Vec::with_capacity(len);
    while script.len() < len {
        let mut kinds = block.clone();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i + 1));
        }
        for kind in kinds.into_iter().take(len - script.len()) {
            script.push(Planned {
                kind,
                seed: rng.next_u64() >> 1,
                cold: rng.below(COLD_INSTANCES),
            });
        }
    }
    script
}

/// One replayed delta step and the cardinality the daemon must answer.
pub struct Step {
    pub add: Vec<(usize, usize)>,
    pub remove: Vec<(usize, usize)>,
    pub cardinality: usize,
}

/// The connection's delta handle, replayed offline: its base instance,
/// the cold `pf-par` mates the daemon stores, and the steps that follow.
/// Each step removes edges matched in the replayed state, which is the
/// daemon's state too because `pf-par` is byte-identical at every pool
/// size; the cardinality check holds whichever exact finisher the daemon
/// runs.
fn replay(seed: u64, steps: usize) -> (Matching, Vec<Step>) {
    inputs::pinned(|| {
        let mut g = dsmatch_gen::erdos_renyi_square(N, DEGREE, seed);
        let mut ws = AugmentWorkspace::new();
        let (base, _) = pothen_fan_par_ws(&g, None, &mut ws);
        let mut m = base.clone();
        let mut rng = Rng::new(seed, 7);
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (add, remove) = inputs::delta_step(&g, &m, DELTA_K, &mut rng);
            let (next, pruned) = inputs::apply_delta(&g, &m, &add, &remove);
            m = pothen_fan_par_ws(&next, Some(&pruned), &mut ws).0;
            g = next;
            out.push(Step { add, remove, cardinality: m.cardinality() });
        }
        (base, out)
    })
}

/// Every input of a serve session, built from the seed before any timer
/// starts, plus the reference answers the replies are checked against.
pub struct Inputs {
    er_seed: u64,
    er_sprank: usize,
    skew_instance: Json,
    skew_sprank: usize,
    cold_seeds: Vec<u64>,
    cold_spranks: Vec<usize>,
    delta_seeds: Vec<u64>,
    delta_bases: Vec<usize>,
    deltas: Vec<Vec<Step>>,
    scripts: Vec<Vec<Planned>>,
    pub fingerprint: Json,
}

pub fn skew_graph(seed: u64) -> BipartiteGraph {
    inputs::pinned(|| rmat(SKEW_SCALE, DEGREE, RmatParams::GRAPH500, inputs::derive(seed, 11)))
}

pub fn er_seed(seed: u64) -> u64 {
    inputs::derive(seed, 10)
}

pub fn build_inputs(seed: u64, delta_steps: usize) -> Inputs {
    let er_seed = er_seed(seed);
    let er = inputs::er(N, er_seed);
    let er_sprank = inputs::sprank(&er);
    let skew = skew_graph(seed);
    let skew_sprank = inputs::sprank(&skew);
    let edges = skew
        .csr()
        .iter_entries()
        .map(|(i, j)| Json::Arr(vec![Json::from(i), Json::from(j)]))
        .collect();
    let skew_instance = Json::obj(vec![
        ("nrows", Json::from(skew.nrows())),
        ("ncols", Json::from(skew.ncols())),
        ("edges", Json::Arr(edges)),
    ]);
    let cold_seeds: Vec<u64> =
        (0..COLD_INSTANCES).map(|c| inputs::derive(seed, 20 + c as u64)).collect();
    let cold_spranks: Vec<usize> =
        cold_seeds.iter().map(|&s| inputs::sprank(&inputs::er(N, s))).collect();
    let delta_seeds: Vec<u64> =
        (0..CONNECTIONS).map(|c| inputs::derive(seed, 30 + c as u64)).collect();
    let replays: Vec<(Matching, Vec<Step>)> = std::thread::scope(|s| {
        let handles: Vec<_> =
            delta_seeds.iter().map(|&ds| s.spawn(move || replay(ds, delta_steps))).collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });
    let scripts: Vec<Vec<Planned>> =
        (0..CONNECTIONS).map(|c| job_script(seed, c, SCRIPT_LEN)).collect();

    let mut h_er = Fnv::new();
    inputs::hash_graph(&mut h_er, &er);
    let mut h_skew = Fnv::new();
    inputs::hash_graph(&mut h_skew, &skew);
    let mut h_delta = Fnv::new();
    let mut h_mates = Fnv::new();
    for (base, steps) in &replays {
        inputs::hash_mates(&mut h_mates, base);
        for step in steps.iter().take(FINGERPRINT_STEPS) {
            for &(i, j) in step.add.iter().chain(&step.remove) {
                h_delta.u64(i as u64);
                h_delta.u64(j as u64);
            }
            h_delta.u64(step.cardinality as u64);
        }
    }
    let mut h_script = Fnv::new();
    for script in &scripts {
        for p in script {
            h_script.u64(p.kind as u64);
            h_script.u64(p.seed);
            h_script.u64(p.cold as u64);
        }
    }
    let fingerprint = Json::obj(vec![
        ("workload", Json::from("serve-mixed")),
        ("n", Json::from(N)),
        ("nnz", Json::from(er.nnz())),
        ("sprank", Json::from(er_sprank)),
        ("csr_hash", inputs::hex(h_er.finish())),
        ("skew_n", Json::from(skew.nrows())),
        ("skew_nnz", Json::from(skew.nnz())),
        ("skew_sprank", Json::from(skew_sprank)),
        ("skew_csr_hash", inputs::hex(h_skew.finish())),
        ("cold_spranks", Json::Arr(cold_spranks.iter().map(|&s| Json::from(s)).collect())),
        ("warm_mates_hash", inputs::hex(h_mates.finish())),
        ("delta_script_hash", inputs::hex(h_delta.finish())),
        ("job_script_hash", inputs::hex(h_script.finish())),
    ]);
    let (delta_bases, deltas) = replays.into_iter().map(|(b, s)| (b.cardinality(), s)).unzip();
    Inputs {
        er_seed,
        er_sprank,
        skew_instance,
        skew_sprank,
        cold_seeds,
        cold_spranks,
        delta_seeds,
        delta_bases,
        deltas,
        scripts,
        fingerprint,
    }
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

/// Every error code the daemon's `"ok":false` replies may carry.
pub const ERROR_CODES: [&str; 9] =
    ["parse", "spec", "instance", "handle", "queue", "deadline", "job", "internal", "busy"];

/// What one reply line says.
#[derive(Debug, PartialEq)]
pub enum Reply {
    /// `"ok":true`, with the parsed document.
    Ok(Json),
    /// `"ok":false`, or a connection-level `{"event":"error"}`, with a
    /// known error code.
    Error(&'static str),
    /// A framing line (`{"event":"ready"}`, `{"event":"shutdown"}`, …).
    Event(String),
    /// Not a JSON object, truncated, or missing the fields a reply has.
    Garbled,
}

/// Classify one line read from the daemon.
pub fn classify(line: &str) -> Reply {
    let Ok(doc) = parse_json(line.trim()) else { return Reply::Garbled };
    let code = |doc: &Json| {
        let code = doc.get("code").and_then(Json::as_str)?;
        ERROR_CODES.into_iter().find(|&c| c == code)
    };
    if let Some(event) = doc.get("event").and_then(Json::as_str) {
        return match (event, code(&doc)) {
            ("error", Some(c)) => Reply::Error(c),
            ("error", None) => Reply::Garbled,
            (e, _) => Reply::Event(e.to_string()),
        };
    }
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) if doc.get("id").is_some() => Reply::Ok(doc),
        Some(false) => code(&doc).map_or(Reply::Garbled, Reply::Error),
        _ => Reply::Garbled,
    }
}

/// One client connection: closed loop, one request in flight.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: u64,
}

impl Conn {
    /// Connect, retrying while the daemon binds its socket, and read the
    /// `ready` line.
    fn open(path: &Path, deadline: Instant) -> Result<Conn, String> {
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("connect {}: {e}", path.display()))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Conn { reader: BufReader::new(stream), writer, next_id: 0 };
        match conn.read_line().map(|l| classify(&l))? {
            Reply::Event(e) if e == "ready" => Ok(conn),
            other => Err(format!("expected the ready event, got {other:?}")),
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Send one job and wait for its reply line. Returns the classified
    /// reply and the caller-seen latency; an `Err` means the connection is
    /// no longer usable.
    fn request(&mut self, body: Vec<(&str, Json)>) -> Result<(Reply, f64), String> {
        self.next_id += 1;
        let mut pairs = vec![("id", Json::from(self.next_id))];
        pairs.extend(body);
        let line = format!("{}\n", Json::obj(pairs));
        let t = Instant::now();
        self.writer.write_all(line.as_bytes()).map_err(|e| format!("write: {e}"))?;
        let reply = self.read_line()?;
        let seconds = t.elapsed().as_secs_f64();
        let classified = match classify(&reply) {
            Reply::Ok(doc) if doc.get("id").and_then(Json::as_u64) != Some(self.next_id) => {
                Reply::Garbled
            }
            other => other,
        };
        Ok((classified, seconds))
    }
}

/// The daemon process; dropping it kills and reaps the process if it is
/// still running.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(bin: &Path, socket: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(bin)
            .args(["serve", "--threads", &THREADS.to_string(), "--socket"])
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Daemon { child, socket })
    }

    /// Ask for a drain-and-exit over `conn` and wait for the process.
    fn shutdown(mut self, conn: &mut Conn) {
        let _ = conn.request(vec![("op", Json::from("shutdown"))]);
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

// ---------------------------------------------------------------------------
// Set-up and the timed loop
// ---------------------------------------------------------------------------

fn solve_body(kind: Kind, seed: u64, instance: Json) -> Vec<(&'static str, Json)> {
    vec![
        ("op", Json::from("solve")),
        ("pipeline", Json::from(kind.pipeline())),
        ("seed", Json::from(seed)),
        ("instance", instance),
    ]
}

fn handle(name: &str) -> Json {
    Json::obj(vec![("handle", Json::from(name))])
}

fn delta_handle(conn: usize) -> String {
    format!("d{conn}")
}

fn cardinality(doc: &Json) -> Option<usize> {
    doc.get("report")?.get("cardinality")?.as_usize()
}

/// Send a set-up job and require an ok reply with the given cardinality.
fn expect_ok(conn: &mut Conn, body: Vec<(&str, Json)>, card: usize) -> Result<(), String> {
    match conn.request(body)? {
        (Reply::Ok(doc), _) if cardinality(&doc) == Some(card) => Ok(()),
        (other, _) => Err(format!("set-up job failed: {other:?}")),
    }
}

/// A daemon ready for the timed phase.
struct Live {
    daemon: Daemon,
    conns: Vec<Conn>,
    ready_s: f64,
    setup_s: f64,
}

/// What a user of the daemon pays before the first timed job: spawn to
/// `ready`, both connections, the shared `er` and `skew` handles, one
/// delta handle per connection, one warm-up solve per connection.
fn setup(bin: &Path, inp: &Inputs, rep: usize) -> Result<Live, String> {
    let dir = Path::new(crate::RUN_DIR);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let socket = dir.join(format!("serve-{}-{rep}.sock", std::process::id()));
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, socket.clone())?;
    let deadline = t0 + Duration::from_secs(60);
    let first = Conn::open(&socket, deadline)?;
    let ready_s = t0.elapsed().as_secs_f64();
    let mut conns = vec![first];
    for _ in 1..CONNECTIONS {
        conns.push(Conn::open(&socket, deadline)?);
    }
    let mut er = solve_body(Kind::Er, 1, Json::from(format!("gen:er:{N}:8:{}", inp.er_seed)));
    er.push(("store", Json::from("er")));
    expect_ok(&mut conns[0], er, inp.er_sprank)?;
    let mut skew = solve_body(Kind::Skew, 1, inp.skew_instance.clone());
    skew.push(("store", Json::from("skew")));
    expect_ok(&mut conns[0], skew, inp.skew_sprank)?;
    for (c, conn) in conns.iter_mut().enumerate() {
        let body = vec![
            ("op", Json::from("solve")),
            ("pipeline", Json::from("pf-par")),
            ("instance", Json::from(format!("gen:er:{N}:8:{}", inp.delta_seeds[c]))),
            ("store", Json::from(delta_handle(c))),
        ];
        expect_ok(conn, body, inp.delta_bases[c])?;
        expect_ok(conn, solve_body(Kind::Er, 2, handle("er")), inp.er_sprank)?;
    }
    Ok(Live { daemon, conns, ready_s, setup_s: t0.elapsed().as_secs_f64() })
}

/// One answered (or failed) job of the timed phase.
pub struct Record {
    pub kind: Kind,
    pub seconds: f64,
    /// Solve time the daemon reports for the job (`report.seconds`).
    pub report_seconds: Option<f64>,
    /// Heuristic-stage quality for kinds that have one.
    pub quality: Option<f64>,
    /// Why the job counts as failed: an error code, `wrong`, `garbled`,
    /// `event`, `transport`, or `script` (a delta job found the replayed
    /// script exhausted and was not sent).
    pub failure: Option<&'static str>,
}

/// Judge one reply against the reference answer.
fn judge(
    kind: Kind,
    reply: &Reply,
    sprank: usize,
    expected: usize,
) -> (Option<f64>, Option<&'static str>) {
    let doc = match reply {
        Reply::Ok(doc) => doc,
        Reply::Error(code) => return (None, Some(code)),
        Reply::Event(_) => return (None, Some("event")),
        Reply::Garbled => return (None, Some("garbled")),
    };
    let Some(card) = cardinality(doc) else { return (None, Some("garbled")) };
    let stage_card = |name: &str| {
        doc.get("report")?
            .get("stages")?
            .as_arr()?
            .iter()
            .find(|s| s.get("stage").and_then(Json::as_str) == Some(name))?
            .get("cardinality")?
            .as_usize()
    };
    let right = match kind {
        Kind::Suitor => {
            card > 0
                && card <= sprank
                && doc.get("weight").and_then(Json::as_f64).is_some_and(|w| w > 0.0)
        }
        Kind::Delta => card == expected && doc.get("warm").and_then(Json::as_bool) == Some(true),
        _ => card == expected,
    };
    if !right {
        return (None, Some("wrong"));
    }
    let quality = match kind {
        Kind::Cold | Kind::Er | Kind::Skew => stage_card("two").map(|c| c as f64 / sprank as f64),
        Kind::Suitor => Some(card as f64 / sprank as f64),
        Kind::Delta | Kind::Dm => None,
    };
    (quality, None)
}

/// Drive one connection until `until` has passed since `start`.
/// Returns its records and the time its last reply arrived.
fn drive(
    conn: &mut Conn,
    c: usize,
    inp: &Inputs,
    script: &mut std::slice::Iter<'_, Planned>,
    next_step: &mut usize,
    start: Instant,
    until: f64,
) -> (Vec<Record>, f64) {
    let mut records = Vec::new();
    let mut end = 0.0;
    while start.elapsed().as_secs_f64() < until {
        let Some(plan) = script.next() else { break };
        let kind = plan.kind;
        if kind == Kind::Delta && *next_step >= inp.deltas[c].len() {
            records.push(Record {
                kind,
                seconds: 0.0,
                report_seconds: None,
                quality: None,
                failure: Some("script"),
            });
            break;
        }
        let (body, sprank, expected) = match kind {
            Kind::Cold => {
                let instance = format!("gen:er:{N}:8:{}", inp.cold_seeds[plan.cold]);
                let s = inp.cold_spranks[plan.cold];
                (solve_body(kind, plan.seed, Json::from(instance)), s, s)
            }
            Kind::Er | Kind::Dm => {
                (solve_body(kind, plan.seed, handle("er")), inp.er_sprank, inp.er_sprank)
            }
            Kind::Suitor => (solve_body(kind, plan.seed, handle("er")), inp.er_sprank, 0),
            Kind::Skew => {
                (solve_body(kind, plan.seed, handle("skew")), inp.skew_sprank, inp.skew_sprank)
            }
            Kind::Delta => {
                let step = &inp.deltas[c][*next_step];
                *next_step += 1;
                let pairs = |edges: &[(usize, usize)]| {
                    Json::Arr(
                        edges
                            .iter()
                            .map(|&(i, j)| Json::Arr(vec![Json::from(i), Json::from(j)]))
                            .collect(),
                    )
                };
                let body = vec![
                    ("op", Json::from("delta")),
                    ("handle", Json::from(delta_handle(c))),
                    ("add", pairs(&step.add)),
                    ("remove", pairs(&step.remove)),
                ];
                (body, step.cardinality, step.cardinality)
            }
        };
        let t = Instant::now();
        match conn.request(body) {
            Ok((reply, seconds)) => {
                let (quality, failure) = judge(kind, &reply, sprank, expected);
                let report_seconds = match &reply {
                    Reply::Ok(doc) => {
                        doc.get("report").and_then(|r| r.get("seconds")).and_then(Json::as_f64)
                    }
                    _ => None,
                };
                records.push(Record { kind, seconds, report_seconds, quality, failure });
                end = start.elapsed().as_secs_f64();
            }
            Err(_) => {
                records.push(Record {
                    kind,
                    seconds: t.elapsed().as_secs_f64(),
                    report_seconds: None,
                    quality: None,
                    failure: Some("transport"),
                });
                break;
            }
        }
    }
    (records, end)
}

/// A whole serve session's measurements.
pub struct Session {
    pub setup_times: Vec<f64>,
    pub ready_times: Vec<f64>,
    /// Records of each timed phase, in order.
    pub phases: Vec<Vec<Record>>,
    /// Wall time of each timed phase (until its last reply).
    pub walls: Vec<f64>,
    pub ping_rtts: Vec<f64>,
    /// Peak resident set of each phase's daemon, in MiB.
    pub daemon_rss_mib: Vec<f64>,
    pub fingerprint: Json,
}

/// Run a session: for each entry of `phases`, set a fresh daemon up
/// (so set-up is sampled once per phase, spread over the run) and drive
/// it for that many seconds; after the last phase, send `pings` idle
/// pings; shut every daemon down.
pub fn session(bin: &Path, seed: u64, phases: &[f64], pings: usize) -> Result<Session, String> {
    let longest = phases.iter().copied().fold(0.0, f64::max);
    let steps = (longest * DELTA_STEPS_PER_S).ceil() as usize + FINGERPRINT_STEPS;
    let inp = build_inputs(seed, steps);
    let mut scripts: Vec<_> = inp.scripts.iter().map(|s| s.iter()).collect();
    let mut session = Session {
        setup_times: Vec::new(),
        ready_times: Vec::new(),
        phases: Vec::new(),
        walls: Vec::new(),
        ping_rtts: Vec::new(),
        daemon_rss_mib: Vec::new(),
        fingerprint: inp.fingerprint.clone(),
    };
    for (rep, &seconds) in phases.iter().enumerate() {
        let Live { daemon, mut conns, ready_s, setup_s } = setup(bin, &inp, rep)?;
        session.setup_times.push(setup_s);
        session.ready_times.push(ready_s);
        // A fresh daemon holds fresh delta handles: replay from step 0.
        let mut steps = [0usize; CONNECTIONS];
        let start = Instant::now();
        let results: Vec<(Vec<Record>, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(scripts.iter_mut())
                .zip(steps.iter_mut())
                .enumerate()
                .map(|(c, ((conn, script), step))| {
                    let inp = &inp;
                    s.spawn(move || drive(conn, c, inp, script, step, start, seconds))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut records = Vec::new();
        let mut wall: f64 = 0.0;
        for (r, end) in results {
            records.extend(r);
            wall = wall.max(end);
        }
        session.phases.push(records);
        session.walls.push(wall);
        if rep + 1 == phases.len() {
            for _ in 0..pings {
                if let Ok((Reply::Ok(_), rtt)) = conns[0].request(vec![("op", Json::from("ping"))])
                {
                    session.ping_rtts.push(rtt);
                }
            }
        }
        session.daemon_rss_mib.push(host::peak_rss_mib(&daemon.child.id().to_string()));
        daemon.shutdown(&mut conns[0]);
    }
    Ok(session)
}

/// Failure counts by cause, for the result set's detail.
pub fn failures<'a>(records: impl IntoIterator<Item = &'a Record>) -> Json {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for r in records {
        if let Some(f) = r.failure {
            *counts.entry(f).or_default() += 1;
        }
    }
    Json::obj(counts.into_iter().map(|(k, v)| (k, Json::from(v))).collect())
}

fn kind_counts<'a>(records: impl IntoIterator<Item = &'a Record>) -> Json {
    let mut counts: BTreeMap<Kind, usize> = BTreeMap::new();
    for r in records {
        *counts.entry(r.kind).or_default() += 1;
    }
    Json::obj(counts.into_iter().map(|(k, v)| (k.name(), Json::from(v))).collect())
}

/// The untraced run: the timed phase split into `PARTS` parts, each on a
/// freshly set-up daemon.
pub fn run(bin: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let session = session(bin, seed, &[seconds / PARTS as f64; PARTS], 0)?;
    let records: Vec<&Record> = session.phases.iter().flatten().collect();
    let latencies: Vec<f64> = records.iter().map(|r| r.seconds).collect();
    let qualities: Vec<f64> = records.iter().filter_map(|r| r.quality).collect();
    let failed = records.iter().filter(|r| r.failure.is_some()).count();
    let mut metrics = Metrics::default();
    metrics.set("setup_s", stats::median(&session.setup_times));
    metrics.set_per_op(&latencies, session.walls.iter().sum());
    metrics.set("quality_ratio", qualities.iter().sum::<f64>() / qualities.len().max(1) as f64);
    metrics.set("peak_rss_mb", stats::median(&session.daemon_rss_mib));
    Ok(Outcome {
        metrics,
        attempted: records.len(),
        failed,
        fingerprint: session.fingerprint.clone(),
        detail: vec![
            (
                "setup_samples_s",
                Json::Arr(session.setup_times.iter().map(|&t| Json::from(t)).collect()),
            ),
            ("latency_samples", Json::from(latencies.len())),
            ("latency_p95_tail_samples", Json::from(stats::beyond(&latencies, 0.95))),
            ("jobs_by_kind", kind_counts(records.iter().copied())),
            ("failures", failures(records.iter().copied())),
        ],
    })
}

/// The serve layer's client-side metrics of a session, over all phases.
pub fn layer_metrics(session: &Session, metrics: &mut Metrics) {
    let all: Vec<&Record> = session.phases.iter().flatten().collect();
    metrics.set("serve.ready_s", stats::median(&session.ready_times));
    metrics.set("serve.ping_rtt_s", stats::median(&session.ping_rtts));
    let overheads: Vec<f64> =
        all.iter().filter_map(|r| r.report_seconds.map(|s| r.seconds - s)).collect();
    metrics.set("serve.overhead_s", stats::median(&overheads));
    for (kind, name) in [
        (Kind::Cold, "serve.cold.latency_p50_s"),
        (Kind::Er, "serve.er.latency_p50_s"),
        (Kind::Skew, "serve.skew.latency_p50_s"),
        (Kind::Delta, "serve.delta.latency_p50_s"),
        (Kind::Suitor, "serve.suitor.latency_p50_s"),
        (Kind::Dm, "serve.dm.latency_p50_s"),
    ] {
        let lat: Vec<f64> = all.iter().filter(|r| r.kind == kind).map(|r| r.seconds).collect();
        metrics.set(name, stats::median(&lat));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_script_is_a_function_of_the_seed() {
        assert_eq!(job_script(42, 0, 500), job_script(42, 0, 500));
        assert_ne!(job_script(42, 0, 500), job_script(43, 0, 500));
        assert_ne!(job_script(42, 0, 500), job_script(42, 1, 500));
        // A longer script extends a shorter one.
        assert_eq!(job_script(42, 1, 800)[..500], job_script(42, 1, 500)[..]);
    }

    #[test]
    fn every_block_of_the_script_holds_the_exact_shares() {
        assert_eq!(Kind::ALL.iter().map(|k| k.share()).sum::<usize>(), 100);
        let script = job_script(7, 0, 50 * BLOCK);
        for block in script.chunks(BLOCK) {
            for kind in Kind::ALL {
                let got = block.iter().filter(|p| p.kind == kind).count();
                assert_eq!(got * 100, kind.share() * BLOCK, "{}", kind.name());
            }
        }
        assert!(script.iter().all(|p| p.cold < COLD_INSTANCES));
        assert_ne!(script[..BLOCK], script[BLOCK..2 * BLOCK], "blocks are shuffled");
    }

    #[test]
    fn classifier_covers_every_error_code() {
        for code in ERROR_CODES {
            let line = format!(r#"{{"id":3,"ok":false,"code":"{code}","error":"x"}}"#);
            assert_eq!(classify(&line), Reply::Error(code), "{line}");
        }
        // Connection-level refusals arrive as an error event.
        assert_eq!(
            classify(r#"{"event":"error","code":"busy","error":"too many clients"}"#),
            Reply::Error("busy")
        );
    }

    #[test]
    fn classifier_flags_garbage_and_truncation() {
        for line in [
            "",
            "not json",
            r#"{"id":3,"ok":tr"#,
            r#"{"id":3,"ok":true,"report":{"cardinality":5"#,
            "[1,2,3]",
            r#"{"id":3}"#,
            r#"{"ok":true}"#,
            r#"{"id":3,"ok":false,"code":"nonsense"}"#,
            r#"{"id":3,"ok":false}"#,
            r#"{"event":"error","code":"nonsense"}"#,
            "\u{0}\u{1}garbage",
        ] {
            assert_eq!(classify(line), Reply::Garbled, "{line:?}");
        }
    }

    #[test]
    fn classifier_accepts_replies_and_events() {
        let ok = classify(r#"{"id":1,"ok":true,"op":"solve","report":{"cardinality":7}}"#);
        let Reply::Ok(doc) = ok else { panic!("expected ok, got {ok:?}") };
        assert_eq!(cardinality(&doc), Some(7));
        assert_eq!(classify(r#"{"event":"ready","threads":2}"#), Reply::Event("ready".into()));
        assert_eq!(classify(r#"{"event":"shutdown","jobs":1}"#), Reply::Event("shutdown".into()));
    }

    #[test]
    fn judge_checks_cardinality_warmth_and_weight() {
        let reply = |body: &str| classify(&format!(r#"{{"id":1,"ok":true,{body}}}"#));
        let solved =
            reply(r#""report":{"cardinality":90,"stages":[{"stage":"two","cardinality":80}]}"#);
        assert_eq!(judge(Kind::Er, &solved, 100, 90), (Some(0.8), None));
        assert_eq!(judge(Kind::Er, &solved, 100, 91), (None, Some("wrong")));
        let delta = reply(r#""warm":true,"report":{"cardinality":90}"#);
        assert_eq!(judge(Kind::Delta, &delta, 90, 90), (None, None));
        let cold_delta = reply(r#""warm":false,"report":{"cardinality":90}"#);
        assert_eq!(judge(Kind::Delta, &cold_delta, 90, 90), (None, Some("wrong")));
        let suitor = reply(r#""weight":3.5,"report":{"cardinality":50}"#);
        assert_eq!(judge(Kind::Suitor, &suitor, 100, 0), (Some(0.5), None));
        let weightless = reply(r#""report":{"cardinality":50}"#);
        assert_eq!(judge(Kind::Suitor, &weightless, 100, 0), (None, Some("wrong")));
        assert_eq!(judge(Kind::Er, &Reply::Error("queue"), 100, 90), (None, Some("queue")));
        assert_eq!(judge(Kind::Er, &Reply::Garbled, 100, 90), (None, Some("garbled")));
    }
}
