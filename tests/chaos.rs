//! Chaos tests: the real `dsmatch serve` binary under deterministic fault
//! injection (`DSMATCH_FAULTS`), concurrent clients, deadlines, and
//! process signals.
//!
//! The contract under test is the robustness tentpole's: a fault confined
//! to one job yields one structured error reply while **every non-faulted
//! job gets a byte-correct reply**, the daemon keeps serving, and every
//! exit path — `shutdown` op, stdin close, SIGTERM — drains in-flight
//! jobs before the summary line goes out.
//!
//! Every spawn pins `DSMATCH_FAULTS` explicitly (set or removed), so the
//! suite is immune to environment leakage between tests.

use dsmatch::engine::test_timeout;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn serve_cmd(args: &[&str], faults: Option<&str>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dsmatch"));
    cmd.arg("serve").args(args);
    match faults {
        Some(spec) => cmd.env("DSMATCH_FAULTS", spec),
        None => cmd.env_remove("DSMATCH_FAULTS"),
    };
    cmd
}

/// Run a batch of job lines through stdin mode and return stdout's lines.
fn run_batch(args: &[&str], faults: Option<&str>, jobs: &str) -> Vec<String> {
    let mut child = serve_cmd(args, faults)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning dsmatch serve");
    child.stdin.take().unwrap().write_all(jobs.as_bytes()).expect("writing jobs");
    let out = child.wait_with_output().expect("daemon output");
    assert!(out.status.success(), "daemon exit: {}", out.status);
    String::from_utf8(out.stdout).expect("utf8 stdout").lines().map(str::to_string).collect()
}

fn line_for<'a>(lines: &'a [String], id: &str) -> &'a str {
    let needle = format!("\"id\":{id:?}");
    lines
        .iter()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("no reply with id {id:?} in:\n{}", lines.join("\n")))
}

/// The `"rmate":[…]` fragment of a reply line, for byte-identity checks.
fn rmate_fragment(line: &str) -> &str {
    let start = line.find("\"rmate\":[").unwrap_or_else(|| panic!("no rmate in {line}"));
    let end = line[start..].find(']').expect("unterminated rmate array");
    &line[start..start + end + 1]
}

/// Lower-triangular pattern with a full diagonal: its unique perfect
/// matching is the diagonal, making reply byte-identity meaningful (see
/// `tests/serve.rs`).
fn triangular_instance(n: usize) -> String {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push(format!("[{i},{i}]"));
        if i >= 1 {
            edges.push(format!("[{i},{}]", i - 1));
        }
        if i >= 7 {
            edges.push(format!("[{i},{}]", i - 7));
        }
    }
    format!("{{\"nrows\":{n},\"ncols\":{n},\"edges\":[{}]}}", edges.join(","))
}

fn solve_job(id: &str, n: usize, extra: &str) -> String {
    format!(
        "{{\"id\":{id:?},\"pipeline\":\"hk-par\",\"instance\":{}{extra},\"mates\":true}}",
        triangular_instance(n)
    )
}

// ---------------------------------------------------------------------------
// Stdin-mode fault injection
// ---------------------------------------------------------------------------

/// `panic:job=N` turns exactly job N into a structured internal error —
/// the worker's panic is caught, the other four jobs answer correctly,
/// and the daemon still drains to a clean shutdown line (this is the CI
/// chaos smoke leg, pinned as a test).
#[test]
fn injected_panic_yields_one_internal_error_and_four_good_replies() {
    let jobs: String =
        (1..=5).map(|k| solve_job(&format!("j{k}"), 32, "")).fold(String::new(), |mut acc, j| {
            acc.push_str(&j);
            acc.push('\n');
            acc
        });
    let lines = run_batch(&["--threads", "2"], Some("panic:job=2"), &jobs);

    let poisoned = line_for(&lines, "j2");
    assert!(poisoned.contains("\"ok\":false"), "{poisoned}");
    assert!(poisoned.contains("\"code\":\"internal\""), "{poisoned}");
    assert!(poisoned.contains("injected fault: panic at job 2"), "{poisoned}");

    let reference = rmate_fragment(line_for(&lines, "j1")).to_string();
    for id in ["j1", "j3", "j4", "j5"] {
        let good = line_for(&lines, id);
        assert!(good.contains("\"ok\":true"), "job {id}: {good}");
        assert_eq!(rmate_fragment(good), reference, "job {id} mates");
    }
    assert!(lines.iter().any(|l| l.contains("\"event\":\"shutdown\"")), "clean shutdown line");
    assert_eq!(lines.iter().filter(|l| l.contains("\"ok\":false")).count(), 1);
}

/// Reply-corruption faults hit exactly the targeted reply ordinal: with
/// one worker the second reply line is garbage, while framing events and
/// all other replies stay intact — the client-visible blast radius of a
/// corrupted write is one line.
#[test]
fn garbage_reply_fault_corrupts_only_the_targeted_line() {
    let jobs = "{\"id\":\"a\",\"op\":\"ping\"}\n\
                {\"id\":\"b\",\"op\":\"ping\"}\n\
                {\"id\":\"c\",\"op\":\"ping\"}\n";
    let lines = run_batch(&["--threads", "1"], Some("garbage-reply:nth=2"), jobs);

    assert!(lines[0].contains("\"event\":\"ready\""), "{}", lines[0]);
    assert!(lines.last().unwrap().contains("\"event\":\"shutdown\""));
    assert_eq!(lines.len(), 5, "ready + three replies + shutdown:\n{}", lines.join("\n"));
    assert!(lines[1].contains("\"id\":\"a\"") && lines[1].contains("\"ok\":true"));
    assert!(lines[2].starts_with("!garbage"), "corrupted line: {}", lines[2]);
    assert!(lines[3].contains("\"id\":\"c\"") && lines[3].contains("\"ok\":true"));
}

/// A deadline-cancelled job leaves its worker's workspace reusable: the
/// very next job on the same (single) worker reports mates byte-identical
/// to the same job on a fresh fault-free daemon. The `stall:stage=start`
/// fault holds every job between submission (where its deadline is
/// armed) and execution, so the 1 ms deadline is deterministically
/// expired by the time the worker picks the job up.
#[test]
fn workspace_survives_a_cancelled_job_byte_identically() {
    let jobs = format!(
        "{}\n{}\n",
        solve_job("doomed", 64, ",\"deadline_ms\":1"),
        solve_job("after", 64, "")
    );
    let lines = run_batch(&["--threads", "1"], Some("stall:stage=start:ms=30"), &jobs);

    let doomed = line_for(&lines, "doomed");
    assert!(doomed.contains("\"code\":\"deadline\""), "{doomed}");
    assert!(doomed.contains("\"cancelled\":true"), "{doomed}");
    let after = line_for(&lines, "after");
    assert!(after.contains("\"ok\":true"), "{after}");

    // Fresh daemon, no faults, only the good job: byte-identical mates.
    let fresh = run_batch(&["--threads", "1"], None, &format!("{}\n", solve_job("after", 64, "")));
    assert_eq!(
        rmate_fragment(after),
        rmate_fragment(line_for(&fresh, "after")),
        "reused workspace must reproduce the fresh daemon's reply"
    );
}

/// Reply ids in the order the replies arrived.
fn reply_order<'a>(lines: &[String], ids: &[&'a str]) -> Vec<&'a str> {
    let mut order = ids.to_vec();
    order.sort_by_key(|id| {
        let needle = format!("\"id\":{id:?}");
        lines.iter().position(|l| l.contains(&needle))
    });
    order
}

/// Reads of one cached handle share it; writes hold it alone, in
/// submission order. Job 2 (`slow`) stalls 1.5 s at its start, so the
/// later read `fast` answers first, the delta waits for both reads, and
/// the read behind the delta waits for it. The 50 ms stall at every
/// job's start keeps each job a release lets in from finishing before
/// the reply of the job that released it.
#[test]
fn reads_of_one_handle_share_it_and_writes_keep_submission_order() {
    let read = |id: &str| {
        format!("{{\"id\":{id:?},\"pipeline\":\"hk\",\"instance\":{{\"handle\":\"h\"}}}}")
    };
    let jobs = [
        format!(
            "{{\"id\":\"load\",\"pipeline\":\"hk\",\"instance\":{},\"store\":\"h\"}}",
            triangular_instance(48)
        ),
        read("slow"),
        read("fast"),
        "{\"id\":\"write\",\"op\":\"delta\",\"handle\":\"h\",\"add\":[[0,1]]}".to_string(),
        read("after"),
    ];
    let faults = "stall:stage=start:ms=50,stall:stage=start:job=2:ms=1500";
    let lines = run_batch(&["--threads", "2"], Some(faults), &(jobs.join("\n") + "\n"));

    let ids = ["load", "slow", "fast", "write", "after"];
    for id in ids {
        assert!(line_for(&lines, id).contains("\"ok\":true"), "{}", lines.join("\n"));
    }
    assert_eq!(
        reply_order(&lines, &ids),
        ["load", "fast", "slow", "write", "after"],
        "{}",
        lines.join("\n")
    );
}

/// A solve that reads handle `a` and stores under `b` waits for an
/// earlier write to `a`: the stalled store of `a` holds back the copy, the
/// read of `a` behind it and the read of `b` behind the copy, and all
/// three see the instance.
#[test]
fn a_store_from_another_handle_waits_for_earlier_writes_to_its_source() {
    let solve = |id: &str, instance: &str, store: &str| {
        format!(
            "{{\"id\":{id:?},\"pipeline\":\"two\",\"instance\":{instance}{store},\"mates\":true}}"
        )
    };
    let jobs = [
        solve("load", "\"gen:er:300:4:1\"", ",\"store\":\"a\""),
        solve("copy", "{\"handle\":\"a\"}", ",\"store\":\"b\""),
        solve("read-a", "{\"handle\":\"a\"}", ""),
        solve("read-b", "{\"handle\":\"b\"}", ""),
    ];
    let lines = run_batch(
        &["--threads", "2"],
        Some("stall:stage=start:job=1:ms=300"),
        &(jobs.join("\n") + "\n"),
    );

    let reference = rmate_fragment(line_for(&lines, "load")).to_string();
    for id in ["load", "copy", "read-a", "read-b"] {
        let reply = line_for(&lines, id);
        assert!(reply.contains("\"ok\":true"), "job {id}: {}", lines.join("\n"));
        assert_eq!(rmate_fragment(reply), reference, "job {id} mates");
    }
}

/// A job waiting for its handle can be cancelled: behind a store of `h`
/// that stalls 400 ms at its start, a read of `h` is cancelled while it
/// waits, answers the client-cancel error naming `h` once the store is
/// done, and the next read of `h` sees the stored instance.
#[test]
fn a_job_waiting_for_its_handle_can_be_cancelled() {
    let jobs = [
        "{\"id\":\"load\",\"pipeline\":\"two\",\"instance\":\"gen:er:300:4:1\",\"store\":\"h\"}",
        "{\"id\":\"wait\",\"pipeline\":\"two\",\"instance\":{\"handle\":\"h\"}}",
        "{\"id\":\"c\",\"op\":\"cancel\",\"job\":\"wait\"}",
        "{\"id\":\"next\",\"pipeline\":\"two\",\"instance\":{\"handle\":\"h\"}}",
    ];
    let lines = run_batch(
        &["--threads", "2"],
        Some("stall:stage=start:job=1:ms=400"),
        &(jobs.join("\n") + "\n"),
    );

    assert_eq!(
        line_for(&lines, "c"),
        "{\"id\":\"c\",\"ok\":true,\"op\":\"cancel\",\"job\":\"wait\"}"
    );
    assert_eq!(
        line_for(&lines, "wait"),
        "{\"id\":\"wait\",\"ok\":false,\"code\":\"deadline\",\"error\":\"job cancelled by client request\",\"cancelled\":true,\"deadline_ms\":null,\"handle\":\"h\"}"
    );
    for id in ["load", "next"] {
        assert!(line_for(&lines, id).contains("\"ok\":true"), "{}", lines.join("\n"));
    }
    let order = reply_order(&lines, &["c", "load", "wait", "next"]);
    assert_eq!(order[..2], ["c", "load"], "{}", lines.join("\n"));
}

// ---------------------------------------------------------------------------
// Socket-mode chaos (concurrent clients, signals, stale sockets)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod socket {
    use super::*;
    use std::os::unix::net::UnixStream;
    use std::path::{Path, PathBuf};

    fn socket_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "dsmatch-chaos-{tag}-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn spawn_daemon(path: &Path, args: &[&str], faults: Option<&str>) -> Child {
        let mut all = vec!["--socket", path.to_str().unwrap()];
        all.extend_from_slice(args);
        serve_cmd(&all, faults)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning socket daemon")
    }

    struct Client {
        write: UnixStream,
        lines: std::io::Lines<BufReader<UnixStream>>,
    }

    impl Client {
        /// Connect (retrying while the daemon binds) and consume the
        /// per-connection ready line.
        fn ready(path: &Path) -> Client {
            let deadline = std::time::Instant::now() + test_timeout(30);
            let stream = loop {
                match UnixStream::connect(path) {
                    Ok(s) => break s,
                    Err(_) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(std::time::Duration::from_millis(20))
                    }
                    Err(e) => panic!("socket {path:?} never came up: {e}"),
                }
            };
            let lines = BufReader::new(stream.try_clone().expect("cloning stream")).lines();
            let mut c = Client { write: stream, lines };
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

        fn round_trip(&mut self, job: &str, id: &str) -> String {
            self.send(job);
            let reply = self.next();
            assert!(reply.contains(&format!("\"id\":{id:?}")), "job {job}: reply {reply}");
            reply
        }
    }

    /// Chaos composition: a universal start-stall widens every race
    /// window while three concurrent clients each run a solve, an
    /// already-expired deadline job, and a ping. Every non-faulted job's
    /// reply is byte-identical to a fault-free run, every deadline job
    /// fails with the structured deadline error, and the daemon drains to
    /// a clean exit.
    #[test]
    fn concurrent_clients_under_stall_chaos_get_byte_correct_replies() {
        let path = socket_path("stall");
        let mut child = spawn_daemon(&path, &["--threads", "2"], Some("stall:stage=start:ms=50"));

        let replies: Vec<(String, String)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|k: usize| {
                    let path = &path;
                    s.spawn(move || {
                        let mut c = Client::ready(path);
                        let solve_id = format!("solve-{k}");
                        let dead_id = format!("dead-{k}");
                        let ping_id = format!("ping-{k}");
                        let solve = c.round_trip(&solve_job(&solve_id, 40, ""), &solve_id);
                        let dead =
                            c.round_trip(&solve_job(&dead_id, 40, ",\"deadline_ms\":0"), &dead_id);
                        let ping = c.round_trip(
                            &format!("{{\"id\":{ping_id:?},\"op\":\"ping\"}}"),
                            &ping_id,
                        );
                        vec![(solve_id, solve), (dead_id, dead), (ping_id, ping)]
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
        });

        // Fault-free reference for the byte-identity pin.
        let reference =
            run_batch(&["--threads", "1"], None, &format!("{}\n", solve_job("ref", 40, "")));
        let expected = rmate_fragment(line_for(&reference, "ref")).to_string();

        for (id, line) in &replies {
            if id.starts_with("solve-") {
                assert!(line.contains("\"ok\":true"), "job {id}: {line}");
                assert_eq!(rmate_fragment(line), expected, "job {id} mates");
            } else if id.starts_with("dead-") {
                assert!(line.contains("\"code\":\"deadline\""), "job {id}: {line}");
                assert!(line.contains("\"cancelled\":true"), "job {id}: {line}");
            } else {
                assert!(line.contains("\"ok\":true"), "job {id}: {line}");
            }
        }

        let mut closer = Client::ready(&path);
        let bye = closer.round_trip("{\"id\":\"bye\",\"op\":\"shutdown\"}", "bye");
        assert!(bye.contains("\"ok\":true"), "{bye}");
        assert!(child.wait().expect("waiting for daemon").success());
    }

    /// `drop` refuses a handle an unfinished job claims — a store writing
    /// it, or reads alone — and succeeds once that job has replied. Jobs 1
    /// (the first store) and 3 (a read) stall 400 ms at their start.
    #[test]
    fn drop_waits_for_the_jobs_that_claim_the_handle() {
        let path = socket_path("drop-busy");
        let faults = "stall:stage=start:job=1:ms=400,stall:stage=start:job=3:ms=400";
        let mut child = spawn_daemon(&path, &["--threads", "2"], Some(faults));
        let mut c = Client::ready(&path);
        let store =
            "{\"id\":\"s\",\"pipeline\":\"two\",\"instance\":\"gen:er:200:3\",\"store\":\"h\"}";
        let read = "{\"id\":\"r\",\"pipeline\":\"two\",\"instance\":{\"handle\":\"h\"}}";
        let drop_h = "{\"id\":\"d\",\"op\":\"drop\",\"handle\":\"h\"}";
        let busy = "{\"id\":\"d\",\"ok\":false,\"code\":\"handle\",\"error\":\"handle \\\"h\\\" has jobs in flight; retry later\"}";
        let dropped = "{\"id\":\"d\",\"ok\":true,\"op\":\"drop\",\"handle\":\"h\"}";

        c.send(store);
        assert_eq!(c.round_trip(drop_h, "d"), busy, "held by its writer");
        let stored = c.next();
        assert!(stored.contains("\"id\":\"s\"") && stored.contains("\"ok\":true"), "{stored}");
        assert_eq!(c.round_trip(drop_h, "d"), dropped);

        assert!(c.round_trip(store, "s").contains("\"ok\":true"));
        c.send(read);
        assert_eq!(c.round_trip(drop_h, "d"), busy, "held by a reader alone");
        let read_reply = c.next();
        assert!(
            read_reply.contains("\"id\":\"r\"") && read_reply.contains("\"ok\":true"),
            "{read_reply}"
        );
        assert_eq!(c.round_trip(drop_h, "d"), dropped);

        c.round_trip("{\"id\":\"bye\",\"op\":\"shutdown\"}", "bye");
        assert!(child.wait().expect("waiting for daemon").success());
    }

    /// `cache-exhaust` clamps the cache budget to zero: a stored handle
    /// lasts until the next store evicts it (no job claims it by then), so
    /// `h` reads fine until `h2` is stored, and not after.
    #[test]
    fn cache_exhaust_evicts_a_handle_at_the_next_store() {
        let path = socket_path("exhaust");
        let mut child = spawn_daemon(&path, &["--threads", "1"], Some("cache-exhaust"));
        let mut c = Client::ready(&path);
        let store = |h: &str| {
            format!("{{\"id\":\"s\",\"pipeline\":\"two\",\"instance\":\"gen:er:200:3\",\"store\":{h:?}}}")
        };
        let read = |h: &str| {
            format!("{{\"id\":\"r\",\"pipeline\":\"two\",\"instance\":{{\"handle\":{h:?}}}}}")
        };

        assert!(c.round_trip(&store("h"), "s").contains("\"ok\":true"));
        assert!(c.round_trip(&read("h"), "r").contains("\"ok\":true"), "h outlives its own store");
        assert!(c.round_trip(&store("h2"), "s").contains("\"ok\":true"));
        assert_eq!(
            c.round_trip(&read("h"), "r"),
            "{\"id\":\"r\",\"ok\":false,\"code\":\"handle\",\"error\":\"handle \\\"h\\\" exists but has no cached instance yet\",\"handle\":\"h\"}",
            "the store of h2 evicted h"
        );
        assert!(c.round_trip(&read("h2"), "r").contains("\"ok\":true"));

        c.round_trip("{\"id\":\"bye\",\"op\":\"shutdown\"}", "bye");
        assert!(child.wait().expect("waiting for daemon").success());
    }

    /// SIGTERM drains: a job in flight when the signal lands still gets
    /// its reply, the session summary goes out, and the process exits
    /// cleanly — `kill <pid>` has the same guarantees as a shutdown op.
    #[test]
    fn sigterm_drains_in_flight_jobs_before_exiting() {
        let path = socket_path("sigterm");
        let mut child = spawn_daemon(&path, &["--threads", "1"], None);

        let mut c = Client::ready(&path);
        let pong = c.round_trip("{\"id\":\"p\",\"op\":\"ping\"}", "p");
        assert!(pong.contains("\"ok\":true"), "{pong}");

        // Park a job on the worker, then signal while it sleeps.
        c.send("{\"id\":\"slow\",\"op\":\"sleep\",\"ms\":400}");
        std::thread::sleep(std::time::Duration::from_millis(100));
        let kill = Command::new("sh")
            .arg("-c")
            .arg(format!("kill -TERM {}", child.id()))
            .status()
            .expect("running kill");
        assert!(kill.success(), "kill -TERM failed");

        let drained = c.next();
        assert!(
            drained.contains("\"id\":\"slow\"") && drained.contains("\"ok\":true"),
            "the in-flight job must drain before exit: {drained}"
        );
        let summary = c.next();
        assert!(summary.contains("\"event\":\"shutdown\""), "summary line: {summary}");
        assert!(child.wait().expect("waiting for daemon").success());
    }

    /// Stale-socket handling: a leftover file from a dead process is
    /// unlinked and rebound, while a socket with a live daemon behind it
    /// is refused with an error naming the conflict.
    #[test]
    fn stale_socket_rebinds_and_live_socket_is_refused() {
        let path = socket_path("stale");
        // Fabricate a stale file: bind and immediately drop the listener.
        drop(std::os::unix::net::UnixListener::bind(&path).expect("binding stale socket"));
        assert!(path.exists(), "the stale socket file must linger");

        let mut child = spawn_daemon(&path, &["--threads", "1"], None);
        let mut c = Client::ready(&path);
        let pong = c.round_trip("{\"id\":\"p\",\"op\":\"ping\"}", "p");
        assert!(pong.contains("\"ok\":true"), "rebound daemon serves: {pong}");

        // A second daemon must refuse the live socket, loudly.
        let clash = serve_cmd(&["--threads", "1", "--socket", path.to_str().unwrap()], None)
            .stdin(Stdio::null())
            .output()
            .expect("running clashing daemon");
        assert!(!clash.status.success(), "clashing daemon must fail");
        let stderr = String::from_utf8_lossy(&clash.stderr);
        assert!(stderr.contains("live daemon"), "stderr names the conflict: {stderr}");

        // The original daemon is unharmed.
        let bye = c.round_trip("{\"id\":\"bye\",\"op\":\"shutdown\"}", "bye");
        assert!(bye.contains("\"ok\":true"), "{bye}");
        assert!(child.wait().expect("waiting for daemon").success());
        assert!(!path.exists(), "shutdown unlinks the socket file");
    }
}
