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
    // Sparse: the policy resolves to push-relabel.
    assert_eq!(stage.get("selected").and_then(Json::as_str), Some("pr"));
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
// Golden transcripts: the protocol's reply bytes
// ---------------------------------------------------------------------------

/// Zero every `"seconds"` value, the only timing-dependent reply field.
fn zero_seconds(v: &mut Json) {
    match v {
        Json::Obj(pairs) => {
            for (key, value) in pairs {
                if key == "seconds" {
                    *value = Json::Int(0);
                } else {
                    zero_seconds(value);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(zero_seconds),
        _ => {}
    }
}

/// A whole session's output with `"seconds"` zeroed and lines sorted by
/// id (replies stream in completion order); the id-less `ready` and
/// `shutdown` events sort first.
fn transcript(input: &str, opts: &ServeOptions) -> Vec<String> {
    let mut out: Vec<u8> = Vec::new();
    serve(std::io::Cursor::new(input.to_string()), &mut out, opts);
    let mut lines: Vec<(String, String)> = String::from_utf8(out)
        .expect("utf8 output")
        .lines()
        .map(|l| {
            let mut doc = Json::parse(l).unwrap_or_else(|e| panic!("bad reply line {l:?}: {e}"));
            zero_seconds(&mut doc);
            (doc.get("id").map_or(String::new(), Json::to_string), doc.to_string())
        })
        .collect();
    lines.sort();
    lines.into_iter().map(|(_, line)| line).collect()
}

/// Every op and every error code that does not depend on timing, with
/// each field's wrong-type message and the order the checks run in.
const GOLDEN_JOBS: &str = r#"{not json
{"op":"ping"}
{"id":"p-op","op":"warp"}
{"id":"p-op-type","op":3}
{"id":"p-order","op":"warp","seed":"x"}
{"id":"p-seed","pipeline":"two","instance":"gen:er:40:3","seed":"7"}
{"id":"p-deadline","op":"ping","deadline_ms":-5}
{"id":"p-quality","pipeline":"two","instance":"gen:er:40:3","quality":1}
{"id":"p-mates","pipeline":"two","instance":"gen:er:40:3","mates":"no"}
{"id":"p-store","pipeline":"two","instance":"gen:er:40:3","store":""}
{"id":"p-no-pipeline","instance":"gen:er:40:3"}
{"id":"p-no-instance","pipeline":"two"}
{"id":"p-str-instance","pipeline":"two","instance":"file.mtx"}
{"id":"p-obj-instance","pipeline":"two","instance":{"rows":3}}
{"id":"p-handle-ref","pipeline":"two","instance":{"handle":7}}
{"id":"p-edges","pipeline":"two","instance":{"nrows":2,"ncols":2,"edges":5}}
{"id":"p-edge-pair","pipeline":"two","instance":{"nrows":2,"ncols":2,"edges":[[0]]}}
{"id":"p-edge-neg","pipeline":"two","instance":{"nrows":2,"ncols":2,"edges":[[0,-1]]}}
{"id":"p-delta-handle","op":"delta"}
{"id":"p-delta-add","op":"delta","handle":"h","add":"x"}
{"id":"p-finisher","op":"delta","handle":"h","finisher":5}
{"id":"p-sleep","op":"sleep"}
{"id":"p-cancel","op":"cancel"}
{"id":"p-drop","op":"drop"}
{"id":"e-spec","pipeline":"two,frobnicate","instance":"gen:er:40:3"}
{"id":"e-spec-finisher","op":"delta","handle":"h","finisher":"two"}
{"id":"e-spec-unknown","op":"delta","handle":"h","finisher":"warp"}
{"id":"e-gen-zero","pipeline":"two","instance":"gen:er:0:3"}
{"id":"e-gen-degree","pipeline":"two","instance":"gen:er:40:-1"}
{"id":"e-gen-family","pipeline":"two","instance":"gen:zipf:40"}
{"id":"e-inline-empty","pipeline":"two","instance":{"nrows":0,"ncols":3,"edges":[]}}
{"id":"e-inline-oob","pipeline":"two","instance":{"nrows":4,"ncols":4,"edges":[[9,0]]}}
{"id":"e-handle-read","pipeline":"hk","instance":{"handle":"ghost"}}
{"id":"e-handle-store","pipeline":"hk","instance":{"handle":"ghost-src"},"store":"ghost-dst"}
{"id":"e-handle-delta","op":"delta","handle":"ghost-delta"}
{"id":"e-handle-drop","op":"drop","handle":"nothing"}
{"id":"e-deadline","op":"sleep","ms":2000,"deadline_ms":0}
{"id":"e-job","op":"cancel","job":"ghost-job"}
{"id":"s-store","pipeline":"scale:sk:3,two,hk","instance":"gen:er:60:3:5","seed":9,"store":"h","quality":true,"mates":true}
{"id":"s-read","pipeline":"two","instance":{"handle":"h"},"quality":true}
{"id":"d-default","op":"delta","handle":"h","add":[[0,5],[7,7]],"remove":[[1,1]],"mates":true}
{"id":"d-auto","op":"delta","handle":"h","add":[[2,7]],"finisher":"auto","quality":true}
{"id":"e-delta-oob","op":"delta","handle":"h","add":[[60,0]]}
{"id":"e-handle-deadline","pipeline":"hk","instance":{"handle":"h"},"deadline_ms":0}
{"id":"s-suitor","pipeline":"scale:sk:5,suitor","instance":"gen:er:60:4:2"}
{"id":"s-dm","pipeline":"dm,two,pf","instance":"gen:er:60:3:3","seed":4}
{"id":"s-inline","pipeline":"hk","instance":{"nrows":4,"ncols":5,"edges":[[0,0],[0,1],[1,1],[2,3],[3,3],[3,4]]},"mates":true}
{"id":17,"op":"ping"}
{"id":[1,"x"],"op":"ping"}
{"id":"k-sleep","op":"sleep","ms":5}
{"id":"k-long","op":"sleep","ms":5000}
{"id":"c-ok","op":"cancel","job":"k-long"}
{"id":"z-bye","op":"shutdown"}
{"id":"z-never","op":"ping"}
"#;

const GOLDEN_REPLIES: &str = r#"{"event":"ready","threads":2,"observed_workers":2,"max_queue":64,"cache_bytes":268435456,"max_line_bytes":67108864,"default_deadline_ms":0}
{"event":"shutdown","jobs":53,"ok":12,"errors":41}
{"id":"c-ok","ok":true,"op":"cancel","job":"k-long"}
{"id":"d-auto","ok":true,"op":"delta","handle":"h","warm":true,"added":1,"removed":0,"report":{"cardinality":56,"seconds":0,"stages":[{"stage":"delta:auto","seconds":0,"cardinality":56,"augmentations":0,"phases":null,"selected":"pr","weight":null}],"scaling_iterations":null,"scaling_error":null,"quality":1,"deadline_ms":null,"weight":null}}
{"id":"d-default","ok":true,"op":"delta","handle":"h","warm":true,"added":2,"removed":1,"report":{"cardinality":56,"seconds":0,"stages":[{"stage":"delta:pf-par","seconds":0,"cardinality":56,"augmentations":0,"phases":1,"selected":null,"weight":null}],"scaling_iterations":null,"scaling_error":null,"quality":null,"deadline_ms":null,"weight":null},"rmate":[20,18,36,null,41,52,59,0,24,42,16,57,58,26,10,null,11,33,null,28,39,3,46,45,34,7,27,8,13,29,5,9,17,49,56,25,50,40,51,53,43,null,48,44,2,19,21,38,32,14,55,22,12,47,54,6,37,35,1,30]}
{"id":"e-deadline","ok":false,"code":"deadline","error":"deadline of 0 ms exceeded; job cancelled","cancelled":true,"deadline_ms":0}
{"id":"e-delta-oob","ok":false,"code":"instance","error":"delta edge (60,0) out of bounds for 60×60","handle":"h"}
{"id":"e-gen-degree","ok":false,"code":"instance","error":"degree must be positive and finite; expected gen:er:<n>:<avg_degree>[:<seed>]"}
{"id":"e-gen-family","ok":false,"code":"instance","error":"unsupported gen spec \"zipf:40\"; expected gen:er:<n>:<avg_degree>[:<seed>]"}
{"id":"e-gen-zero","ok":false,"code":"instance","error":"size must be positive; expected gen:er:<n>:<avg_degree>[:<seed>]"}
{"id":"e-handle-deadline","ok":false,"code":"deadline","error":"deadline of 0 ms exceeded; job cancelled","cancelled":true,"deadline_ms":0,"handle":"h"}
{"id":"e-handle-delta","ok":false,"code":"handle","error":"no instance cached under handle \"ghost-delta\"","handle":"ghost-delta"}
{"id":"e-handle-drop","ok":false,"code":"handle","error":"no instance cached under handle \"nothing\""}
{"id":"e-handle-read","ok":false,"code":"handle","error":"handle \"ghost\" exists but has no cached instance yet","handle":"ghost"}
{"id":"e-handle-store","ok":false,"code":"handle","error":"no instance cached under handle \"ghost-src\"","handle":"ghost-dst"}
{"id":"e-inline-empty","ok":false,"code":"instance","error":"inline instances need nrows ≥ 1 and ncols ≥ 1"}
{"id":"e-inline-oob","ok":false,"code":"instance","error":"edge (9,0) out of bounds for 4×4"}
{"id":"e-job","ok":false,"code":"job","error":"no in-flight job \"ghost-job\" on this connection"}
{"id":"e-spec","ok":false,"code":"spec","error":"unknown algorithm \"frobnicate\"; expected one of one|two|ks|ksmt|one-out|cheap|cheap-vertex|hk|pf|pr|bfs|hk-par|pf-par|pf-graft|auto|suitor|dm"}
{"id":"e-spec-finisher","ok":false,"code":"spec","error":"augment stage two is not an exact algorithm"}
{"id":"e-spec-unknown","ok":false,"code":"spec","error":"unknown algorithm \"warp\"; expected one of one|two|ks|ksmt|one-out|cheap|cheap-vertex|hk|pf|pr|bfs|hk-par|pf-par|pf-graft|auto|suitor|dm"}
{"id":"k-long","ok":false,"code":"deadline","error":"job cancelled by client request","cancelled":true,"deadline_ms":null}
{"id":"k-sleep","ok":true,"op":"sleep","ms":5}
{"id":"p-cancel","ok":false,"code":"parse","error":"cancel job needs a \"job\" field: the target job's id"}
{"id":"p-deadline","ok":false,"code":"parse","error":"\"deadline_ms\" must be a non-negative integer"}
{"id":"p-delta-add","ok":false,"code":"parse","error":"\"add\" must be an array of [row,col] pairs"}
{"id":"p-delta-handle","ok":false,"code":"parse","error":"job needs a non-empty string \"handle\" field"}
{"id":"p-drop","ok":false,"code":"parse","error":"job needs a non-empty string \"handle\" field"}
{"id":"p-edge-neg","ok":false,"code":"parse","error":"\"edges\" entries must be non-negative integers, got [0,-1]"}
{"id":"p-edge-pair","ok":false,"code":"parse","error":"\"edges\" entries must be [row,col] pairs, got [0]"}
{"id":"p-edges","ok":false,"code":"parse","error":"\"edges\" must be an array of [row,col] pairs"}
{"id":"p-finisher","ok":false,"code":"parse","error":"\"finisher\" must be a string"}
{"id":"p-handle-ref","ok":false,"code":"parse","error":"\"handle\" must be a non-empty string"}
{"id":"p-mates","ok":false,"code":"parse","error":"\"mates\" must be a boolean"}
{"id":"p-no-instance","ok":false,"code":"parse","error":"solve job needs an \"instance\": a \"gen:…\" spec, {\"handle\":…}, or {\"nrows\",\"ncols\",\"edges\"}"}
{"id":"p-no-pipeline","ok":false,"code":"parse","error":"job needs a non-empty string \"pipeline\" field"}
{"id":"p-obj-instance","ok":false,"code":"parse","error":"unsupported instance ref {\"rows\":3}; expected a \"gen:…\" spec, {\"handle\":…}, or {\"nrows\",\"ncols\",\"edges\"}"}
{"id":"p-op","ok":false,"code":"parse","error":"unknown op \"warp\"; expected solve|delta|ping|drop|sleep|cancel|shutdown"}
{"id":"p-op-type","ok":false,"code":"parse","error":"\"op\" must be a string"}
{"id":"p-order","ok":false,"code":"parse","error":"\"seed\" must be a non-negative integer"}
{"id":"p-quality","ok":false,"code":"parse","error":"\"quality\" must be a boolean"}
{"id":"p-seed","ok":false,"code":"parse","error":"\"seed\" must be a non-negative integer"}
{"id":"p-sleep","ok":false,"code":"parse","error":"sleep job needs integer \"ms\""}
{"id":"p-store","ok":false,"code":"parse","error":"\"store\" must be a non-empty string"}
{"id":"p-str-instance","ok":false,"code":"parse","error":"string instance refs must be \"gen:…\" specs, got \"file.mtx\""}
{"id":"s-dm","ok":true,"op":"solve","pipeline":"dm,two,pf","seed":4,"report":{"cardinality":57,"seconds":0,"stages":[{"stage":"dm","seconds":0,"cardinality":57,"augmentations":null,"phases":20,"selected":null,"weight":null}],"scaling_iterations":null,"scaling_error":null,"quality":null,"deadline_ms":null,"weight":null}}
{"id":"s-inline","ok":true,"op":"solve","pipeline":"hk","seed":1,"report":{"cardinality":4,"seconds":0,"stages":[{"stage":"hk","seconds":0,"cardinality":4,"augmentations":4,"phases":2,"selected":null,"weight":null}],"scaling_iterations":null,"scaling_error":null,"quality":null,"deadline_ms":null,"weight":null},"rmate":[0,1,3,4]}
{"id":"s-read","ok":true,"op":"solve","pipeline":"two","seed":1,"report":{"cardinality":46,"seconds":0,"stages":[{"stage":"two","seconds":0,"cardinality":46,"augmentations":null,"phases":null,"selected":null,"weight":null}],"scaling_iterations":null,"scaling_error":null,"quality":0.8214285714285714,"deadline_ms":null,"weight":null}}
{"id":"s-store","ok":true,"op":"solve","pipeline":"scale:sk:3,two,hk","seed":9,"handle":"h","report":{"cardinality":56,"seconds":0,"stages":[{"stage":"scale:sk:3","seconds":0,"cardinality":null,"augmentations":null,"phases":null,"selected":null,"weight":null},{"stage":"two","seconds":0,"cardinality":53,"augmentations":null,"phases":null,"selected":null,"weight":null},{"stage":"augment:hk","seconds":0,"cardinality":56,"augmentations":3,"phases":3,"selected":null,"weight":null}],"scaling_iterations":3,"scaling_error":1.2223805657016467,"quality":1,"deadline_ms":null,"weight":null},"rmate":[20,18,36,null,41,52,59,0,24,42,16,57,58,26,10,null,11,33,null,28,39,3,46,45,34,7,27,8,13,29,5,9,17,49,56,25,50,40,51,53,43,null,48,44,2,19,21,38,32,14,55,22,12,47,54,6,37,35,1,30]}
{"id":"s-suitor","ok":true,"op":"solve","pipeline":"scale:sk:5,suitor","seed":1,"weight":27.620201584481453,"report":{"cardinality":53,"seconds":0,"stages":[{"stage":"scale:sk:5","seconds":0,"cardinality":null,"augmentations":null,"phases":null,"selected":null,"weight":null},{"stage":"suitor","seconds":0,"cardinality":53,"augmentations":null,"phases":null,"selected":null,"weight":27.620201584481453}],"scaling_iterations":5,"scaling_error":1,"quality":null,"deadline_ms":null,"weight":27.620201584481453}}
{"id":"z-bye","ok":true,"op":"shutdown"}
{"id":17,"ok":true,"op":"ping"}
{"id":[1,"x"],"ok":true,"op":"ping"}
{"id":null,"ok":false,"code":"parse","error":"job has no \"id\"; replies are tagged with it"}
{"id":null,"ok":false,"code":"parse","error":"malformed job line: expected '\"' at byte 1"}
"#;

/// Admission control's `queue` error needs a one-slot queue.
const GOLDEN_QUEUE_JOBS: &str = r#"{"id":"q-slow","op":"sleep","ms":300}
{"id":"q-rejected","pipeline":"two","instance":"gen:er:40:3"}
{"id":"q-ping","op":"ping"}
"#;

const GOLDEN_QUEUE_REPLIES: &str = r#"{"event":"ready","threads":1,"observed_workers":1,"max_queue":1,"cache_bytes":268435456,"max_line_bytes":67108864,"default_deadline_ms":0}
{"event":"shutdown","jobs":3,"ok":2,"errors":1}
{"id":"q-ping","ok":true,"op":"ping"}
{"id":"q-rejected","ok":false,"code":"queue","error":"queue full: 1 jobs in flight (max_queue 1)"}
{"id":"q-slow","ok":true,"op":"sleep","ms":300}
"#;

/// Instance sizes beyond what the graph types can index answer
/// `instance`, not `internal`: the range checks run before anything is
/// allocated.
#[test]
fn out_of_range_instance_sizes_answer_instance_errors() {
    let input = concat!(
        "{\"id\":\"degree\",\"pipeline\":\"two\",\"instance\":\"gen:er:10:1e300\"}\n",
        "{\"id\":\"size\",\"pipeline\":\"two\",\"instance\":\"gen:er:5000000000:1\"}\n",
        "{\"id\":\"draws\",\"pipeline\":\"two\",\"instance\":\"gen:er:4000000000:4000000000\"}\n",
        "{\"id\":\"inline\",\"pipeline\":\"two\",\"instance\":{\"nrows\":5000000000,\"ncols\":2,\"edges\":[]}}\n",
        "{\"id\":\"alive\",\"op\":\"ping\"}\n",
    );
    let lines = run_serve(input, &ServeOptions { threads: 1, ..ServeOptions::default() });
    for id in ["degree", "size", "draws", "inline"] {
        assert_eq!(code_of(reply(&lines, id)), "instance", "{}", reply(&lines, id));
    }
    assert_ok(reply(&lines, "alive"));
}

/// The protocol's bytes are its contract (the benchmark's reply
/// classifier and delta replay parse them): a reply, code, message or key
/// order that moves fails here.
#[test]
fn golden_transcripts_pin_every_reply_byte() {
    let opts = ServeOptions { threads: 2, ..ServeOptions::default() };
    assert_eq!(transcript(GOLDEN_JOBS, &opts), GOLDEN_REPLIES.lines().collect::<Vec<_>>());
    let opts = ServeOptions { threads: 1, max_queue: 1, ..ServeOptions::default() };
    assert_eq!(
        transcript(GOLDEN_QUEUE_JOBS, &opts),
        GOLDEN_QUEUE_REPLIES.lines().collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------------
// The scaling memo and job start order
// ---------------------------------------------------------------------------

/// Each reply of one session, keyed by its string id, with `"seconds"`
/// zeroed.
fn replies_by_id(input: &str) -> std::collections::BTreeMap<String, String> {
    let opts = ServeOptions { threads: 2, ..ServeOptions::default() };
    let mut lines = run_serve(input, &opts);
    let events = lines.len() - 1;
    lines[1..events]
        .iter_mut()
        .map(|doc| {
            assert_ok(doc);
            zero_seconds(doc);
            (doc.get("id").and_then(Json::as_str).expect("string ids").to_string(), doc.to_string())
        })
        .collect()
}

/// A handle keeps the scaling its `store` computed, and later solves with
/// the same scale stage take it instead of iterating. Hits, misses and the
/// `dm,` jobs that never use it reply exactly like fresh solves of the
/// same instance, `"seconds"` aside, and so does a solve after a `delta`,
/// which drops the memo with the instance it described.
#[test]
fn memoized_scaling_replies_like_a_fresh_solve() {
    let (n, degree, seed) = (2000, 4.0, 7);
    let gen = format!("\"gen:er:{n}:{degree}:{seed}\"");
    let reads = [
        ("sk5-a", "scale:sk:5,two,pr", 1),
        ("sk5-b", "scale:sk:5,two,pr", 7),
        ("suitor", "scale:sk:5,suitor", 1),
        ("sk3-miss", "scale:sk:3,two", 1),
        ("dm", "dm,scale:sk:5,two,pr", 1),
    ];
    let job = |id: &str, pipeline: &str, seed: u64, instance: &str| {
        format!(
            "{{\"id\":\"{id}\",\"pipeline\":\"{pipeline}\",\"seed\":{seed},\"instance\":{instance},\"mates\":true}}\n"
        )
    };

    // The instance and the delta applied to it, with the mutated pattern
    // sent inline to the fresh daemon.
    let g = dsmatch::gen::erdos_renyi_square(n, degree, seed);
    let mut edges = std::collections::BTreeSet::new();
    for i in 0..n {
        edges.extend(g.row_adj(i).iter().map(|&j| (i, j as usize)));
    }
    let remove: Vec<(usize, usize)> = (0..8).map(|i| (i, g.row_adj(i)[0] as usize)).collect();
    let add: Vec<(usize, usize)> =
        (8..16).map(|i| (i, (i * 37 + 11) % n)).filter(|e| !edges.contains(e)).collect();
    assert!(!add.is_empty());
    edges.retain(|e| !remove.contains(e));
    edges.extend(&add);
    let mutated = inline_instance(n, n, &edges.into_iter().collect::<Vec<_>>());
    let after = [("delta-a", 1), ("delta-b", 3)];

    let mut cached = format!(
        "{{\"id\":\"store\",\"pipeline\":\"scale:sk:5,two,pr\",\"instance\":{gen},\"store\":\"h\"}}\n"
    );
    let mut fresh = String::new();
    for (id, pipeline, seed) in reads {
        cached += &job(id, pipeline, seed, "{\"handle\":\"h\"}");
        fresh += &job(id, pipeline, seed, &gen);
    }
    cached += &format!(
        "{{\"id\":\"delta\",\"op\":\"delta\",\"handle\":\"h\",\"add\":{},\"remove\":{}}}\n",
        edges_json(&add),
        edges_json(&remove)
    );
    for (id, seed) in after {
        cached += &job(id, "scale:sk:5,two", seed, "{\"handle\":\"h\"}");
        fresh += &job(id, "scale:sk:5,two", seed, &mutated);
    }

    let (cached, fresh) = (replies_by_id(&cached), replies_by_id(&fresh));
    let ids = reads.iter().map(|r| r.0).chain(after.iter().map(|a| a.0));
    for id in ids {
        assert_eq!(cached[id], fresh[id], "job {id}");
    }
}

/// Jobs start in the order they became runnable: three short sleeps
/// queued behind a long one on a one-worker pool start oldest first.
#[test]
fn queued_jobs_start_oldest_first() {
    let input = concat!(
        "{\"id\":\"a\",\"op\":\"sleep\",\"ms\":300}\n",
        "{\"id\":\"b\",\"op\":\"sleep\",\"ms\":1}\n",
        "{\"id\":\"c\",\"op\":\"sleep\",\"ms\":1}\n",
        "{\"id\":\"d\",\"op\":\"sleep\",\"ms\":1}\n",
    );
    let lines = run_serve(input, &ServeOptions { threads: 1, ..ServeOptions::default() });
    let order: Vec<&str> =
        lines.iter().filter_map(|l| l.get("id").and_then(Json::as_str)).collect();
    assert_eq!(order, ["a", "b", "c", "d"]);
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

/// A line nested far deeper than any job is one more malformed line: the
/// daemon answers it with a `parse` error and keeps serving, instead of
/// overflowing the stack of the thread that reads it.
#[test]
fn binary_deeply_nested_line_is_a_parse_error() {
    let deep = format!("{}{}\n", "[".repeat(50_000), "]".repeat(50_000));
    let mut child = serve_cmd(&["--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning dsmatch serve");
    let mut stdin = child.stdin.take().unwrap();
    // A daemon that died mid-line shows up in the checks below.
    let _ = stdin.write_all(deep.as_bytes());
    let _ = stdin.write_all(b"{\"id\":2,\"op\":\"ping\"}\n");
    drop(stdin);
    let out = child.wait_with_output().expect("daemon output");
    let (text, errors) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    let context = format!("{}\nstdout:\n{text}\nstderr:\n{errors}", out.status);
    assert!(out.status.success(), "{context}");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "ready, two replies, shutdown: {context}");
    assert!(lines[1].contains("\"code\":\"parse\""), "{context}");
    assert!(lines[2].contains("\"id\":2") && lines[2].contains("\"ok\":true"), "{context}");
    assert!(lines[3].contains("\"event\":\"shutdown\""), "{context}");
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

/// A job naming a handle that no job ever stored leaves nothing behind —
/// a failing read, a failing delta, or a `store` whose instance never
/// built: a later `drop` of that name answers `handle`, while a drop of a
/// stored handle is acknowledged.
#[test]
fn binary_jobs_on_never_stored_handles_leave_nothing_to_drop() {
    let mut d = Daemon::spawn(&["--threads", "2"]);
    for (job, handle) in [
        ("{\"id\":\"r\",\"pipeline\":\"hk\",\"instance\":{\"handle\":\"never-read\"}}", "never-read"),
        ("{\"id\":\"x\",\"op\":\"delta\",\"handle\":\"never-delta\",\"add\":[[0,0]]}", "never-delta"),
        (
            "{\"id\":\"s\",\"pipeline\":\"two\",\"instance\":\"gen:er:0:3\",\"store\":\"never-built\"}",
            "never-built",
        ),
    ] {
        let reply = d.round_trip(job);
        assert!(reply.contains("\"ok\":false"), "job {job}: {reply}");
        // The job's reply goes out after its handle is released, so the
        // drop below cannot race it.
        let dropped = d.round_trip(&format!("{{\"id\":\"d\",\"op\":\"drop\",\"handle\":{handle:?}}}"));
        assert_eq!(
            dropped,
            format!(
                "{{\"id\":\"d\",\"ok\":false,\"code\":\"handle\",\"error\":\"no instance cached under handle \\\"{handle}\\\"\"}}"
            ),
            "after job {job}"
        );
    }
    let stored = d.round_trip(
        "{\"id\":\"s2\",\"pipeline\":\"two\",\"instance\":\"gen:er:50:3\",\"store\":\"kept\"}",
    );
    assert!(stored.contains("\"ok\":true"), "{stored}");
    let dropped = d.round_trip("{\"id\":\"d2\",\"op\":\"drop\",\"handle\":\"kept\"}");
    assert_eq!(dropped, "{\"id\":\"d2\",\"ok\":true,\"op\":\"drop\",\"handle\":\"kept\"}");
    d.finish();
}

/// Two `sleep` jobs share the id `x` at `--threads 2`. Once the shorter
/// one has replied, a `cancel` of `x` must reach the longer one, the
/// newest `x` still in flight, and cut it short.
fn cancel_reused_id_after_the_shorter_job_replied(first_ms: u64, second_ms: u64) {
    let (short, long) = (first_ms.min(second_ms), first_ms.max(second_ms));
    let mut d = Daemon::spawn(&["--threads", "2"]);
    let t0 = std::time::Instant::now();
    writeln!(d.stdin, "{{\"id\":\"x\",\"op\":\"sleep\",\"ms\":{first_ms}}}").unwrap();
    writeln!(d.stdin, "{{\"id\":\"x\",\"op\":\"sleep\",\"ms\":{second_ms}}}").unwrap();
    let first = d.next_line();
    assert_eq!(first, format!("{{\"id\":\"x\",\"ok\":true,\"op\":\"sleep\",\"ms\":{short}}}"));
    let ack = d.round_trip("{\"id\":\"c\",\"op\":\"cancel\",\"job\":\"x\"}");
    assert_eq!(ack, "{\"id\":\"c\",\"ok\":true,\"op\":\"cancel\",\"job\":\"x\"}");
    let second = d.next_line();
    assert!(second.contains("\"id\":\"x\""), "{second}");
    assert!(second.contains("\"code\":\"deadline\""), "{second}");
    assert!(second.contains("\"cancelled\":true"), "{second}");
    assert!(
        // lint:allow(test-deadline): upper bound proving the long sleep was cut short — must stay below its length, so it cannot route through the widening knob
        t0.elapsed() < std::time::Duration::from_millis(long - 1000),
        "the {long} ms sleep must be cut short by the cancel"
    );
    d.finish();
}

/// `cancel` of a reused id targets the newest in-flight job with that id,
/// also after an older job with the same id has finished.
#[test]
fn binary_cancel_of_a_reused_id_targets_the_newest_job() {
    cancel_reused_id_after_the_shorter_job_replied(100, 5000);
}

/// A finished newer job with the id leaves an older in-flight one
/// cancellable.
#[test]
fn binary_cancel_reaches_an_older_job_once_a_newer_one_with_its_id_finished() {
    cancel_reused_id_after_the_shorter_job_replied(3000, 100);
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

/// A session ends with its own jobs, not with the pool task that started
/// them. At `--threads 1`, client A's short sleep and then client B's
/// long one queue behind a job holding the worker; the task spawned for
/// A's job then starts B's. A hangs up once answered: it still gets its
/// shutdown line, and a new client its `--max-clients` slot, while B's
/// sleep runs (B can still cancel it).
#[cfg(unix)]
#[test]
fn a_hang_up_frees_the_slot_while_another_clients_job_runs() {
    let path = socket_path("hang-up");
    let mut child =
        serve_cmd(&["--threads", "1", "--max-clients", "2", "--socket", path.to_str().unwrap()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning socket daemon");
    let mut b = SocketClient::ready(&path);
    let mut a = SocketClient::ready(&path);
    // A ping answered after a job line proves the line was scheduled.
    b.send("{\"id\":\"busy\",\"op\":\"sleep\",\"ms\":1000}");
    b.round_trip("{\"id\":\"p1\",\"op\":\"ping\"}", "p1");
    std::thread::sleep(std::time::Duration::from_millis(100));
    a.send("{\"id\":\"a\",\"op\":\"sleep\",\"ms\":1}");
    a.round_trip("{\"id\":\"p2\",\"op\":\"ping\"}", "p2");
    b.send("{\"id\":\"long\",\"op\":\"sleep\",\"ms\":10000}");
    b.round_trip("{\"id\":\"p3\",\"op\":\"ping\"}", "p3");
    let reply = a.next();
    assert!(reply.contains("\"id\":\"a\"") && reply.contains("\"ok\":true"), "{reply}");

    a.write.shutdown(std::net::Shutdown::Write).expect("half-closing A");
    let goodbye = a.next();
    assert!(goodbye.contains("\"event\":\"shutdown\""), "{goodbye}");
    let deadline = std::time::Instant::now() + test_timeout(30);
    let mut c = loop {
        let mut c = SocketClient::new(connect_socket(&path));
        let first_line = c.next();
        if first_line.contains("\"event\":\"ready\"") {
            break c;
        }
        assert!(first_line.contains("\"code\":\"busy\""), "unexpected line: {first_line}");
        assert!(std::time::Instant::now() < deadline, "slot never reclaimed");
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    c.round_trip("{\"id\":\"p4\",\"op\":\"ping\"}", "p4");

    b.send("{\"id\":\"stop\",\"op\":\"cancel\",\"job\":\"long\"}");
    let mut next_of = |id: &str| loop {
        let line = b.next();
        if line.contains(&format!("\"id\":{id:?}")) {
            break line;
        }
    };
    let cancel = next_of("stop");
    assert!(cancel.contains("\"ok\":true"), "B's sleep was still running: {cancel}");
    let long = next_of("long");
    assert!(long.contains("\"cancelled\":true"), "{long}");
    c.round_trip("{\"id\":\"bye\",\"op\":\"shutdown\"}", "bye");
    assert!(child.wait().expect("waiting for daemon").success());
}

/// `cancel` reaches only its own connection's jobs: client B's cancel of
/// client A's in-flight id is a `"job"` error, and A's job completes.
#[cfg(unix)]
#[test]
fn a_cancel_never_reaches_another_connections_job() {
    let path = socket_path("cross-cancel");
    let mut child = serve_cmd(&["--threads", "2", "--socket", path.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning socket daemon");
    let mut a = SocketClient::ready(&path);
    let mut b = SocketClient::ready(&path);
    a.send("{\"id\":\"x\",\"op\":\"sleep\",\"ms\":500}");
    // A ping answered after a job line proves the line was scheduled.
    a.round_trip("{\"id\":\"p\",\"op\":\"ping\"}", "p");
    let refused = b.round_trip("{\"id\":\"c\",\"op\":\"cancel\",\"job\":\"x\"}", "c");
    assert_eq!(
        refused,
        "{\"id\":\"c\",\"ok\":false,\"code\":\"job\",\"error\":\"no in-flight job \\\"x\\\" on this connection\"}"
    );
    assert_eq!(a.next(), "{\"id\":\"x\",\"ok\":true,\"op\":\"sleep\",\"ms\":500}");
    b.round_trip("{\"id\":\"bye\",\"op\":\"shutdown\"}", "bye");
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
