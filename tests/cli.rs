//! CLI contract tests: flag validation (the `--batch-par`-without-`--batch`
//! and `--threads 0` rejections), malformed-input errors, and smoke
//! coverage of the parallel exact finishers through the real binary.

use std::process::{Command, Output};

fn dsmatch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsmatch"))
        .args(args)
        .output()
        .expect("spawning the dsmatch binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn batch_par_without_batch_is_rejected() {
    let out = dsmatch(&["gen:er:100:3", "--batch-par"]);
    assert!(!out.status.success(), "--batch-par alone must not be silently ignored");
    assert!(
        stderr(&out).contains("--batch-par") && stderr(&out).contains("--batch N"),
        "error must name both flags: {}",
        stderr(&out)
    );
}

#[test]
fn batch_par_with_batch_runs() {
    let out = dsmatch(&["gen:er:300:3", "--batch", "2", "--batch-par", "--threads", "2", "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("\"batch_par\":true"));
    assert!(stdout(&out).contains("\"solves\":2"));
}

#[test]
fn threads_zero_is_rejected() {
    let out = dsmatch(&["gen:er:100:3", "--threads", "0"]);
    assert!(!out.status.success(), "--threads 0 must not silently mean the default size");
    assert!(stderr(&out).contains("--threads 0"), "stderr: {}", stderr(&out));
}

#[test]
fn non_numeric_threads_and_batch_are_rejected() {
    let out = dsmatch(&["gen:er:100:3", "--threads", "many"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--threads"), "stderr: {}", stderr(&out));

    let out = dsmatch(&["gen:er:100:3", "--batch", "0"]);
    assert!(!out.status.success(), "--batch 0 must not silently mean one run");
    assert!(stderr(&out).contains("--batch"), "stderr: {}", stderr(&out));
}

#[test]
fn parallel_finisher_pipeline_runs_exactly() {
    let out = dsmatch(&[
        "gen:er:400:4",
        "--pipeline",
        "scale:sk:3,two,pf-par",
        "--threads",
        "2",
        "--quality",
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = stdout(&out);
    assert!(json.contains("\"pipeline\":\"scale:sk:3,two,pf-par\""), "stdout: {json}");
    // The pf-par finisher makes the composition exact: quality ratio 1.
    assert!(json.contains("\"quality\":1"), "stdout: {json}");
}

#[test]
fn hk_par_works_as_algo_shorthand() {
    let out = dsmatch(&["gen:er:400:4", "--algo", "hk-par", "--quality"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("quality       : 1.0000"), "stdout: {}", stdout(&out));
}

#[test]
fn out_of_range_gen_specs_exit_1_without_panicking() {
    for spec in ["gen:er:10:1e300", "gen:er:5000000000:1", "gen:er:4000000000:4000000000"] {
        let out = dsmatch(&[spec]);
        assert_eq!(out.status.code(), Some(1), "{spec}: stderr {}", stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{spec}: {}", stderr(&out));
        assert!(stderr(&out).contains("gen:er:<n>:<avg_degree>"), "{spec}: {}", stderr(&out));
    }
}

#[test]
fn malformed_matrix_market_size_lines_exit_1_without_panicking() {
    // Each size line once aborted or panicked the reader: an entry count
    // too large to reserve (also doubled by `symmetric`), or a row count
    // beyond 32-bit vertex ids.
    let dir = std::env::temp_dir().join(format!("dsmatch_cli_mm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, symmetry, size) in [
        ("huge_nnz.mtx", "general", "3 3 99999999999999999"),
        ("huge_nrows.mtx", "general", "5000000000 3 1"),
        ("huge_symmetric_nnz.mtx", "symmetric", "3 3 9223372036854775807"),
    ] {
        let path = dir.join(name);
        let text = format!("%%MatrixMarket matrix coordinate pattern {symmetry}\n{size}\n1 1\n");
        std::fs::write(&path, text).unwrap();
        let out = dsmatch(&[path.to_str().unwrap(), "--algo", "two"]);
        assert_eq!(out.status.code(), Some(1), "{size}: stderr {}", stderr(&out));
        assert!(stderr(&out).contains("Matrix Market parse error"), "{size}: {}", stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{size}: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
