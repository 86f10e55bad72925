//! Host stamp: the machine and build a result set was measured on, and
//! the refusal to compare result sets from different machines.

use std::path::Path;
use std::process::Command;

use dsmatch_json::Json;

use crate::inputs::Fnv;

/// Build profile of this benchmark binary; the manifest pins the release
/// settings, so the string names them.
pub const PROFILE: &str =
    if cfg!(debug_assertions) { "debug" } else { "release (lto=thin, codegen-units=1)" };

/// Fields that must agree before two result sets may be compared.
pub const MACHINE_KEYS: [&str; 5] = ["nproc", "cpu_model", "mem_total_kb", "rustc", "profile"];

/// Everything recorded about the host and build of one run.
pub fn stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into());
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_total_kb = field(&meminfo, "MemTotal")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
        .unwrap_or(0);
    Json::obj(vec![
        ("nproc", Json::from(nproc)),
        ("cpu_model", Json::from(cpu_model.as_str())),
        ("mem_total_kb", Json::from(mem_total_kb)),
        ("rustc", Json::from(command_line("rustc", &["-V"]).as_str())),
        ("profile", Json::from(PROFILE)),
        ("git_commit", Json::from(command_line("git", &["rev-parse", "HEAD"]).as_str())),
        ("source_hash", Json::from(source_hash(Path::new(".")).as_str())),
    ])
}

/// Value of the first `key : value` line of a `/proc` text file.
fn field(text: &str, key: &str) -> Option<String> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// First line of a command's standard output, or `"unknown"` when the
/// command is missing or fails (a checkout without `.git`, say).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hash of the program's sources (manifests, `src/`, `crates/`, `shims/`),
/// so a result set names the code it measured even where no git commit
/// is available.
fn source_hash(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "shims"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    for path in &files {
        h.bytes(path.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(path).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB; 0 where `/proc` is unavailable.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    field(&status, "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine fields on which two stamps differ, as
/// `key: left != right` lines; empty when the result sets are comparable.
pub fn differences(a: &Json, b: &Json) -> Vec<String> {
    MACHINE_KEYS
        .iter()
        .filter_map(|&key| {
            let (x, y) = (a.get(key), b.get(key));
            (x != y).then(|| {
                let show = |v: Option<&Json>| v.map_or("<missing>".to_string(), Json::to_string);
                format!("{key}: {} != {}", show(x), show(y))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(nproc: usize, cpu: &str) -> Json {
        Json::obj(vec![
            ("nproc", Json::from(nproc)),
            ("cpu_model", Json::from(cpu)),
            ("mem_total_kb", Json::from(1024u64)),
            ("rustc", Json::from("rustc 1.0.0")),
            ("profile", Json::from(PROFILE)),
            ("git_commit", Json::from("abc")),
        ])
    }

    #[test]
    fn identical_machines_compare_even_across_commits() {
        let a = machine(2, "cpu");
        let mut b = machine(2, "cpu");
        if let Json::Obj(pairs) = &mut b {
            pairs.retain(|(k, _)| k != "git_commit");
            pairs.push(("git_commit".into(), Json::from("def")));
        }
        assert!(differences(&a, &b).is_empty());
    }

    #[test]
    fn differing_machines_name_every_difference() {
        let diffs = differences(&machine(2, "cpu a"), &machine(4, "cpu b"));
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].starts_with("nproc: 2 != 4"), "{diffs:?}");
        assert!(diffs[1].starts_with("cpu_model:"), "{diffs:?}");
        let missing = differences(&machine(2, "cpu"), &Json::obj(Vec::<(&str, Json)>::new()));
        assert_eq!(missing.len(), MACHINE_KEYS.len());
    }

    #[test]
    fn proc_field_lookup() {
        let text = "processor\t: 0\nmodel name\t: Some CPU @ 2.0GHz\n";
        assert_eq!(field(text, "model name").as_deref(), Some("Some CPU @ 2.0GHz"));
        assert_eq!(field(text, "absent"), None);
    }
}
