//! Deterministic fault injection for the serve daemon.
//!
//! The chaos tests (`tests/chaos.rs`) and the CI chaos smoke leg need to
//! provoke failures *inside* the real binary at precise, reproducible
//! points: a worker panicking mid-stage on exactly the third job, a stall
//! long enough to trip a deadline, a corrupted reply write. This module
//! reads a fault plan from the `DSMATCH_FAULTS` environment variable once
//! (on first use) and exposes cheap hook functions the serve layer calls
//! at its seams. When the variable is unset every hook is a single
//! `Option` check on a cached [`OnceLock`] — no branching on env reads,
//! no measurable cost in production.
//!
//! # Syntax
//!
//! `DSMATCH_FAULTS` is a comma-separated list of fault entries; fields
//! within an entry are separated by `:` as `key=value` pairs after the
//! fault kind:
//!
//! | entry | effect |
//! |---|---|
//! | `panic:job=3` | panic inside the worker while running the 3rd job (1-based, daemon-global submission order) |
//! | `stall:stage=finish:ms=5000` | sleep 5000 ms at the named stage (`start` or `finish`) of every job |
//! | `stall:stage=start:job=2:ms=100` | same, but only for the 2nd job |
//! | `truncate-reply:nth=2` | cut the 2nd reply line in half before writing it |
//! | `garbage-reply:nth=4` | replace the 4th reply line with garbage bytes |
//! | `cache-exhaust` | clamp the serve handle cache budget to zero (a stored handle lasts until the next store, which evicts it once no job claims it) |
//!
//! Malformed entries are reported on stderr and skipped — a typo in a
//! chaos run degrades to "fault not injected", never to a crashed daemon.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// One parsed fault directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic while executing the `job`-th submitted job (1-based).
    Panic {
        /// 1-based daemon-global job ordinal to panic on.
        job: u64,
    },
    /// Sleep `ms` milliseconds at stage `stage` (`"start"` / `"finish"`)
    /// of every job, or only of job `job` when given.
    Stall {
        /// Stage name the stall is attached to.
        stage: String,
        /// Optional 1-based job ordinal filter (`None`: every job).
        job: Option<u64>,
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Truncate the `nth` reply line (1-based) to half its length.
    TruncateReply {
        /// 1-based reply ordinal to corrupt.
        nth: u64,
    },
    /// Replace the `nth` reply line (1-based) with garbage.
    GarbageReply {
        /// 1-based reply ordinal to corrupt.
        nth: u64,
    },
    /// Force the serve handle-cache budget to zero bytes.
    CacheExhaust,
}

/// The full set of active faults, parsed once from `DSMATCH_FAULTS`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    jobs: AtomicU64,
    replies: AtomicU64,
}

static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();

fn plan() -> Option<&'static FaultPlan> {
    PLAN.get_or_init(|| {
        let spec = std::env::var("DSMATCH_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        Some(FaultPlan::parse(&spec))
    })
    .as_ref()
}

impl FaultPlan {
    /// Parse a fault plan from the `DSMATCH_FAULTS` syntax. Malformed
    /// entries are skipped with a warning on stderr.
    pub fn parse(spec: &str) -> FaultPlan {
        let mut faults = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            match parse_entry(entry) {
                Some(f) => faults.push(f),
                None => {
                    eprintln!("dsmatch: ignoring malformed DSMATCH_FAULTS entry {entry:?}");
                }
            }
        }
        FaultPlan { faults, jobs: AtomicU64::new(0), replies: AtomicU64::new(0) }
    }

    /// Parsed faults, in order (for tests).
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Corrupt a rendered reply line if a `truncate-reply`/`garbage-reply`
    /// fault targets the next reply ordinal. Replies are counted only
    /// while such a fault exists; a truncation cuts back to the char
    /// boundary at or below half the line.
    pub fn corrupt_reply(&self, text: &mut String) {
        if !self
            .faults
            .iter()
            .any(|f| matches!(f, Fault::TruncateReply { .. } | Fault::GarbageReply { .. }))
        {
            return;
        }
        let nth = self.replies.fetch_add(1, Ordering::Relaxed) + 1;
        for f in &self.faults {
            match f {
                Fault::TruncateReply { nth: n } if *n == nth => {
                    let mut cut = text.len() / 2;
                    while cut > 0 && !text.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    text.truncate(cut);
                }
                Fault::GarbageReply { nth: n } if *n == nth => {
                    *text = "!garbage ".repeat(512);
                }
                _ => {}
            }
        }
    }
}

fn parse_entry(entry: &str) -> Option<Fault> {
    let mut parts = entry.split(':');
    let kind = parts.next()?;
    let mut job = None;
    let mut stage = None;
    let mut ms = None;
    let mut nth = None;
    for field in parts {
        let (key, value) = field.split_once('=')?;
        match key {
            "job" => job = Some(value.parse::<u64>().ok()?),
            "stage" => stage = Some(value.to_string()),
            "ms" => ms = Some(value.parse::<u64>().ok()?),
            "nth" => nth = Some(value.parse::<u64>().ok()?),
            _ => return None,
        }
    }
    match kind {
        "panic" => Some(Fault::Panic { job: job? }),
        "stall" => {
            let stage = stage?;
            if stage != "start" && stage != "finish" {
                return None;
            }
            Some(Fault::Stall { stage, job, ms: ms? })
        }
        "truncate-reply" => Some(Fault::TruncateReply { nth: nth? }),
        "garbage-reply" => Some(Fault::GarbageReply { nth: nth? }),
        "cache-exhaust" => Some(Fault::CacheExhaust),
        _ => None,
    }
}

/// Claim the next daemon-global job ordinal (1-based). Returns 0 when no
/// fault plan is active so callers can skip bookkeeping entirely.
pub fn next_job() -> u64 {
    match plan() {
        Some(p) => p.jobs.fetch_add(1, Ordering::Relaxed) + 1,
        None => 0,
    }
}

/// Panic if a `panic:job=N` fault targets this job ordinal.
pub fn panic_if_due(job: u64) {
    let Some(p) = plan() else { return };
    for f in &p.faults {
        if matches!(f, Fault::Panic { job: j } if *j == job) {
            panic!("injected fault: panic at job {job}");
        }
    }
}

/// Sleep if a `stall` fault targets this stage (and job ordinal, when the
/// fault carries a `job=` filter).
pub fn stall_if_due(stage: &str, job: u64) {
    let Some(p) = plan() else { return };
    for f in &p.faults {
        if let Fault::Stall { stage: s, job: j, ms } = f {
            if s == stage && j.is_none_or(|j| j == job) {
                std::thread::sleep(Duration::from_millis(*ms));
            }
        }
    }
}

/// Corrupt a rendered reply line if a `truncate-reply`/`garbage-reply`
/// fault targets the next reply ordinal ([`FaultPlan::corrupt_reply`]).
/// Counts every reply the daemon writes (inline and worker-produced
/// alike).
pub fn corrupt_reply(text: &mut String) {
    if let Some(p) = plan() {
        p.corrupt_reply(text);
    }
}

/// The serve cache budget after applying any `cache-exhaust` fault.
pub fn cache_budget(configured: usize) -> usize {
    match plan() {
        Some(p) if p.faults.iter().any(|f| matches!(f, Fault::CacheExhaust)) => 0,
        _ => configured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_syntax() {
        let p = FaultPlan::parse("panic:job=3,stall:stage=finish:ms=5000,truncate-reply:nth=2");
        assert_eq!(
            p.faults(),
            &[
                Fault::Panic { job: 3 },
                Fault::Stall { stage: "finish".into(), job: None, ms: 5000 },
                Fault::TruncateReply { nth: 2 },
            ]
        );
    }

    #[test]
    fn parses_stall_with_job_filter_and_garbage() {
        let p =
            FaultPlan::parse("stall:stage=start:job=2:ms=100, garbage-reply:nth=4 ,cache-exhaust");
        assert_eq!(
            p.faults(),
            &[
                Fault::Stall { stage: "start".into(), job: Some(2), ms: 100 },
                Fault::GarbageReply { nth: 4 },
                Fault::CacheExhaust,
            ]
        );
    }

    #[test]
    fn skips_malformed_entries() {
        let p = FaultPlan::parse("panic,stall:stage=mid:ms=1,panic:job=x,wibble:job=1,panic:job=7");
        assert_eq!(p.faults(), &[Fault::Panic { job: 7 }]);
    }

    #[test]
    fn empty_spec_parses_to_no_faults() {
        assert!(FaultPlan::parse("").faults().is_empty());
        assert!(FaultPlan::parse(" , ,").faults().is_empty());
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        let p = FaultPlan::parse("truncate-reply:nth=1");
        // 13 bytes: the midpoint 6 falls inside the second `≥`, so the
        // cut backs off to the boundary before it.
        let mut first = String::from("a≥b≥c≥d");
        p.corrupt_reply(&mut first);
        assert_eq!(first, "a≥b");
        let mut second = String::from("a≥b≥c≥d");
        p.corrupt_reply(&mut second);
        assert_eq!(second, "a≥b≥c≥d", "only the targeted reply is cut");
    }
}
