//! # dsmatch-bench — experiment harness
//!
//! Shared utilities for the binaries that regenerate every table and figure
//! of the paper (each binary's module docs name what it reproduces and how
//! to run it) and for the Criterion micro-benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod speedup_doc;

pub use dsmatch_json::{parse_json, Json as JsonValue};
pub use harness::{
    arg, flag, geometric_mean, median, min_of, thread_ladder, time_once, time_stats, with_threads,
    write_json_file, Row, Table,
};
