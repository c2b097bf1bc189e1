//! # ipra-benchmark — end-to-end and per-layer benchmark of the toolchain
//!
//! Four workloads ([`workloads`]) exercise the two costs the paper is
//! about: the two-pass build (cold, incremental, and as a shared daemon)
//! and the run time and memory traffic of the code it generates (the
//! Table 4/5 sweep). An untraced run reports the end-to-end metrics of
//! `BENCHMARK.json`, its times scaled to one host speed ([`host`]); a
//! traced run replays every op layer by layer ([`replay`]) with in-memory
//! spans ([`trace`]) and reports the per-layer metrics. See `BENCHMARK.md`
//! for the workloads, metric definitions and how to compare two runs.

#![warn(missing_docs)]

pub mod harness;
pub mod host;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
