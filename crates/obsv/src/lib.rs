//! # ipra-obsv — observability for the IPRA pipeline
//!
//! The paper's evaluation (§6) is a causal claim: cycles disappear *because*
//! a web promoted a global, *because* a cluster root hoisted spill code.
//! This crate turns the pipeline's raw observability data into those causal
//! statements:
//!
//! * [`explain`] renders the analyzer [decision
//!   trace](ipra_core::trace::AnalyzerTrace) for one symbol — the chain of
//!   web/cluster/claim decisions that touched a global or procedure,
//! * [`DiffReport`] joins per-procedure [dynamic
//!   attribution](vpr::sim::Attribution) deltas between two configurations
//!   with the directives and trace events that explain them, as a human
//!   table and as deterministic JSON.
//!
//! The data producers live upstream (`ipra_core::analyzer::analyze_traced`,
//! `vpr::sim` with `SimOptions::attribute`); this crate only consumes them,
//! so it can never perturb a compile or a run.

#![warn(missing_docs)]

mod explain;
mod report;

pub use explain::{explain, render_event};
pub use report::{DiffReport, ProcDelta, Totals};
