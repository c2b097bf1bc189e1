//! Every workload, driven through the library with a few ops: each emits
//! exactly the metrics `BENCHMARK.json` declares, and no op fails.

use ipra_benchmark::harness::{RunConfig, Spec};
use ipra_benchmark::workloads;
use std::path::PathBuf;

/// A run whose window closes at once, so it makes exactly `ops` ops (one
/// whole sweep for `paper-sweep`).
fn config(workload: &str, trace: bool, ops: usize) -> RunConfig {
    RunConfig {
        min_ops: ops,
        work_dir: PathBuf::from(".bench_work").join(format!(
            "test-{workload}-{}-{}",
            u8::from(trace),
            std::process::id()
        )),
        ..RunConfig::new(workload, 7, 1e-6, trace)
    }
}

fn untraced(workload: &str) {
    let spec = Spec::load();
    let out = workloads::run(&config(workload, false, 3), &spec).unwrap();
    let sweep = 7 * 8;
    assert_eq!(
        out.tally.attempted,
        if workload == "paper-sweep" { sweep } else { 3 },
        "{workload}"
    );
    assert_eq!(out.tally.failed, 0, "{workload}: {:?}", out.tally.failures);
    // Three ops (or one sweep's 56) leave fewer than 10 samples beyond a
    // p90: the tail is withheld, and every other end-to-end metric is
    // present.
    assert_eq!(out.refused, vec!["latency_s.p90".to_string()], "{workload}");
    let names: Vec<&str> = out.metrics.keys().map(String::as_str).collect();
    let mut want: Vec<&str> =
        spec.end_to_end.iter().map(|m| m.name.as_str()).filter(|n| *n != "latency_s.p90").collect();
    want.sort_unstable();
    assert_eq!(names, want, "{workload}");
    for (name, s) in &out.metrics {
        assert!(s.value.is_finite() && s.value > 0.0, "{workload}: {name} = {}", s.value);
        assert!(spec.find(name).is_some_and(|m| !m.unit.is_empty()), "{name} has no unit");
    }
}

fn traced(workload: &str, ops: usize) {
    let spec = Spec::load();
    let out = workloads::run(&config(workload, true, ops), &spec).unwrap();
    assert_eq!(out.tally.failed, 0, "{workload}: {:?}", out.tally.failures);
    out.check_complete(&spec, true).unwrap();
    let coverage = out.metrics["trace.coverage"].value;
    assert!(coverage > 0.5 && coverage <= 1.0, "{workload}: coverage {coverage}");
    let rec = out.trace.as_ref().expect("a traced run keeps its spans");
    assert!(
        rec.spans.iter().any(|s| s.name == "core.webs"),
        "{workload}: analyzer sub-steps traced"
    );
}

#[test]
fn cold_untraced() {
    untraced("cold-build");
}

#[test]
fn edit_untraced() {
    untraced("edit-loop");
}

#[test]
fn sweep_untraced() {
    untraced("paper-sweep");
}

#[test]
fn daemon_untraced() {
    untraced("daemon-mix");
}

#[test]
fn cold_traced() {
    traced("cold-build", 2);
}

#[test]
fn edit_traced() {
    traced("edit-loop", 2);
}

#[test]
fn sweep_traced() {
    traced("paper-sweep", 1);
}

#[test]
fn daemon_traced() {
    // Enough requests that some are edits or never-seen programs, which
    // the traced run replays.
    traced("daemon-mix", 24);
}

#[test]
fn unknown_workload_is_an_error() {
    let spec = Spec::load();
    assert!(workloads::run(&config("no-such-workload", false, 1), &spec).is_err());
}

#[test]
fn spec_names_the_four_workloads() {
    let spec = Spec::load();
    assert_eq!(spec.workloads, ["cold-build", "edit-loop", "paper-sweep", "daemon-mix"]);
    assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
}
