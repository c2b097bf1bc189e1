//! The one harness behind `compile_bench`, `sim_bench` and `daemon_bench`:
//! their shared flags, a best-of-[`TRIALS`] timer, and one report shape
//! with one JSON writer, one stderr printer and one exit rule.
//!
//! Every report is `{bench, host, rows, gates}`:
//!
//! * `host` records the core count and the effective worker width (`jobs`)
//!   the bench ran with;
//! * a **row** is one timed measurement, `{name, layer, seconds,
//!   counters}`: `name` says what ran, `layer` which part of the system the
//!   seconds cover, and `counters` the work counted in it. Speedups are
//!   ratios of row seconds; rates are row counters over row seconds;
//! * a **gate** is one `--check` condition, `{name, value, bound, pass}`.
//!
//! A bench exits non-zero when its report cannot be written, or when
//! `--check` is given and a gate failed. A bad command line exits 2 before
//! anything is measured ([`ipra_driver::args`] parses every bench's flags).

use ipra_driver::args::Args;
use ipra_telemetry::CountersSnapshot;
use serde::{Serialize, Sink};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Timed trials per measurement; [`best_of`] keeps the fastest. Single
/// builds and runs take milliseconds, where one scheduler hiccup on a
/// shared host swamps the margins being measured, so the minimum is the
/// least-disturbed estimate.
pub const TRIALS: usize = 3;

/// Named work counts of one row.
pub type Counters = BTreeMap<String, u64>;

/// Builds [`Counters`] from literal pairs.
pub fn counters<const N: usize>(pairs: [(&str, u64); N]) -> Counters {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// How many keys hold different values in `a` and `b` (a key missing on one
/// side counts): zero exactly when the two counter sets are identical.
pub fn differing(a: &Counters, b: &Counters) -> usize {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    keys.into_iter().filter(|k| a.get(*k) != b.get(*k)).count()
}

/// Runs `f` once and returns its output with the wall-clock seconds it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `setup` (untimed) and then `trial` on what it returned (timed),
/// [`TRIALS`] times over, and returns the fastest trial's output with its
/// seconds. `setup` re-establishes a measurement's precondition (an empty
/// cache, a wiped directory, a fresh edit); the outputs of slower trials
/// are dropped outside the timed region.
pub fn best_of<S, T>(mut setup: impl FnMut() -> S, mut trial: impl FnMut(S) -> T) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..TRIALS {
        let state = setup();
        let (out, seconds) = time(|| trial(state));
        if best.as_ref().is_none_or(|(_, s)| seconds < *s) {
            best = Some((out, seconds));
        }
    }
    best.expect("TRIALS >= 1")
}

/// The median of `samples` (the mean of the middle two of an even count).
///
/// # Panics
///
/// Panics when `samples` is empty.
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

/// Parses a positive count, as `--modules` takes.
pub fn count(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

/// The flags every bench shares.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// `--out FILE`: where the JSON report goes.
    pub out: String,
    /// `--check`: exit non-zero when a gate fails.
    pub check: bool,
}

impl BenchArgs {
    /// Declares the shared `--out FILE` (defaulting to `default_out`) and
    /// `--check` on `args`.
    pub fn declare(args: &mut Args, default_out: &str) -> BenchArgs {
        let out = args.path("--out", "FILE");
        BenchArgs {
            out: out.unwrap_or_else(|| default_out.to_string()),
            check: args.switch("--check"),
        }
    }
}

/// The host a report was measured on.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// Cores available to the process.
    cores: usize,
    /// Effective worker width of the bench's parallel work.
    jobs: usize,
}

impl Host {
    /// This host, running parallel work `jobs` wide.
    pub fn new(jobs: usize) -> Host {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Host { cores, jobs }
    }
}

/// One timed measurement.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// What ran (workload, regime, size).
    pub name: String,
    /// Which part of the system `seconds` covers.
    pub layer: String,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Work counted in the measurement.
    pub counters: CountersSnapshot,
}

/// How a gate's value must compare with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `value >= bound`.
    AtLeast,
    /// `value <= bound`.
    AtMost,
    /// `value < bound`.
    Below,
    /// `value == bound`.
    Equal,
}

impl Cmp {
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::AtLeast => value >= bound,
            Cmp::AtMost => value <= bound,
            Cmp::Below => value < bound,
            Cmp::Equal => value == bound,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Cmp::AtLeast => ">=",
            Cmp::AtMost => "<=",
            Cmp::Below => "<",
            Cmp::Equal => "==",
        }
    }
}

/// One `--check` condition: `value` must compare with `bound` as `cmp`
/// says.
#[derive(Debug, Clone)]
struct Gate {
    name: String,
    value: f64,
    cmp: Cmp,
    bound: f64,
}

impl Gate {
    fn pass(&self) -> bool {
        self.cmp.holds(self.value, self.bound)
    }
}

impl Serialize for Gate {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        sink.begin_object();
        sink.field("name", &self.name);
        sink.field("value", &self.value);
        sink.field("bound", &self.bound);
        sink.field("pass", &self.pass());
        sink.end_object();
    }
}

/// A bench's whole output: rows in the order measured, gates in the order
/// evaluated.
#[derive(Debug, Clone)]
pub struct Report {
    bench: String,
    host: Host,
    rows: Vec<Row>,
    gates: Vec<Gate>,
}

// Not derived: the derive also emits a binary encoder, and `Gate`, whose
// JSON carries the computed `pass`, has none.
impl Serialize for Report {
    fn serialize_to<S: Sink>(&self, sink: &mut S) {
        sink.begin_object();
        sink.field("bench", &self.bench);
        sink.field("host", &self.host);
        sink.field("rows", &self.rows);
        sink.field("gates", &self.gates);
        sink.end_object();
    }
}

impl Report {
    /// An empty report for `bench` on `host`.
    pub fn new(bench: &str, host: Host) -> Report {
        Report { bench: bench.to_string(), host, rows: Vec::new(), gates: Vec::new() }
    }

    /// Adds a row.
    pub fn row(&mut self, name: &str, layer: &str, seconds: f64, counters: Counters) {
        self.rows.push(Row {
            name: name.to_string(),
            layer: layer.to_string(),
            seconds,
            counters: CountersSnapshot(counters),
        });
    }

    /// Adds a gate: `value` must compare with `bound` as `cmp` says.
    pub fn gate(&mut self, name: impl Into<String>, value: f64, cmp: Cmp, bound: f64) {
        self.gates.push(Gate { name: name.into(), value, cmp, bound });
    }

    /// The row `name` at `layer`.
    ///
    /// # Panics
    ///
    /// Panics when there is no such row: gates only read rows the bench
    /// has already added.
    pub fn find(&self, name: &str, layer: &str) -> &Row {
        self.rows
            .iter()
            .find(|r| r.name == name && r.layer == layer)
            .unwrap_or_else(|| panic!("no row {name} at layer {layer}"))
    }

    /// The human-readable summary: one line per row name (its layers'
    /// times side by side), then one line per gate.
    fn summary(&self) -> String {
        let mut out =
            format!("{}: {} cores, jobs {}\n", self.bench, self.host.cores, self.host.jobs);
        for rows in self.rows.chunk_by(|a, b| a.name == b.name) {
            let _ = write!(out, "  {:<28}", rows[0].name);
            for r in rows {
                let _ = write!(out, " {} {:.3}ms", r.layer, r.seconds * 1e3);
            }
            out.push('\n');
        }
        for g in &self.gates {
            let verdict = if g.pass() { "ok" } else { "FAILED" };
            let _ = writeln!(
                out,
                "  gate {}: {} {} {} {verdict}",
                g.name,
                g.value,
                g.cmp.symbol(),
                g.bound
            );
        }
        out
    }

    /// The exit rule: failure exactly when `check` is set and a gate failed.
    fn exit_code(&self, check: bool) -> ExitCode {
        if check && self.gates.iter().any(|g| !g.pass()) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }

    /// Writes the report to `args.out`, prints the summary to stderr, and
    /// returns the exit code: failure when the file cannot be written, or
    /// when `args.check` is set and a gate failed.
    pub fn finish(&self, args: &BenchArgs) -> ExitCode {
        eprint!("{}", self.summary());
        let json = serde_json::to_string_pretty(self).expect("report serialization cannot fail");
        if let Err(e) = std::fs::write(&args.out, json) {
            eprintln!("{}: cannot write {}: {e}", self.bench, args.out);
            return ExitCode::FAILURE;
        }
        let failed = self.gates.iter().filter(|g| !g.pass()).count();
        eprintln!(
            "{}: {} gates, {failed} failed{} -> {}",
            self.bench,
            self.gates.len(),
            if args.check { "" } else { " (not checked)" },
            args.out
        );
        self.exit_code(args.check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::time::Duration;

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_middle_two() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn shared_flags_parse_with_their_default() {
        let declare = |argv: &[&str]| {
            let mut a = Args::new("bench", argv.iter().map(|s| s.to_string()));
            let bench = BenchArgs::declare(&mut a, "BENCH_x.json");
            a.verdict().map(|()| bench)
        };
        let bench = declare(&["--check", "--out", "x.json"]).unwrap();
        assert_eq!((bench.out.as_str(), bench.check), ("x.json", true));
        let bench = declare(&[]).unwrap();
        assert_eq!((bench.out.as_str(), bench.check), ("BENCH_x.json", false));
        let err = declare(&["--out"]).unwrap_err();
        assert!(err.ends_with("usage: bench [--out FILE] [--check]"), "{err}");
        assert_eq!(count("8"), Some(8));
        assert_eq!(count("0"), None);
    }

    #[test]
    fn best_of_times_only_the_trial_and_keeps_the_fastest_output() {
        let (mut setups, mut trials) = (0, 0);
        // Trial 1 is the fastest by far; every setup is slower than any trial.
        let sleeps = [150, 10, 80];
        let ((setup_seen, trial_index), seconds) = best_of(
            || {
                setups += 1;
                std::thread::sleep(Duration::from_millis(200));
                setups
            },
            |setup_seen| {
                std::thread::sleep(Duration::from_millis(sleeps[trials]));
                trials += 1;
                (setup_seen, trials - 1)
            },
        );
        assert_eq!((setups, trials), (TRIALS, TRIALS));
        assert_eq!(trial_index, 1, "kept the fastest trial's output");
        assert_eq!(setup_seen, 2, "each trial ran on its own fresh setup");
        assert!((0.010..0.200).contains(&seconds), "setup was timed: {seconds}");
    }

    fn report_with(pass: bool) -> Report {
        let mut r = Report::new("test", Host::new(1));
        r.row("w/8", "build", 0.5, counters([("hits", 8)]));
        r.row("w/8", "phase1", 0.25, Counters::new());
        r.gate("w/8.hits", 8.0, Cmp::Equal, if pass { 8.0 } else { 9.0 });
        r
    }

    #[test]
    fn a_failing_gate_fails_the_exit_only_under_check() {
        assert_eq!(report_with(false).exit_code(false), ExitCode::SUCCESS);
        assert_eq!(report_with(false).exit_code(true), ExitCode::FAILURE);
        assert_eq!(report_with(true).exit_code(true), ExitCode::SUCCESS);
    }

    #[test]
    fn written_reports_have_exactly_the_four_keys() {
        let out = std::env::temp_dir().join(format!("ipra-harness-{}.json", std::process::id()));
        let bench = BenchArgs { out: out.display().to_string(), check: true };
        assert_eq!(report_with(false).finish(&bench), ExitCode::FAILURE);
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        let keys = |v: &Value| match v {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(keys(&doc), ["bench", "host", "rows", "gates"]);
        assert_eq!(keys(doc.get("host").unwrap()), ["cores", "jobs"]);
        let Some(Value::Array(rows)) = doc.get("rows") else { panic!("rows") };
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(keys(row), ["name", "layer", "seconds", "counters"]);
        }
        let Some(Value::Array(gates)) = doc.get("gates") else { panic!("gates") };
        assert_eq!(keys(&gates[0]), ["name", "value", "bound", "pass"]);
        assert_eq!(gates[0].get("pass"), Some(&Value::Bool(false)));
    }

    #[test]
    fn differing_counts_changed_and_one_sided_keys() {
        let a = counters([("x", 1), ("y", 2)]);
        assert_eq!(differing(&a, &a.clone()), 0);
        assert_eq!(differing(&a, &counters([("x", 1), ("y", 3), ("z", 0)])), 2);
    }
}
