//! Result rendering: the one-line result the run prints last, the detail
//! file a run writes, the suite's results file, and `--compare`.

use crate::harness::{number, Outcome, Spec};
use crate::stats::{median, spread, Summary};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(x: f64) -> Value {
    // JSON has no NaN or infinity; a metric that is not finite reads as 0.
    Value::Float(if x.is_finite() { x } else { 0.0 })
}

fn summary_value(s: &Summary, unit: &str) -> Value {
    obj(vec![
        ("value", num(s.value)),
        ("unit", Value::Str(unit.to_string())),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("n", Value::UInt(s.n as u64)),
    ])
}

fn unit_of<'a>(spec: &'a Spec, name: &str) -> &'a str {
    spec.find(name).map_or("", |m| m.unit.as_str())
}

/// The result line: `correct`, `attempted`, `failed`, and each metric's
/// value and unit.
pub fn result_line(out: &Outcome, spec: &Spec) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|(name, s)| {
            let unit = Value::Str(unit_of(spec, name).to_string());
            (name.clone(), obj(vec![("value", num(s.value)), ("unit", unit)]))
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(out.tally.failed == 0)),
        ("attempted", Value::UInt(out.tally.attempted as u64)),
        ("failed", Value::UInt(out.tally.failed as u64)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serialization cannot fail")
}

/// Human-readable lines: one per metric, with its spread and sample count.
pub fn metric_lines(workload: &str, out: &Outcome, spec: &Spec) -> String {
    let mut s = String::new();
    for (name, m) in out.metrics.iter().chain(&out.extra) {
        let _ = writeln!(
            s,
            "{workload:<12} {name:<26} {:>14.6} {:<9} q1 {:.6} q3 {:.6} n {}",
            m.value,
            unit_of(spec, name),
            m.q1,
            m.q3,
            m.n
        );
    }
    for name in &out.refused {
        let _ = writeln!(s, "{workload:<12} {name:<26} withheld: fewer than 10 samples beyond it");
    }
    for f in &out.tally.failures {
        let _ = writeln!(s, "{workload:<12} FAILED: {f}");
    }
    s
}

/// The detail a run writes with `--out`: every metric with its quartiles
/// and sample count, the workload-specific extras and failure messages.
pub fn detail(workload: &str, seed: u64, traced: bool, out: &Outcome, spec: &Spec) -> Value {
    let map = |m: &BTreeMap<String, Summary>| {
        Value::Object(
            m.iter().map(|(k, s)| (k.clone(), summary_value(s, unit_of(spec, k)))).collect(),
        )
    };
    obj(vec![
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::UInt(seed)),
        ("traced", Value::Bool(traced)),
        ("attempted", Value::UInt(out.tally.attempted as u64)),
        ("failed", Value::UInt(out.tally.failed as u64)),
        ("failures", Value::Array(out.tally.failures.iter().cloned().map(Value::Str).collect())),
        ("metrics", map(&out.metrics)),
        ("extra", map(&out.extra)),
        ("refused", Value::Array(out.refused.iter().cloned().map(Value::Str).collect())),
    ])
}

/// Aggregates one workload's untraced runs: for each end-to-end metric,
/// the median, quartiles and count of its per-run values (plus the values).
pub fn across_runs(runs: &[Value], spec: &Spec) -> Value {
    let fields = spec
        .end_to_end
        .iter()
        .filter_map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(&m.name)?.get("value").and_then(number))
                .collect();
            let s = Summary::of(&values)?;
            Some((
                m.name.clone(),
                obj(vec![
                    ("unit", Value::Str(m.unit.clone())),
                    ("median", num(s.value)),
                    ("q1", num(s.q1)),
                    ("q3", num(s.q3)),
                    ("n", Value::UInt(s.n as u64)),
                    ("values", Value::Array(values.into_iter().map(num).collect())),
                ]),
            ))
        })
        .collect();
    Value::Object(fields)
}

/// The verdict on one metric of one workload between two results files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the metric's bound, and either by more than the
    /// run-to-run spread or with every new run better than every base run.
    Improved,
    /// Worse by more than the metric's bound.
    Regressed,
    /// Within the bound.
    WithinBound,
    /// The run-to-run spread is wider than the bound, and neither side's
    /// runs all beat the other's.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for the compare table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` (per-run values of one metric). `worse` is
/// the relative change oriented so positive means worse; the spread is the
/// wider side's interquartile range over its median. A gain smaller than
/// the bound is never called one: two runs of one commit differ by that
/// much.
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (mb, mn) = (median(base).unwrap_or(0.0), median(new).unwrap_or(0.0));
    let width = spread(base).max(spread(new));
    let change = if mb == 0.0 { 0.0 } else { (mn - mb) / mb.abs() };
    let worse = if lower_is_better { change } else { -change };
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let dominates = |x: &[f64], y: &[f64]| x.iter().all(|&a| y.iter().all(|&b| better(a, b)));
    let v = if width > bound && !dominates(new, base) && !dominates(base, new) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound && (-worse > width || dominates(new, base)) {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    (change, v)
}

/// Per-run values of `metric` for `workload` in a results file.
fn run_values(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let Some(Value::Array(values)) = results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
    else {
        return Vec::new();
    };
    values.iter().filter_map(number).collect()
}

/// The compare table: one row per workload × end-to-end metric. Returns
/// the table and whether any metric regressed.
pub fn compare(base: &Value, new: &Value, spec: &Spec) -> (String, bool) {
    let mut s = String::new();
    let mut regressed = false;
    let _ = writeln!(
        s,
        "{:<12} {:<18} {:>13} {:>7} {:>13} {:>7} {:>8}  verdict (bound)",
        "workload", "metric", "base median", "IQR%", "new median", "IQR%", "delta%"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (b, n) = (run_values(base, w, &m.name), run_values(new, w, &m.name));
            if b.is_empty() || n.is_empty() {
                let _ = writeln!(s, "{w:<12} {:<18} (missing from one side)", m.name);
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let (change, v) = verdict(&b, &n, m.lower_is_better, bound);
            regressed |= v == Verdict::Regressed;
            let _ = writeln!(
                s,
                "{w:<12} {:<18} {:>13.6} {:>7.2} {:>13.6} {:>7.2} {:>+8.2}  {} ({:.0}%)",
                m.name,
                median(&b).unwrap_or(0.0),
                100.0 * spread(&b),
                median(&n).unwrap_or(0.0),
                100.0 * spread(&n),
                100.0 * change,
                v.label(),
                100.0 * bound
            );
        }
    }
    (s, regressed)
}
