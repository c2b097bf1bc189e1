//! What every workload shares: the metric spec, the run budget, failure
//! accounting, metric collection and the traced-op bookkeeping.

use crate::host::{HostClock, Interval};
use crate::stats::{self, Summary};
use crate::trace::Recorder;
use serde::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The metric spec, embedded from `BENCHMARK.json` so names, units and
/// bounds have one source.
const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<MetricSpec>,
    /// Measurement window of one run, in seconds.
    pub run_seconds: f64,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("BENCHMARK.json: `{key}` is a {}", other.kind())),
    }
}

fn items<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(v, key)? {
        Value::Array(a) => Ok(a),
        other => Err(format!("BENCHMARK.json: `{key}` is a {}", other.kind())),
    }
}

/// Reads a JSON number of any representation.
pub(crate) fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::Int(x) => Some(*x as f64),
        Value::UInt(x) => Some(*x as f64),
        _ => None,
    }
}

impl Spec {
    /// The embedded spec.
    ///
    /// # Panics
    ///
    /// Panics when the embedded `BENCHMARK.json` is malformed — a build
    /// defect, not an input error.
    pub fn load() -> Spec {
        Spec::parse(SPEC_JSON).expect("embedded BENCHMARK.json is well-formed")
    }

    fn parse(json: &str) -> Result<Spec, String> {
        let v: Value = serde_json::from_str(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            items(&v, key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        lower_is_better: text(m, "better")? == "lower",
                        bound: m.get("bound").and_then(number),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: items(&v, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: field(&v, "run_seconds").ok().and_then(number).unwrap_or(20.0),
        })
    }

    /// The metrics a run reports: per-layer when traced, else end-to-end.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    pub fn find(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

/// How long and how hard one run goes.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (one of `BENCHMARK.json`'s).
    pub workload: String,
    /// Seed all inputs are drawn from.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Run the traced (per-layer) variant.
    pub trace: bool,
    /// Ops the run makes even after its window has closed (the latency
    /// tail needs samples beyond it), within a hard time limit.
    pub min_ops: usize,
    /// Scratch directory for disk caches and the daemon socket; relative
    /// paths keep the socket path short.
    pub work_dir: PathBuf,
}

impl RunConfig {
    /// A run of `workload` in `.bench_work/<workload>-<pid>`.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            min_ops: if trace { 1 } else { MIN_OPS },
            work_dir: PathBuf::from(".bench_work")
                .join(format!("{workload}-{}", std::process::id())),
        }
    }
}

/// An untraced run keeps going past its window until the latency tail has
/// enough samples beyond it (p90 needs 100), up to this hard limit.
const MIN_OPS: usize = 100;
const HARD_LIMIT: f64 = 120.0;
/// An op slower than this counts as failed (a hung build, not a slow one).
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// A run's clock: decides when the op loop stops, and samples the host's
/// speed between ops ([`HostClock`]).
#[derive(Debug)]
pub(crate) struct Budget {
    /// The run's clock, set-up included, and its host-speed samples.
    pub host: HostClock,
    start: f64,
    window: f64,
    min_ops: usize,
}

impl Budget {
    /// A clock for `cfg`'s run; the window opens with [`Budget::open`].
    pub fn new(cfg: &RunConfig) -> Budget {
        Budget {
            host: HostClock::new(!cfg.trace),
            start: 0.0,
            window: cfg.seconds,
            min_ops: cfg.min_ops,
        }
    }

    /// Runs a workload's set-up [`SETUPS`] times (once when traced) and
    /// keeps the last result. Each earlier result is dropped, untimed,
    /// before the next set-up starts.
    pub fn setup<S>(
        &self,
        cfg: &RunConfig,
        mut f: impl FnMut() -> Result<S, String>,
    ) -> Result<(S, Vec<Interval>), String> {
        let times = if cfg.trace { 1 } else { SETUPS };
        let mut intervals = Vec::new();
        let mut last = None;
        for _ in 0..times {
            drop(last.take());
            self.host.sample();
            let (s, iv) = self.host.time(&mut f)?;
            intervals.push(iv);
            last = Some(s);
        }
        Ok((last.expect("at least one set-up"), intervals))
    }

    /// Opens the measurement window.
    pub fn open(&mut self) {
        self.host.sample();
        self.start = self.host.now();
    }

    /// Should op number `done` (0-based) run? Samples the host first.
    pub fn more(&self, done: usize) -> bool {
        self.host.sample();
        let t = self.elapsed();
        t < self.window || (done < self.min_ops && t < HARD_LIMIT)
    }

    /// Seconds since the window opened.
    pub fn elapsed(&self) -> f64 {
        self.host.now() - self.start
    }

    /// The window so far, as an interval.
    pub fn window(&self) -> Interval {
        Interval { start: self.start, secs: self.elapsed() }
    }
}

/// Op accounting: every op is attempted once and either passes its
/// check or fails (check mismatch, error, trap, panic or timeout).
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: usize,
    /// Ops failed.
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one op with its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Marks an already-counted op as failed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }
}

/// Runs `f`, turning a panic into an error so one bad op cannot end the run.
pub(crate) fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panic: {msg}"))
        }
    }
}

/// Times `f`, failing it if it overran [`OP_TIMEOUT`].
pub(crate) fn timed<R>(f: impl FnOnce() -> Result<R, String>) -> Result<(R, f64), String> {
    let t = Instant::now();
    let r = guarded(f)?;
    let secs = t.elapsed().as_secs_f64();
    if t.elapsed() > OP_TIMEOUT {
        return Err(format!("timeout: op took {secs:.1}s"));
    }
    Ok((r, secs))
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Peak resident set of this process so far, in MiB (Linux `VmHWM`).
pub(crate) fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: BTreeMap<String, Summary>,
    /// Workload-specific figures outside `BENCHMARK.json` (e.g. the daemon's
    /// per-class latencies), reported in the results file only.
    pub extra: BTreeMap<String, Summary>,
    /// Tail metrics withheld for lack of samples beyond them.
    pub refused: Vec<String>,
    /// The traced run's spans.
    pub trace: Option<Recorder>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, s: Summary) {
        self.metrics.insert(name.to_string(), s);
    }

    /// Sets a metric measured once.
    pub fn single(&mut self, name: &str, v: f64) {
        self.set(name, Summary::single(v));
    }

    /// Sets a metric to the median of `samples` (0 when there are none:
    /// the layer did no work on this workload).
    pub fn median(&mut self, name: &str, samples: &[f64]) {
        self.set(name, Summary::of(samples).unwrap_or(Summary::single(0.0)));
    }

    /// Sets the end-to-end latency metrics and throughput from per-op
    /// latencies: p50, p90 (withheld, with a note in `refused`, when fewer
    /// than [`stats::TAIL_BEYOND`] samples lie beyond it) and ops per
    /// second of busy time. When the run has enough ops for a higher tail
    /// (p99 from 1000), that tail goes to [`Outcome::extra`] too.
    pub fn latencies(&mut self, lat: &[f64]) {
        self.median("latency_s.p50", lat);
        let tail = |permille| {
            let v = stats::tail(lat, permille)?;
            Some(Summary { value: v, q1: v, q3: v, n: lat.len() })
        };
        match tail(900) {
            Some(p90) => self.set("latency_s.p90", p90),
            None => self.refused.push("latency_s.p90".to_string()),
        }
        if let Some((permille, label)) = stats::highest_tail(lat.len()).filter(|t| t.0 > 900) {
            self.extra.insert(format!("latency_s.{label}"), tail(permille).expect("tail exists"));
        }
        let busy: f64 = lat.iter().sum();
        self.single("throughput_ops", if busy > 0.0 { lat.len() as f64 / busy } else { 0.0 });
    }

    /// Checks the metric set against the spec: every declared metric
    /// present, nothing undeclared.
    pub fn check_complete(&self, spec: &Spec, traced: bool) -> Result<(), String> {
        let declared: Vec<&str> = spec.metrics(traced).iter().map(|m| m.name.as_str()).collect();
        let missing: Vec<&str> =
            declared.iter().copied().filter(|n| !self.metrics.contains_key(*n)).collect();
        let extra: Vec<&str> =
            self.metrics.keys().map(String::as_str).filter(|n| !declared.contains(n)).collect();
        if missing.is_empty() && extra.is_empty() {
            Ok(())
        } else {
            Err(format!("metric set mismatch: missing {missing:?}, undeclared {extra:?}"))
        }
    }
}

/// Per-op layer figures of a traced run: each op is replayed under a root
/// span `op`; spans outside the root (verification runs, probes) carry the
/// same op id.
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    /// Every span of the run.
    pub rec: Recorder,
    samples: BTreeMap<&'static str, Vec<f64>>,
    ratios: BTreeMap<&'static str, (f64, f64)>,
    op_wall: Vec<f64>,
    untraced: Vec<f64>,
    from: usize,
}

/// Span name → per-layer metric fed by the span's self time.
const SELF_TIME: [(&str, &str); 18] = [
    ("frontend.parse", "frontend.parse_s"),
    ("frontend.check", "frontend.check_s"),
    ("ir.lower", "ir.lower_s"),
    ("ir.optimize", "ir.optimize_s"),
    ("summary.summarize", "summary.summarize_s"),
    ("alias.solve", "alias.solve_s"),
    ("core.callgraph", "core.callgraph_s"),
    ("core.eligibility", "core.eligibility_s"),
    ("core.refsets", "core.refsets_s"),
    ("core.webs", "core.webs_s"),
    ("core.prioritize", "core.prioritize_s"),
    ("core.color", "core.color_s"),
    ("core.clusters", "core.clusters_s"),
    ("core.regsets", "core.regsets_s"),
    ("link", "link.s"),
    ("sim.decode", "sim.decode_s"),
    ("sim.run", "sim.run_s"),
    ("sim.attr_run", "sim.attr_run_s"),
];

/// Spans of the runs that follow a build inside an op; everything else
/// under the op root is build work.
const POST_BUILD: [&str; 3] = ["sim.decode", "sim.run", "sim.attr_run"];

impl Tracer {
    /// Starts op `id`; spans recorded until [`Tracer::end_op`] belong to it.
    pub fn begin_op(&mut self, id: u64) {
        self.rec.set_op(id);
        self.from = self.rec.spans.len();
    }

    /// Records the replay of the current op under the root span.
    pub fn replay<R>(&mut self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.rec.span("op", f)
    }

    /// Adds a per-op sample to a per-layer metric.
    pub fn sample(&mut self, metric: &'static str, v: f64) {
        self.samples.entry(metric).or_default().push(v);
    }

    /// Adds to a ratio metric reported as Σ numerator / Σ denominator.
    pub fn ratio(&mut self, metric: &'static str, num: f64, den: f64) {
        let e = self.ratios.entry(metric).or_default();
        e.0 += num;
        e.1 += den;
    }

    /// Closes the current op. `untraced_s` is the same op run the ordinary
    /// way (at the traced run's width), `build_s` the `ipra_driver` build inside
    /// it; `cycles` the simulated cycles of the op's plain run.
    pub fn end_op(&mut self, untraced_s: f64, build_s: f64, cycles: Option<u64>) {
        let from = self.from;
        let totals = self.rec.totals_since(from);
        let root = self.rec.spans[from..].iter().position(|s| s.name == "op").map(|i| i + from);
        if let Some(root) = root {
            let wall = self.rec.spans[root].dur();
            let covered = self.rec.children_time(root);
            let post: f64 = self.rec.spans[root + 1..]
                .iter()
                .filter(|s| s.parent == Some(root) && POST_BUILD.contains(&s.name))
                .map(|s| s.dur())
                .sum();
            self.op_wall.push(wall);
            self.untraced.push(untraced_s);
            self.sample("trace.coverage", if wall > 0.0 { covered / wall } else { 0.0 });
            self.sample("driver.build_s", build_s);
            self.sample("driver.cache_s", build_s - (covered - post));
        }
        for (span, metric) in SELF_TIME {
            if let Some(&(_, self_time)) = totals.get(span) {
                self.sample(metric, self_time);
            }
        }
        let dur = |name: &str| totals.get(name).map(|t| t.0);
        if let Some(d) = dur("core.analyze") {
            // The steps are `core.steps`' children: its time less its own.
            let steps = totals.get("core.steps").map_or(0.0, |&(all, own)| all - own);
            self.sample("core.analyze_s", d);
            self.sample("core.rest_s", d - steps);
        }
        let modules = self.rec.spans[from..].iter().filter(|s| s.name == "codegen.module").count();
        if let Some(d) = dur("codegen.module") {
            self.sample("codegen.module_s", d / modules as f64);
        }
        if let (Some(d), Some(r)) = (dur("sim.decode"), dur("sim.run")) {
            if let Some(a) = dur("sim.attr_run") {
                self.sample("sim.attr_overhead", a / (d + r) - 1.0);
            }
            if let Some(c) = cycles {
                self.sample("sim.mips", c as f64 / r / 1e6);
            }
        }
        if let Some(c) = cycles {
            self.sample("sim.cycles", c as f64);
        }
    }

    /// Records the replay's work counts for the current op.
    pub fn counts(&mut self, c: &crate::replay::Counts, parse_check_s: f64) {
        if c.src_bytes > 0 && parse_check_s > 0.0 {
            self.sample("frontend.src_mb_s", c.src_bytes as f64 / 1e6 / parse_check_s);
        }
        self.sample("ir.insts", c.ir_insts as f64);
        let a = &c.analyzer;
        self.sample("core.nodes", a.nodes as f64);
        self.sample("core.edges", a.edges as f64);
        self.sample("core.eligible_globals", a.eligible_globals as f64);
        self.sample("core.webs", a.webs_total as f64);
        self.sample("core.webs_colored", a.webs_colored as f64);
        self.sample("core.clusters", a.clusters as f64);
        self.sample("codegen.modules", c.codegen_modules as f64);
        self.sample("codegen.insts", c.codegen_insts as f64);
        self.sample("link.insts", c.link_insts as f64);
    }

    /// Parse + check self time of the current op so far.
    pub fn frontend_time(&self) -> f64 {
        let t = self.rec.totals_since(self.from);
        ["frontend.parse", "frontend.check"].iter().filter_map(|n| t.get(n)).map(|x| x.1).sum()
    }

    /// Writes every per-layer metric into `out`: medians over ops, ratios
    /// as Σ/Σ, and 0 for a layer this workload never reached.
    pub fn finish(mut self, spec: &Spec, out: &mut Outcome) {
        let (wall, untraced) = (stats::median(&self.op_wall), stats::median(&self.untraced));
        if let (Some(w), Some(u)) = (wall, untraced) {
            self.sample("trace.overhead", w / u - 1.0);
        }
        for m in &spec.per_layer {
            if out.metrics.contains_key(&m.name) {
                continue;
            }
            let s = match (self.samples.get(m.name.as_str()), self.ratios.get(m.name.as_str())) {
                (Some(v), _) => Summary::of(v),
                (None, Some(&(num, den))) => {
                    Some(Summary::single(if den > 0.0 { num / den } else { 0.0 }))
                }
                (None, None) => None,
            };
            out.set(&m.name, s.unwrap_or(Summary::single(0.0)));
        }
        out.trace = Some(self.rec);
    }
}
