//! Pipeline-wide telemetry for the IPRA toolchain.
//!
//! Two strictly separated kinds of data share one collector:
//!
//! * **Spans** — hierarchical wall-clock intervals (build → per-module
//!   phase-1/phase-2 tasks, analyze, link, cache I/O, artifact staging,
//!   simulator runs), each tagged with the *lane* (worker-thread slot) that
//!   ran it so `-j` utilization is visible. Spans export as Chrome
//!   trace-event JSON ([`Telemetry::chrome_trace_json`]) loadable in
//!   Perfetto or `about://tracing`.
//! * **Counters** — a registry of monotonically added `u64`s
//!   (instructions retired per opcode class, cache hits/misses per tier,
//!   bytes (de)serialized, fuzz iterations, …). Counters never contain
//!   wall-clock data, are keyed in a [`BTreeMap`], and are only ever
//!   *added to*, so the exported metrics JSON
//!   ([`Telemetry::metrics_json`]) is **byte-deterministic**: identical
//!   across `--jobs` widths, across runs, and across simulator engines.
//!
//! The collector is a cheap [`Clone`] handle (an `Arc` over interior
//! state); every pipeline layer takes an `Option<&Telemetry>` (or a stored
//! `Option<Telemetry>`) and does nothing when telemetry is off. The
//! [`SpanTimer`] returned by [`span`] measures elapsed seconds even with
//! telemetry off, so callers can derive report timings and trace spans
//! from one mechanism.
//!
//! # Span pairing
//!
//! A `B` (begin) event is recorded when a span starts and the matching `E`
//! (end) event when its [`SpanTimer`] is finished or dropped — so every
//! `B` in an exported trace has an `E` by construction, including on early
//! returns and error paths.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// The current thread's lane id: 0 for the main thread, `w + 1` for
    /// worker slot `w` of a parallel stage. Exported as the Chrome-trace
    /// `tid` so per-module tasks visibly spread across workers.
    static LANE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Tags the current thread with a lane id for subsequent span events.
/// Worker pools call this once per worker thread; the main thread is
/// lane 0 by default.
pub fn set_lane(lane: u64) {
    LANE.with(|l| l.set(lane));
}

/// The current thread's lane id (see [`set_lane`]).
pub fn current_lane() -> u64 {
    LANE.with(std::cell::Cell::get)
}

/// One recorded trace event: a begin or end marker for a span.
#[derive(Debug, Clone)]
struct SpanEvent {
    /// Span name (e.g. `"phase1"`, `"phase1:mod_a"`).
    name: String,
    /// Category (e.g. `"build"`, `"cache"`, `"sim"`).
    cat: String,
    /// `'B'` or `'E'`.
    ph: char,
    /// Microseconds since the collector's epoch.
    ts_us: u64,
    /// Lane (worker slot) that recorded the event; Chrome-trace `tid`.
    lane: u64,
}

#[derive(Debug, Default)]
struct State {
    events: Vec<SpanEvent>,
    counters: BTreeMap<String, u64>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// The telemetry collector: a cheap-to-clone handle shared by every layer
/// of one build/run. See the module docs for the span/counter split.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh collector whose span timestamps start at zero now.
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner { epoch: Instant::now(), state: Mutex::new(State::default()) }),
        }
    }

    fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    fn record(&self, name: &str, cat: &str, ph: char, ts_us: u64) {
        let ev = SpanEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph,
            ts_us,
            lane: current_lane(),
        };
        self.inner.state.lock().unwrap().events.push(ev);
    }

    /// Starts a span on this collector. Prefer the free [`span`] helper,
    /// which also covers the telemetry-off case.
    pub fn span(&self, cat: &str, name: &str) -> SpanTimer {
        span(Some(self), cat, name)
    }

    /// Adds `n` to the counter `key` (creating it at zero). Counters are
    /// additive and unordered, so concurrent increments from any number of
    /// workers produce identical totals.
    pub fn add(&self, key: &str, n: u64) {
        let mut st = self.inner.state.lock().unwrap();
        *st.counters.entry(key.to_string()).or_insert(0) += n;
    }

    /// Adds 1 to the counter `key`.
    pub fn incr(&self, key: &str) {
        self.add(key, 1);
    }

    /// The current counter values, sorted by key.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.state.lock().unwrap().counters.clone()
    }

    /// The value of one counter (zero if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.inner.state.lock().unwrap().counters.get(key).copied().unwrap_or(0)
    }

    /// Number of span events recorded so far (each span contributes a
    /// begin and an end event).
    pub fn event_count(&self) -> usize {
        self.inner.state.lock().unwrap().events.len()
    }

    /// How many spans named `name` have ended, and their summed length in
    /// microseconds: how an owner reads back spans it does not export
    /// (`cmind` files a build's `shard_wait` spans as counters).
    pub fn span_totals(&self, name: &str) -> (u64, u64) {
        let st = self.inner.state.lock().unwrap();
        // The begin timestamps of the spans still open, with their lanes.
        let mut open: Vec<(u64, u64)> = Vec::new();
        let (mut count, mut micros) = (0, 0);
        for e in st.events.iter().filter(|e| e.name == name) {
            if e.ph == 'B' {
                open.push((e.lane, e.ts_us));
            } else if let Some(at) = open.iter().rposition(|&(lane, _)| lane == e.lane) {
                count += 1;
                micros += e.ts_us - open.remove(at).1;
            }
        }
        (count, micros)
    }

    /// Exports all recorded spans as Chrome trace-event JSON (the
    /// "JSON object format": `{"traceEvents": [...]}`), loadable in
    /// Perfetto or `about://tracing`. `pid` is always 1; `tid` is the
    /// recording lane.
    pub fn chrome_trace_json(&self) -> String {
        let st = self.inner.state.lock().unwrap();
        let events: Vec<Value> = st
            .events
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(e.name.clone())),
                    ("cat".to_string(), Value::Str(e.cat.clone())),
                    ("ph".to_string(), Value::Str(e.ph.to_string())),
                    ("ts".to_string(), Value::UInt(e.ts_us)),
                    ("pid".to_string(), Value::Int(1)),
                    ("tid".to_string(), Value::UInt(e.lane)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ]);
        serde_json::to_string_pretty(&doc).expect("trace serialization cannot fail")
    }

    /// Exports the counters registry as canonical, byte-deterministic
    /// JSON: keys sorted, values plain integers, **no wall-clock data**.
    /// Two runs doing the same work produce identical bytes regardless of
    /// `--jobs` width, machine speed, or simulator engine.
    pub fn metrics_json(&self) -> String {
        metrics_json_from(&self.counters())
    }
}

/// A counters snapshot as a JSON object value with sorted keys (the
/// workspace's generic `BTreeMap` serialization is an array of pairs to
/// admit non-string keys; metrics want a plain object).
pub fn counters_value(counters: &BTreeMap<String, u64>) -> Value {
    Value::Object(counters.iter().map(|(k, &v)| (k.clone(), Value::UInt(v))).collect())
}

/// A counters snapshot embeddable in derived-`Serialize` report structs:
/// serializes as a sorted JSON *object* (like [`counters_value`]) rather
/// than the generic map encoding, and compares by value so reports can
/// assert run-to-run counter identity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountersSnapshot(pub BTreeMap<String, u64>);

impl serde::Serialize for CountersSnapshot {
    fn serialize_to<S: serde::Sink>(&self, sink: &mut S) {
        serde::Serialize::serialize_to(&counters_value(&self.0), sink);
    }
}

impl serde::BinSerialize for CountersSnapshot {
    fn bin_serialize(&self, out: &mut Vec<u8>) {
        serde::BinSerialize::bin_serialize(&self.0, out);
    }
}

/// Renders a counters snapshot in the same canonical schema as
/// [`Telemetry::metrics_json`] (`schema` field + sorted `counters` map).
pub fn metrics_json_from(counters: &BTreeMap<String, u64>) -> String {
    let doc = Value::Object(vec![
        ("schema".to_string(), Value::Str("ipra-metrics-v1".to_string())),
        ("counters".to_string(), counters_value(counters)),
    ]);
    let mut s = serde_json::to_string_pretty(&doc).expect("metrics serialization cannot fail");
    s.push('\n');
    s
}

/// Starts a span that works with telemetry on *or* off.
///
/// Always measures elapsed wall-clock time ([`SpanTimer::finish`] returns
/// seconds), and additionally records `B`/`E` trace events when `tele` is
/// `Some`. This is the one timing mechanism for the pipeline: report
/// timings and exported traces can never disagree.
pub fn span(tele: Option<&Telemetry>, cat: &str, name: &str) -> SpanTimer {
    let rec = tele.map(|t| {
        t.record(name, cat, 'B', t.now_us());
        (t.clone(), name.to_string(), cat.to_string())
    });
    SpanTimer { start: Instant::now(), rec, done: false }
}

/// A running span: measures elapsed seconds, and (when attached to a
/// collector) guarantees the span's `E` event is recorded exactly once —
/// on [`finish`](SpanTimer::finish), or on drop for early exits.
#[derive(Debug)]
pub struct SpanTimer {
    start: Instant,
    rec: Option<(Telemetry, String, String)>,
    done: bool,
}

impl SpanTimer {
    fn record_end(&mut self) {
        self.done = true;
        if let Some((t, name, cat)) = self.rec.take() {
            t.record(&name, &cat, 'E', t.now_us());
        }
    }

    /// Ends the span and returns its elapsed wall-clock seconds.
    pub fn finish(mut self) -> f64 {
        self.record_end();
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if !self.done {
            self.record_end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_pair_begin_and_end() {
        let t = Telemetry::new();
        {
            let _outer = t.span("build", "total");
            let inner = t.span("build", "phase1");
            let secs = inner.finish();
            assert!(secs >= 0.0);
        } // _outer ends via Drop
        assert_eq!(t.event_count(), 4);
        let json = t.chrome_trace_json();
        assert_eq!(json.matches("\"B\"").count(), 2);
        assert_eq!(json.matches("\"E\"").count(), 2);
    }

    #[test]
    fn span_totals_count_and_sum_the_ended_spans_of_one_name() {
        let t = Telemetry::new();
        assert_eq!(t.span_totals("wait"), (0, 0));
        let outer = t.span("cache", "wait");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = t.span("cache", "wait");
        let other = t.span("cache", "other");
        std::thread::sleep(std::time::Duration::from_millis(2));
        other.finish();
        inner.finish();
        outer.finish();
        let open = t.span("cache", "wait");
        let (count, micros) = t.span_totals("wait");
        assert_eq!(count, 2, "the open span is not counted");
        assert!(micros >= 6_000, "outer ≥ 4 ms, inner ≥ 2 ms: {micros}");
        drop(open);
        assert_eq!(t.span_totals("wait").0, 3);
    }

    #[test]
    fn span_timer_works_without_collector() {
        let timer = span(None, "build", "phase1");
        assert!(timer.finish() >= 0.0);
    }

    #[test]
    fn counters_are_sorted_and_deterministic() {
        let t = Telemetry::new();
        t.add("z.last", 2);
        t.incr("a.first");
        t.add("m.mid", 40);
        t.add("a.first", 1);
        let u = Telemetry::new();
        u.add("m.mid", 40);
        u.add("a.first", 2);
        u.add("z.last", 2);
        assert_eq!(t.metrics_json(), u.metrics_json());
        let json = t.metrics_json();
        let a = json.find("a.first").unwrap();
        let m = json.find("m.mid").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < m && m < z);
    }

    #[test]
    fn metrics_json_never_contains_wall_clock() {
        let t = Telemetry::new();
        let s = t.span("build", "total");
        t.add("sim.cycles", 123);
        drop(s);
        let json = t.metrics_json();
        assert!(!json.contains("seconds"));
        assert!(!json.contains("ts"));
        assert!(json.contains("sim.cycles"));
    }

    #[test]
    fn lanes_tag_trace_events() {
        let t = Telemetry::new();
        let t2 = t.clone();
        std::thread::spawn(move || {
            set_lane(3);
            let _s = t2.span("build", "worker-task");
        })
        .join()
        .unwrap();
        let json = t.chrome_trace_json();
        assert!(json.contains("\"tid\": 3"));
    }

    #[test]
    fn counters_merge_across_threads() {
        let t = Telemetry::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        t.incr("work.items");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.counter("work.items"), 400);
    }
}
