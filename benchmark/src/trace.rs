//! In-memory span recording for the traced run.
//!
//! The benchmark records spans itself, around its calls into each layer's
//! public functions; nothing inside the toolchain is instrumented. Spans
//! nest on one thread (the traced run is single-threaded), so a parent is
//! simply the innermost open span. A layer's *self* time is its span's
//! duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `frontend.parse` or `core.webs`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in [`Recorder::spans`], if any.
    pub parent: Option<usize>,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created (equal to `start` while open).
    pub end: f64,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans in memory; written out once, when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Tags subsequent spans with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let start = self.epoch.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Per-name totals over the spans recorded since index `from`: the sum
    /// of durations and the sum of self times.
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_time = vec![0.0; self.spans.len() - from];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child_time[p - from] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans[from..].iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur();
            e.1 += s.dur() - child_time[i];
        }
        out
    }

    /// Sum of the durations of the direct children of span `id`.
    pub fn children_time(&self, id: usize) -> f64 {
        self.spans[id + 1..].iter().filter(|s| s.parent == Some(id)).map(Span::dur).sum()
    }

    /// The spans as Chrome trace events, one complete (`X`) event of JSON
    /// per string, times in microseconds. `pid` tells merged runs apart;
    /// each event's `args` carry its op id and parent index. (Span names
    /// are plain identifiers, so they need no escaping.)
    pub fn chrome_events(&self, pid: usize) -> Vec<String> {
        self.spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\
                     \"tid\":0,\"args\":{{\"op\":{},\"parent\":{parent}}}}}",
                    s.name,
                    s.start * 1e6,
                    s.dur() * 1e6,
                    s.op
                )
            })
            .collect()
    }
}

/// A Chrome trace-event document (loadable in Perfetto) holding `events`
/// one per line, so that traces merge by concatenating the lines
/// [`event_lines`] reads back — no multi-megabyte JSON parse.
pub fn chrome_trace(events: &[String]) -> String {
    format!("{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n", events.join(",\n"))
}

/// The event lines of a document written by [`chrome_trace`].
pub fn event_lines(doc: &str) -> Vec<String> {
    doc.lines()
        .filter(|l| l.starts_with("{\"name\""))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}
