//! The benchmark's own spans around calls into each layer (traced run).
//!
//! A traced request records a root `request` span, the real engine call as
//! `engine.*`, and a `replay` span whose children are the same request's
//! steps re-run through each layer's public functions. Spans stay in memory
//! and are written as Chrome `trace_event` JSON when the run ends.

use hdmm_obs::trace::dur_ns;
use hdmm_obs::Span;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Span id of each request's root span.
pub const ROOT: u64 = 1;

/// All spans and per-layer samples of one workload's traced run.
pub struct SpanLog {
    epoch: Instant,
    inner: Mutex<LogInner>,
}

#[derive(Default)]
struct LogInner {
    spans: Vec<Span>,
    samples: BTreeMap<String, Vec<f64>>,
    next_trace: u64,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            inner: Mutex::new(LogInner::default()),
        }
    }

    /// Starts recording one request (or setup step) as its own trace.
    pub fn request(&self) -> RequestTrace<'_> {
        let trace_id = {
            let mut inner = self.inner.lock().expect("span log poisoned");
            inner.next_trace += 1;
            inner.next_trace
        };
        RequestTrace {
            log: self,
            trace_id,
            started: Instant::now(),
            next_id: ROOT,
            spans: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Every sample recorded under `metric`.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        let inner = self.inner.lock().expect("span log poisoned");
        inner.samples.get(metric).cloned().unwrap_or_default()
    }

    /// Every recorded span, by trace then start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.inner.lock().expect("span log poisoned").spans.clone();
        spans.sort_by_key(|s| (s.trace_id, s.start_ns, s.span_id));
        spans
    }
}

/// The spans of one request, flushed to the [`SpanLog`] by
/// [`RequestTrace::finish`].
pub struct RequestTrace<'a> {
    log: &'a SpanLog,
    trace_id: u64,
    started: Instant,
    next_id: u64,
    spans: Vec<Span>,
    samples: Vec<(&'static str, f64)>,
}

impl RequestTrace<'_> {
    fn rel_ns(&self, at: Instant) -> u64 {
        dur_ns(at.saturating_duration_since(self.log.epoch))
    }

    /// Runs `f` as span `name` under `parent`; returns its result, the new
    /// span's id and its duration in milliseconds.
    pub fn time<T>(&mut self, name: &str, parent: u64, f: impl FnOnce() -> T) -> (T, u64, f64) {
        let start = Instant::now();
        let out = f();
        let (id, ms) = self.record(name, parent, start, Instant::now());
        (out, id, ms)
    }

    /// Allocates a span id before the span ends, so children recorded
    /// first can name it as their parent (see [`RequestTrace::record_as`]).
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a span measured elsewhere (e.g. the engine call itself).
    pub fn record(&mut self, name: &str, parent: u64, start: Instant, end: Instant) -> (u64, f64) {
        let id = self.reserve();
        (id, self.record_as(id, name, parent, start, end))
    }

    /// Records span `id` (from [`RequestTrace::reserve`]); returns its
    /// duration in milliseconds.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> f64 {
        let dur = dur_ns(end.saturating_duration_since(start));
        self.spans.push(Span::new(
            self.trace_id,
            id,
            parent,
            name,
            self.rel_ns(start),
            dur,
        ));
        dur as f64 / 1e6
    }

    /// Adds one sample of a per-layer metric.
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.push((metric, value));
    }

    /// Closes the root span and hands everything to the log.
    pub fn finish(self) {
        let root = Span::new(
            self.trace_id,
            ROOT,
            0,
            "request",
            self.rel_ns(self.started),
            dur_ns(self.started.elapsed()),
        );
        let mut inner = self.log.inner.lock().expect("span log poisoned");
        inner.spans.push(root);
        inner.spans.extend(self.spans);
        for (metric, value) in self.samples {
            inner
                .samples
                .entry(metric.to_string())
                .or_default()
                .push(value);
        }
    }
}

/// Per span name: count, total time and self time (ms). A span's self time
/// is its duration minus the part of its interval its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let mut children: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry((s.trace_id, s.parent_id))
            .or_default()
            .push((s.start_ns, s.start_ns + s.dur_ns));
    }
    let mut table: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let end = s.start_ns + s.dur_ns;
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&(s.trace_id, s.span_id)) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let row = table.entry(s.name.clone()).or_default();
        row.0 += 1;
        row.1 += s.dur_ns as f64 / 1e6;
        row.2 += (s.dur_ns - covered) as f64 / 1e6;
    }
    table
}

/// The self-time table as printable text.
pub fn self_time_table(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "per-layer self time, {workload} (traced phase)");
    let _ = writeln!(
        out,
        "  {:<34} {:>7} {:>12} {:>12} {:>11}",
        "span", "count", "total_ms", "self_ms", "mean_self_ms"
    );
    for (name, (count, total, own)) in self_times(spans) {
        let _ = writeln!(
            out,
            "  {:<34} {:>7} {:>12.3} {:>12.3} {:>11.4}",
            name,
            count,
            total,
            own,
            own / count as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            Span::new(1, 1, 0, "request", 0, 100),
            Span::new(1, 2, 1, "a", 10, 30),
            Span::new(1, 3, 1, "b", 30, 20), // overlaps `a` by 10
            Span::new(1, 4, 2, "c", 15, 5),
            Span::new(2, 1, 0, "request", 0, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"].0, 2);
        // request 1 is covered over [10, 50): self 60 ns; request 2: 50 ns.
        assert!((t["request"].2 - 110e-6).abs() < 1e-12);
        assert!((t["a"].2 - 25e-6).abs() < 1e-12);
        assert!((t["b"].2 - 20e-6).abs() < 1e-12);
    }

    #[test]
    fn log_collects_spans_and_samples() {
        let log = SpanLog::new();
        let mut req = log.request();
        let (v, id, _) = req.time("outer", ROOT, || 7);
        assert_eq!(v, 7);
        req.time("inner", id, || ());
        req.sample("m", 2.0);
        req.finish();
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().any(|s| s.name == "inner" && s.parent_id == id));
        assert_eq!(log.samples("m"), vec![2.0]);
    }
}
