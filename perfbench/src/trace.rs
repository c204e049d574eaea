//! In-memory span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; the program itself carries no
//! tracing. Every span names its layer, its parent span, the workload
//! and the repetition it belongs to, and the model or worker count it
//! ran under (`part`). Per-layer self time is derived after the run:
//! a span's duration minus the part of it its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `netsim.run_for`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Repetition index within the run.
    pub rep: usize,
    /// Model or worker-count qualifier (`rf`, `w1`, ...), or empty.
    pub part: &'static str,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans for one workload run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            epoch: Instant::now(),
            workload,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        rep: usize,
        part: &'static str,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end).max(ns(start)));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep,
            part,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result with the span id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        rep: usize,
        part: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), parent, rep, part);
        (out, id)
    }

    /// Stretches an already recorded span to end now (for spans opened
    /// before their children were known).
    pub fn close(&mut self, id: SpanId) {
        let now = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64;
        self.spans[id].end_ns = now.max(self.spans[id].start_ns);
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        rep: usize,
        part: &'static str,
    ) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, rep, part)
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in seconds, indexed like
    /// [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        self_times(&self.spans)
    }

    /// Sum of self time over spans with this name and part, per
    /// repetition (index = rep).
    pub fn self_secs_by_rep(&self, name: &str, part: &str) -> Vec<f64> {
        let selfs = self.self_times();
        let reps = self.spans.iter().map(|s| s.rep + 1).max().unwrap_or(0);
        let mut out = vec![0.0; reps];
        for (span, secs) in self.spans.iter().zip(selfs) {
            if span.name == name && span.part == part {
                out[span.rep] += secs;
            }
        }
        out
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 64);
        let _ = write!(out, "{{\"workload\":\"{}\",\"spans\":[", self.workload);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"workload\":\"{}\",\"rep\":{},\"part\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, self.workload, s.rep, s.part
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 / 1e9
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
            part: "",
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union is 10..50
            span("c", 90, 120, Some(0)), // clipped to the parent's end
            span("a.child", 12, 18, Some(1)),
        ];
        let s = self_times(&spans);
        let ns = |x: f64| (x * 1e9).round() as u64;
        assert_eq!(ns(s[0]), 100 - 40 - 10);
        assert_eq!(ns(s[1]), 20 - 6);
        assert_eq!(ns(s[2]), 30);
        assert_eq!(ns(s[4]), 6);
    }

    #[test]
    fn json_lists_every_span_field() {
        let mut t = Tracer::new("live_detection");
        let root = t.open("ids.live", None, 1, "rf");
        t.time("netsim.run_for", Some(root), 1, "rf", || ());
        t.close(root);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"netsim.run_for\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"workload\":\"live_detection\""));
        assert!(json.contains("\"rep\":1"));
        assert_eq!(t.self_secs_by_rep("netsim.run_for", "rf").len(), 2);
    }
}
