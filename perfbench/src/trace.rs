//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. Spans of
//! one recorder nest strictly (the benchmark drives every traced call from
//! one thread), so a span's self time is its duration minus the summed
//! durations of its direct children.

use raptor_core::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are seconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id: its index in the recorder.
    pub id: usize,
    /// Layer-qualified name, e.g. `hydro.sweep_axis`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Run index within the workload: spans of one timed run share it.
    pub run: usize,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-name aggregate over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    /// Number of spans.
    pub calls: usize,
    /// Summed wall duration.
    pub total_s: f64,
    /// Summed self time (duration minus child coverage).
    pub self_s: f64,
}

/// The span recorder of one workload.
pub struct Trace {
    workload: String,
    epoch: Instant,
    run: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty recorder for `workload`.
    pub fn new(workload: &str) -> Trace {
        Trace {
            workload: workload.to_string(),
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tag the spans recorded from now on with run index `run`.
    pub fn set_run(&mut self, run: usize) {
        self.run = run;
    }

    /// Record a span named `name` around `f`. The recorder is handed to
    /// `f` so nested calls record child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let id = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregate the spans of run `run` by name.
    pub fn aggregate(&self, run: usize) -> BTreeMap<&'static str, Agg> {
        let mut child_cover = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.run == run) {
            let a = out.entry(s.name).or_default();
            a.calls += 1;
            a.total_s += s.duration();
            a.self_s += s.duration() - child_cover[s.id];
        }
        out
    }

    /// The spans as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => Json::from(p as u64),
                None => Json::Null,
            };
            let line = Json::obj()
                .set("id", s.id as u64)
                .set("name", s.name)
                .set("start_s", s.start)
                .set("end_s", s.end)
                .set("parent", parent)
                .set("workload", self.workload.as_str())
                .set("run", s.run as u64);
            out.push_str(&line.render_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Trace::new("t");
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tr.span("inner", |_| ());
        });
        let agg = tr.aggregate(0);
        let outer = agg["outer"];
        let inner = agg["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert!(inner.total_s >= 0.005);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-12);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn runs_aggregate_separately() {
        let mut tr = Trace::new("t");
        tr.span("a", |_| ());
        tr.set_run(1);
        tr.span("a", |_| ());
        tr.span("a", |_| ());
        assert_eq!(tr.aggregate(0)["a"].calls, 1);
        assert_eq!(tr.aggregate(1)["a"].calls, 2);
    }
}
