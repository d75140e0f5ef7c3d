//! In-memory spans around the calls into each layer, written out when the
//! benchmark ends.
//!
//! Spans are recorded from the benchmark's own files only — nothing in the
//! program is instrumented. A span is `{name, start_ns, end_ns, parent,
//! window_seq}`; spans of one flush window share its `window_seq`. A layer's
//! self time is its span's duration minus the part its children cover.

use crate::json::Json;
use std::time::Instant;

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.stage`, e.g. `index.publish`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<SpanId>,
    /// The flush window the span worked for (0 = none).
    pub window_seq: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span buffer of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, window_seq: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            window_seq,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.spans[id].duration_ns()
    }

    /// Times `f` as one span and returns its result with the duration in
    /// nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        window_seq: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, window_seq);
        let out = f();
        (out, self.close(id))
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the time its direct children
    /// cover (children of one parent never overlap — one thread records).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Total self time per span name, sorted by descending time.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let own = self.self_times_ns();
        let mut totals: Vec<(&'static str, u64, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(own) {
            match totals.iter_mut().find(|(name, ..)| *name == span.name) {
                Some(entry) => {
                    entry.1 += own;
                    entry.2 += 1;
                }
                None => totals.push((span.name, own, 1)),
            }
        }
        totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        totals
    }

    /// The trace file: a stamp, the per-name self-time summary and every
    /// span.
    pub fn to_json(&self, stamp: Json) -> Json {
        let summary = self
            .self_time_by_name()
            .into_iter()
            .map(|(name, self_ns, count)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("self_ns", Json::Int(self_ns)),
                    ("count", Json::Int(count)),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Int(0), |p| Json::Int(p as u64 + 1)),
                    ),
                    ("window_seq", Json::Int(s.window_seq)),
                ])
            })
            .collect();
        Json::obj([
            ("stamp", stamp),
            (
                "format",
                Json::str(
                    "spans[i].parent is 1-based into spans (0 = root); \
                     self time = duration minus direct children",
                ),
            ),
            ("self_time_by_name", Json::Arr(summary)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut trace = Trace::default();
        let root = trace.open("root", None, 0);
        let (_, child_ns) = trace.time("child", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root_ns = trace.close(root);
        assert!(child_ns >= 2_000_000);
        let own = trace.self_times_ns();
        assert_eq!(own[root], root_ns - child_ns);
        assert_eq!(own[1], child_ns);
        assert_eq!(trace.spans()[1].window_seq, 7);
        let json = trace.to_json(Json::obj([("k", Json::Int(1))])).to_string();
        assert!(json.contains("\"name\": \"child\""));
    }
}
