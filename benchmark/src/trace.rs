//! In-memory spans recorded from outside the program, around the calls into
//! each layer. Written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

/// One timed interval. Spans of one request share `request`; `parent` is the
/// span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u32,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span whose interval was measured (or reconstructed from the
    /// program's own per-request metrics) elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`close`](Tracer::close) sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// child spans cover (overlapping children are counted once, and a child is
/// clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[parent].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Per span name: how many and their summed duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: usize,
    pub total_ns: u64,
}

impl NameTotal {
    /// Mean duration in seconds; 0 when the layer was never called.
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e9 / self.count as f64
        }
    }
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for span in spans {
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.end_ns - span.start_ns;
    }
    totals
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (id, (span, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"request\": {}}}",
            span.name, span.start_ns, span.end_ns, span.request
        )?;
    }
    out.flush()
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("encode", 10, 30, Some(0)),
            // Overlaps `encode` by 10: the union covers 10..50.
            span("check", 20, 50, Some(0)),
            // Sticks out of the parent: clipped to 90..100.
            span("late", 90, 120, Some(0)),
            span("inner", 22, 28, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30 - 6, 30, 6]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("request", 0, 100, None),
            span("recheck", 10, 20, Some(0)),
            span("recheck", 30, 50, Some(0)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["recheck"],
            NameTotal {
                count: 2,
                total_ns: 30
            }
        );
        assert_eq!(totals["request"].total_ns, 100);
        assert_eq!(totals["recheck"].mean_s(), 15e-9);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut tracer = Tracer::new();
        let outer = tracer.open("request", None, 3);
        let value = tracer.time("solve", Some(outer), 3, || 42);
        tracer.close(outer);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].request, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
