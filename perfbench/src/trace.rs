//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer, plus the per-call allocation attribution of the traced
//! binary.
//!
//! Spans stay in memory for the whole run and are written out once, at
//! exit ([`Tracer::write_jsonl`]). A span's *self time* is its duration
//! minus the durations of its direct children ([`self_times`]).

use crate::alloc;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval of the benchmark's own code.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// What ran: a layer call such as `lab.step`, or `round`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the summed durations of the spans naming it as their parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, children)| span.duration_ns().saturating_sub(children))
        .collect()
}

/// Heap allocations attributed to one call name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocTally {
    /// Allocations (including reallocations) during those calls.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// The span recorder. Disabled tracers record nothing and cost one
/// branch per call, which is what the untraced runs use.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    allocs: Vec<(&'static str, AllocTally)>,
}

impl Tracer {
    /// A tracer that records when `enabled`; `capacity` spans are
    /// reserved up front so recording does not reallocate mid-run.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            allocs: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that other spans will name as parent; close it with
    /// [`Tracer::close`]. Returns `None` when disabled.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` as a leaf span named `name`, attributing the heap
    /// allocations made while it runs (by any thread) to `name`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let before = alloc::snapshot();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let after = alloc::snapshot();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        let tally = match self.allocs.iter_mut().find(|(n, _)| *n == name) {
            Some((_, tally)) => tally,
            None => {
                self.allocs.push((name, AllocTally::default()));
                &mut self.allocs.last_mut().expect("just pushed").1
            }
        };
        tally.allocs += after.allocs - before.allocs;
        tally.bytes += after.bytes - before.bytes;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Allocation tally of the calls named `name` (zero if never called).
    pub fn alloc_tally(&self, name: &str) -> AllocTally {
        self.allocs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Total and self time in milliseconds per span name, with the
    /// span count, in first-seen order.
    pub fn self_time_table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let selfs = self_times(&self.spans);
        let mut table: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let row = match table.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => row,
                None => {
                    table.push((span.name, 0, 0.0, 0.0));
                    table.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += span.duration_ns() as f64 / 1e6;
            row.3 += self_ns as f64 / 1e6;
        }
        table
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
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
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("round", 0, 100, None),
            span("lab.offer", 5, 25, Some(0)),
            span("lab.step", 30, 90, Some(0)),
            // A grandchild is charged to its parent, not to the round.
            span("inner", 40, 50, Some(2)),
            span("lab.kill", 100, 130, None),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10, 30]);
    }

    #[test]
    fn self_time_table_aggregates_by_name() {
        let mut tracer = Tracer::new(true, 8);
        let round = tracer.open("round", None);
        tracer.call("lab.step", round, || ());
        tracer.call("lab.step", round, || ());
        tracer.close(round);
        let table = tracer.self_time_table();
        assert_eq!(table.len(), 2);
        assert_eq!((table[0].0, table[0].1), ("round", 1));
        assert_eq!((table[1].0, table[1].1), ("lab.step", 2));
        let (total, own) = (table[0].2, table[0].3);
        assert!(own <= total);
        assert!((total - own - table[1].2).abs() < 1e-9);
        assert_eq!(tracer.alloc_tally("lab.drain"), AllocTally::default());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, 8);
        let round = tracer.open("round", None);
        assert_eq!(tracer.call("lab.step", round, || 7), 7);
        tracer.close(round);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.alloc_tally("lab.step"), AllocTally::default());
    }
}
