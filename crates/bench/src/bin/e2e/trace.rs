//! Span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer (in-program tracing is a later issue). They are kept in memory
//! and written as JSON-lines when the run ends. A span's *self time* is its
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `op` is the index of the planner call (submission,
/// removal, storm, …) the span belongs to; spans of one call share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink with an explicit open-span stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the planner-call index that spans opened from now on carry.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and, defensively, anything opened inside it that
    /// was left open).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an already-measured interval as a child of the open span
    /// `parent` (used for callbacks timed from inside a product call).
    pub fn record_child(&mut self, name: &'static str, parent: usize, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op: self.spans[parent].op,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: duration minus the union of its children's
/// intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: summed self time, summed duration, span count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    pub self_ns: u64,
    pub total_ns: u64,
    pub count: u64,
}

/// Span totals by name.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    pub by_name: BTreeMap<&'static str, NameTotals>,
}

impl TraceSummary {
    pub fn of(spans: &[Span]) -> Self {
        let selfs = self_times_ns(spans);
        let mut out = TraceSummary::default();
        for (s, own) in spans.iter().zip(selfs) {
            let slot = out.by_name.entry(s.name).or_default();
            slot.self_ns += own;
            slot.total_ns += s.duration_ns();
            slot.count += 1;
        }
        out
    }

    pub fn merge(&mut self, other: &TraceSummary) {
        let TraceSummary { by_name } = other;
        for (name, t) in by_name {
            let slot = self.by_name.entry(name).or_default();
            slot.self_ns += t.self_ns;
            slot.total_ns += t.total_ns;
            slot.count += t.count;
        }
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e6)
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.count)
    }
}

/// Appends the spans of one pass to the JSON-lines file at `path`.
pub fn append_jsonl(path: &Path, pass: usize, spans: &[Span]) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut out = std::io::BufWriter::new(file);
    write_jsonl(&mut out, pass, spans)?;
    out.flush()
}

/// Writes spans as JSON-lines (`name, start_ns, end_ns, parent, op`, plus
/// the pass they came from).
fn write_jsonl(out: &mut impl Write, pass: usize, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"pass\":{pass},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100]; a [10,40] with grandchild [20,30]; b [35,60]
        // overlaps a by 5; c [90,120] pokes out of the root by 20.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("g", 20, 30, Some(1)),
            span("b", 35, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        let own = self_times_ns(&spans);
        // Covered: [10,60] and [90,100] = 60.
        assert_eq!(own, vec![40, 20, 10, 25, 30]);
        let sum = TraceSummary::of(&spans);
        assert_eq!(
            sum.by_name["root"],
            NameTotals {
                self_ns: 40,
                total_ns: 100,
                count: 1
            }
        );
        assert_eq!(sum.count("a"), 1);
        assert!((sum.self_ms("b") - 25e-6).abs() < 1e-15);
        assert!((sum.total_ms("a") - 30e-6).abs() < 1e-15);
        // Self times partition the root span: they sum to its duration
        // (plus what pokes out of it).
        assert_eq!(own.iter().sum::<u64>(), 100 + 20 + 5);
    }

    #[test]
    fn tracer_nests_by_the_open_stack_and_merges() {
        let mut t = Tracer::new();
        t.set_op(7);
        let root = t.enter("root");
        let kid = t.enter("kid");
        t.exit(kid);
        let (lo, hi) = (t.now_ns(), t.now_ns());
        t.record_child("cb", root, lo, hi);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.op == 7));
        assert!(s[0].end_ns >= s[1].end_ns);
        let mut a = TraceSummary::of(s);
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.count("kid"), 2);
        assert_eq!(a.total_ms("root"), 2.0 * b.total_ms("root"));
        let mut buf = Vec::new();
        write_jsonl(&mut buf, 0, s).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 3);
    }
}
