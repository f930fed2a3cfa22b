//! In-memory spans around the benchmark's calls into each layer.
//!
//! A disabled tracer costs one branch per call site, so the untraced passes
//! that give the end-to-end metrics run the same code. An enabled
//! tracer records name, op id, parent, start and end for every span and
//! keeps per-layer counters; nothing is written until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: Option<u32>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: Option<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: None,
            counts: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Runs `f` as op `op`: an `op` span whose descendants carry the id.
    pub fn op<R>(&mut self, op: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let outer = self.op.replace(op);
        let out = self.span("op", f);
        self.op = outer;
        out
    }

    /// Adds `n` to a per-layer counter (kept only while tracing).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// part of it its direct children cover. Children run strictly inside their
/// parent on one thread, so the children's durations never overlap.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "pass",
                op: None,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "sim.run",
                op: Some(0),
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "sim.run",
                op: Some(1),
                parent: Some(0),
                start_ns: 50,
                end_ns: 60,
            },
        ];
        let st = self_time_ns(&spans);
        assert_eq!(st["pass"], 60);
        assert_eq!(st["sim.run"], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.op(3, |t| t.span("x", |_| 7));
        t.count("sim.requests", 5);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty() && t.counts().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_op_ids() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("pass", |t| t.op(2, |t| t.span("core.schedule", |_| ())));
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].name, s[1].op, s[1].parent), ("op", Some(2), Some(0)));
        assert_eq!((s[2].op, s[2].parent), (Some(2), Some(1)));
        assert_eq!(s[0].op, None);
    }
}
