//! Spans recorded by the harness around its own calls into each layer.
//!
//! A span is (id, parent, op, name, start, end). Spans of one operation
//! share `op`. Each thread owns a [`Tracer`] and appends to it without
//! locking; the traces are joined and written out when the run ends. A
//! span's self time is its duration minus the part of it that its direct
//! children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `parent` of a span nothing caused.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    /// Span ids of this tracer are `base + 1 ..`, so tracers of different
    /// threads never collide.
    base: u32,
    /// Whether spans are being recorded right now.
    pub on: bool,
    issued: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for thread number `thread`; `origin` is shared by all of a
    /// run's tracers so their clocks agree.
    pub fn new(origin: Instant, thread: u32, enabled: bool) -> Self {
        Tracer {
            origin,
            base: thread << 24,
            on: enabled,
            issued: 0,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// Reserves the id of a span that will end after its children, so
    /// they can name it as their parent; finish it with [`Tracer::close`].
    /// Returns [`ROOT`] when off.
    pub fn open(&mut self) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.issued += 1;
        self.base + self.issued
    }

    /// Records the span whose id [`Tracer::open`] reserved.
    pub fn close(
        &mut self,
        id: u32,
        parent: u32,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if id == ROOT {
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
    }

    /// Records a finished span and returns its id, or [`ROOT`] when off.
    #[inline]
    pub fn record(
        &mut self,
        parent: u32,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.open();
        self.close(id, parent, op, name, start, end);
        id
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        parent: u32,
        op: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(parent, op, name, start, end);
        (out, (end - start).as_nanos() as u64)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span, by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let dur = s.end_ns.saturating_sub(s.start_ns);
            (s.id, dur - covered(kids, s.start_ns, s.end_ns).min(dur))
        })
        .collect()
}

/// Per span name: (count, total duration ns, total self ns).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns.saturating_sub(s.start_ns);
        e.2 += own[&s.id];
    }
    by_name
}

/// The trace file: the spans, then whatever tables the run derived from
/// them (already rendered as JSON by the caller).
pub fn to_json(workload: &str, seed: u64, spans: &[Span], derived: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + derived.len() + 256);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"derived\":{derived},\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..30, 20..50 (overlapping) and 70..80.
        let spans = [
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 70, 80),
            span(5, 3, 25, 45),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - (40 + 10));
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30 - 20);
        assert_eq!(own[&4], 10);
        assert_eq!(own[&5], 20);
        // Self times of a tree add up to the root's duration when children
        // do not overlap each other.
        let tree = [span(1, ROOT, 0, 100), span(2, 1, 0, 60), span(3, 2, 10, 20)];
        assert_eq!(self_times(&tree).values().sum::<u64>(), 100);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(1, ROOT, 50, 100),
            span(2, 1, 0, 60),
            span(3, 1, 90, 500),
        ];
        assert_eq!(self_times(&spans)[&1], 50 - 10 - 10);
    }

    #[test]
    fn tracer_ids_are_disjoint_across_threads_and_off_records_nothing() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, 0, true);
        let mut b = Tracer::new(origin, 1, true);
        let now = Instant::now();
        let parent = a.open();
        let child = a.record(parent, 7, "child", now, now);
        assert!(child != ROOT && child != parent);
        a.close(parent, ROOT, 7, "parent", now, now);
        assert_ne!(b.record(ROOT, 8, "other", now, now), child);
        b.on = false;
        assert_eq!(b.record(ROOT, 9, "off", now, now), ROOT);
        assert_eq!(b.into_spans().len(), 1);
        let json = to_json("w", 3, &a.into_spans(), "{}");
        assert!(json.contains("\"name\":\"child\"") && json.contains("\"seed\":3"));
    }
}
