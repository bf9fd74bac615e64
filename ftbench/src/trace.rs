//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (name, start, end, parent, op id), kept in memory, and written
//! out once when the run ends. A disabled tracer records nothing, which
//! is how the end-to-end runs measure with tracing off.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; [`SpanId::NONE`] when tracing is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span whose endpoints were timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let rec = SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: (parent != SpanId::NONE).then_some(parent.0),
            op,
        };
        self.spans.push(rec);
        SpanId(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, op, now, now)
    }

    pub fn end(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.ns(Instant::now());
            self.spans[id.0].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Writes `header` (the run's stamp), then every span as a
    /// tab-separated line `id name start_ns end_ns self_ns parent op`
    /// (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path, header: &str) -> io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str(header);
        out.push('\n');
        out.push_str("id\tname\tstart_ns\tend_ns\tself_ns\tparent\top\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{self_ns}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap each other (concurrent
/// requests), so coverage is the length of the union of the children's
/// intervals clipped to the parent's.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.clamp(reach, hi), b.clamp(lo, hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans =
            vec![span("op", 0, 100, None), span("a", 10, 30, Some(0)), span("b", 50, 90, Some(0))];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("req", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 70, Some(0)),
            span("z", 20, 30, Some(0)),
        ];
        // Union of [10,60], [40,70], [20,30] is [10,70]: 60 ns covered.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("p", 100, 200, None), span("c", 50, 150, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 100]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("root", 0, 100, None),
            span("mid", 0, 80, Some(0)),
            span("leaf", 0, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", SpanId::NONE, 1);
        t.end(id);
        assert_eq!(id, SpanId::NONE);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", SpanId::NONE, 7);
        let kid = t.begin("kid", root, 7);
        t.end(kid);
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
