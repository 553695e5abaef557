//! In-memory span recording for the traced run.
//!
//! A span wraps one call into a layer's public API from the
//! benchmark's own code: its name is `<layer>.<call>`, it carries the
//! request or simulation id it serves and the span that caused it.
//! Spans stay in memory and are written out once, at exit. With
//! tracing off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Request or simulation id the call served.
    pub id: u64,
    /// Index of the causing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's epoch and
    /// switch; merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Self {
        Tracer::new(self.enabled, self.epoch)
    }

    /// Run `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Append another thread's spans, re-parenting its roots under the
    /// span currently open here (if any).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let root = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(root);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by the union of its children's intervals.
/// Overlapping children (calls made from several threads) are
/// counted once; children reaching past the parent are clipped.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals derived from spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRow {
    pub spans: u64,
    /// Summed span durations, ns (nested same-layer spans count twice).
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Group spans by layer (the name's prefix before the first `.`).
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let row = rows.entry(s.layer()).or_default();
        row.spans += 1;
        row.total_ns += s.dur();
        row.self_ns += own;
    }
    rows
}

/// Spans as JSON lines: one object per span, in start order per thread.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"idx\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,40) > b [15,25); root > c [50,60)
        let spans = [
            span("bench.round", None, 0, 100),
            span("sim.run", Some(0), 10, 40),
            span("core.replay", Some(1), 15, 25),
            span("sim.new", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two client threads' requests overlap inside one loop span.
        let spans = [
            span("serve.loop", None, 0, 100),
            span("serve.request", Some(0), 10, 50),
            span("serve.request", Some(0), 30, 70),
            span("serve.request", Some(0), 60, 80),
        ];
        // Union of children = [10,80) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_past_the_parent_are_clipped() {
        let spans = [span("a.x", None, 10, 20), span("b.y", Some(0), 5, 30)];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn tracer_records_parents_and_layers() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("bench.round", 1, |t| {
            t.span("sim.run", 2, |t| t.span("dram.tick", 3, |_| ()));
            t.span("snap.capture", 4, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            vec![None, Some(0), Some(1), Some(0)]
        );
        let table = layer_table(s);
        assert_eq!(
            table.keys().copied().collect::<Vec<_>>(),
            vec!["bench", "dram", "sim", "snap"]
        );
        let total_self: u64 = table.values().map(|r| r.self_ns).sum();
        assert_eq!(total_self, s[0].dur(), "self times partition the root");
    }

    #[test]
    fn absorbed_threads_hang_under_the_open_span() {
        let mut main = Tracer::new(true, Instant::now());
        let mut worker = main.fork();
        worker.span("serve.request", 7, |t| t.span("serve.admit", 7, |_| ()));
        main.span("serve.loop", 0, |m| m.absorb(worker));
        let s = main.spans();
        assert_eq!(s[0].name, "serve.loop");
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("sim.run", 1, |t| t.span("core.replay", 1, |_| 5));
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
