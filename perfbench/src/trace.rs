//! Spans recorded around each call into a layer, kept in memory and
//! written out when the run ends.
//!
//! A [`Tracer`] belongs to one thread. Spans nest: the span open when
//! another opens is its parent. Each span carries the calling thread's
//! allocation counts over its interval (see [`crate::alloc`]), so a
//! layer's self time and self allocations come out of the same
//! arithmetic: the span's total minus its direct children's totals.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) interval of work in one layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `sim.episode` or `gnn.featurize`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// Allocations made on this thread inside the span.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose span buffer is reserved up front, so that the
    /// recorder's own growth does not show up in the layers' counts.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            bytes: 0,
        });
        self.open.push(id);
        let (allocs, bytes) = alloc::thread_counts();
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.start_ns = now;
        s.end_ns = now;
        s.allocs = allocs;
        s.bytes = bytes;
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        let (allocs, bytes) = alloc::thread_counts();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.allocs = allocs - s.allocs;
        s.bytes = bytes - s.bytes;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals of every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the durations of direct children.
    pub self_ns: u64,
    /// Summed allocations.
    pub allocs: u64,
    /// Summed allocations minus those of direct children.
    pub self_allocs: u64,
    /// Summed bytes requested.
    pub bytes: u64,
}

impl LayerTotals {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Self seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// Adds another set of totals (e.g. another thread's).
    pub fn add(&mut self, o: &LayerTotals) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
        self.allocs += o.allocs;
        self.self_allocs += o.self_allocs;
        self.bytes += o.bytes;
    }
}

/// Per-name totals with self time: a span's duration minus the part its
/// direct children cover. Children of one span run one after another on
/// the span's thread, so they never overlap and their durations add.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
            child_allocs[p as usize] += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
        t.allocs += s.allocs;
        t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
        t.bytes += s.bytes;
    }
    out
}

/// Merged totals over several tracers (one per thread).
pub fn merged_totals<'a>(
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for t in tracers {
        for (name, tot) in layer_totals(t.spans()) {
            out.entry(name).or_default().add(&tot);
        }
    }
    out
}

/// Writes every span as one tab-separated line: thread, id, parent (-1
/// for none), name, start and end in ns since the run's epoch, allocs,
/// bytes.
pub fn write_tsv(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "thread\tid\tparent\tname\tstart_ns\tend_ns\tallocs\tbytes"
    )?;
    for (t, tracer) in tracers.iter().enumerate() {
        for (i, s) in tracer.spans().iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.allocs, s.bytes
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start: u64, end: u64, allocs: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            allocs,
            bytes: allocs * 8,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // episode [0,100) with two decides, the second holding a featurize.
        let spans = vec![
            span("episode", None, 0, 100, 10),
            span("decide", Some(0), 10, 30, 4),
            span("decide", Some(0), 50, 80, 5),
            span("featurize", Some(2), 55, 70, 3),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["episode"].total_ns, 100);
        assert_eq!(t["episode"].self_ns, 100 - 20 - 30);
        assert_eq!(t["episode"].self_allocs, 10 - 4 - 5);
        assert_eq!(t["decide"].count, 2);
        assert_eq!(t["decide"].total_ns, 50);
        assert_eq!(t["decide"].self_ns, 20 + (30 - 15));
        assert_eq!(t["decide"].self_allocs, 4 + (5 - 3));
        assert_eq!(t["featurize"].self_ns, 15);
        assert_eq!(t["featurize"].bytes, 24);
    }

    #[test]
    fn tracer_nests_and_counts() {
        alloc::set_counting(true);
        let mut tr = Tracer::new(Instant::now(), 8);
        let outer = tr.open("outer");
        let v = tr.scope("inner", || vec![1u8; 64]);
        tr.close(outer);
        alloc::set_counting(false);
        assert_eq!(v.len(), 64);
        let s = tr.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].allocs, 1);
        assert!(s[1].bytes >= 64);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let t = layer_totals(s);
        assert_eq!(t["outer"].self_allocs, 0);
    }
}
