//! Tracing owned by the benchmark: spans around the calls into each
//! layer, kept in memory and written when the run ends, and a counting
//! global allocator that is switched on only while a traced phase runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The process allocator: `System`, plus one relaxed flag load per
/// allocation, plus a count while the flag is set.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter updates touch no allocator
// state and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations counted so far (only those made while counting was on).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Run `f` with allocation counting on and return how many allocations
/// (by any thread) it saw. Counting is off again when this returns.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocs();
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, allocs() - before)
}

/// One recorded interval. `op` groups the spans of one operation; the
/// root span of an operation has `parent == None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Operation this span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `service.submit`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store of one run. Only the generator thread records;
/// instants taken on worker threads are handed to it by the operation.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record `[start, end]` as span `name` of operation `op` under
    /// `parent`; returns its id for use as a parent.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.spans.len() as u32;
        let start_ns = ns(start);
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: ns(end).max(start_ns),
        });
        id
    }

    /// Start the root span of operation `op` at `start`; its end is
    /// set by [`Tracer::close`]. Children recorded meanwhile name the
    /// returned id as their parent.
    pub fn open(&mut self, op: u64, name: &'static str, start: Instant) -> u32 {
        self.record(op, None, name, start, start)
    }

    /// End span `id` at `end`.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover (overlapping children
    /// are not counted twice). Indexed by span id.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if lo < hi {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
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

    /// Write one JSON object per span (with its self time) to `out`.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t: &Tracer, us: u64) -> Instant {
        t.origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let mut t = Tracer::new();
        let root = t.record(1, None, "op", at(&t, 0), at(&t, 100));
        // Two children that overlap on [30, 40]: covered = [10, 60].
        t.record(1, Some(root), "a", at(&t, 10), at(&t, 40));
        t.record(1, Some(root), "b", at(&t, 30), at(&t, 60));
        // A child that sticks out past the parent only covers up to it.
        let c = t.record(1, Some(root), "c", at(&t, 90), at(&t, 120));
        // A grandchild is covered time of its own parent, not the root.
        t.record(1, Some(c), "d", at(&t, 95), at(&t, 100));
        let selfs = t.self_times_ns();
        assert_eq!(selfs[root as usize], (100 - 50 - 10) * 1000);
        assert_eq!(selfs[1], 30_000);
        assert_eq!(selfs[2], 30_000);
        assert_eq!(selfs[c as usize], 25_000);
        assert_eq!(selfs[4], 5_000);
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        let mut t = Tracer::new();
        t.record(7, None, "op", at(&t, 5), at(&t, 25));
        assert_eq!(t.self_times_ns(), vec![20_000]);
        assert_eq!(t.durations_us("op"), vec![20.0]);
        assert!(t.durations_us("other").is_empty());
    }

    #[test]
    fn spans_round_trip_to_one_json_line_each() {
        let mut t = Tracer::new();
        let root = t.record(3, None, "op", at(&t, 0), at(&t, 10));
        t.record(3, Some(root), "graph.run", at(&t, 2), at(&t, 8));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf)
            .expect("writing to memory cannot fail");
        let text = String::from_utf8(buf).expect("ascii");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":1,\"parent\":0,\"op\":3,\"name\":\"graph.run\",\"start_ns\":2000,\"end_ns\":8000,\"self_ns\":6000}"
        );
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[0].contains("\"self_ns\":4000"));
    }
}
