//! Task-event tracing — lightweight per-worker timelines.
//!
//! The counters aggregate; sometimes you need the *sequence*: which
//! worker ran which task phase when, and where work was stolen. That is
//! what APEX-style tools layer on HPX (the paper's §VI integration
//! target). Tracing is off by default
//! ([`crate::RuntimeConfig::trace`]); when enabled, each worker appends
//! fixed-size events to its own buffer (one mutex per worker, never
//! contended across workers), and [`Trace`] offers timeline analysis:
//! per-worker busy fractions, load imbalance, steal counts and a text
//! Gantt rendering for small runs.

use crate::task::TaskId;
use grain_counters::sync::Mutex;
use std::time::Instant;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A task phase began executing.
    PhaseStart,
    /// The phase ended (completed, yielded or suspended).
    PhaseEnd,
    /// The dispatched task was stolen from `from`'s queues.
    Steal {
        /// Victim worker.
        from: u32,
    },
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer's epoch.
    pub t_ns: u64,
    /// Worker that recorded the event.
    pub worker: u32,
    /// Task involved.
    pub task: TaskId,
    /// Event kind.
    pub kind: TraceEventKind,
}

/// Shared trace collector (one buffer per worker).
#[derive(Debug)]
pub(crate) struct Tracer {
    enabled: bool,
    epoch: Instant,
    buffers: Vec<Mutex<Vec<TraceEvent>>>,
}

impl Tracer {
    pub(crate) fn new(workers: usize, enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            buffers: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    pub(crate) fn record(&self, worker: usize, task: TaskId, kind: TraceEventKind) {
        if !self.enabled {
            return;
        }
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        self.buffers[worker].lock().push(TraceEvent {
            t_ns,
            worker: worker as u32,
            task,
            kind,
        });
    }

    /// Drain all buffers into a time-sorted [`Trace`].
    pub(crate) fn take(&self) -> Trace {
        let mut events = Vec::new();
        for b in &self.buffers {
            events.append(&mut b.lock());
        }
        events.sort_by_key(|e| (e.t_ns, e.worker));
        Trace {
            workers: self.buffers.len(),
            events,
        }
    }
}

/// A captured timeline.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Worker count of the traced runtime.
    pub workers: usize,
    /// Events sorted by time.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Total events captured.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Busy nanoseconds per worker (sum of phase start→end spans).
    pub fn busy_ns_per_worker(&self) -> Vec<u64> {
        let mut busy = vec![0u64; self.workers];
        let mut open = vec![None::<u64>; self.workers];
        for e in &self.events {
            let w = e.worker as usize;
            match e.kind {
                TraceEventKind::PhaseStart => open[w] = Some(e.t_ns),
                TraceEventKind::PhaseEnd => {
                    if let Some(start) = open[w].take() {
                        busy[w] += e.t_ns.saturating_sub(start);
                    }
                }
                TraceEventKind::Steal { .. } => {}
            }
        }
        busy
    }

    /// Load imbalance: `max(busy) / mean(busy)` over workers that ran
    /// anything; 1.0 is perfect balance. Returns 0 for an empty trace.
    pub fn load_imbalance(&self) -> f64 {
        let busy = self.busy_ns_per_worker();
        let total: u64 = busy.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / busy.len() as f64;
        let max = busy.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }

    /// Number of steal events.
    pub fn steals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Steal { .. }))
            .count()
    }

    /// Phases executed per worker.
    pub fn phases_per_worker(&self) -> Vec<usize> {
        let mut n = vec![0usize; self.workers];
        for e in &self.events {
            if e.kind == TraceEventKind::PhaseEnd {
                n[e.worker as usize] += 1;
            }
        }
        n
    }

    /// Render a coarse text Gantt chart: one row per worker, `cols`
    /// time buckets, `#` where the worker was busy for most of a bucket,
    /// `.` where partially busy, space where idle.
    pub fn render_gantt(&self, cols: usize) -> String {
        let end = self.events.last().map(|e| e.t_ns).unwrap_or(0).max(1);
        let bucket = (end / cols as u64).max(1);
        let mut grid = vec![vec![0u64; cols]; self.workers]; // busy ns per cell
        let mut open = vec![None::<u64>; self.workers];
        for e in &self.events {
            let w = e.worker as usize;
            match e.kind {
                TraceEventKind::PhaseStart => open[w] = Some(e.t_ns),
                TraceEventKind::PhaseEnd => {
                    if let Some(start) = open[w].take() {
                        // Spread the busy span over the buckets it covers.
                        let (mut lo, hi) = (start, e.t_ns.max(start));
                        while lo < hi {
                            let cell = ((lo / bucket) as usize).min(cols - 1);
                            // Everything past the last cell's nominal end
                            // still belongs to the last cell.
                            let cell_end = if cell == cols - 1 {
                                hi
                            } else {
                                ((cell as u64) + 1) * bucket
                            };
                            let step = cell_end.min(hi).max(lo + 1) - lo;
                            grid[w][cell] += step;
                            lo += step;
                        }
                    }
                }
                TraceEventKind::Steal { .. } => {}
            }
        }
        let mut out = String::new();
        for (w, row) in grid.iter().enumerate() {
            out.push_str(&format!("w{w:<3}|"));
            for &busy in row {
                let frac = busy as f64 / bucket as f64;
                out.push(if frac > 0.5 {
                    '#'
                } else if frac > 0.05 {
                    '.'
                } else {
                    ' '
                });
            }
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, w: u32, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            worker: w,
            task: TaskId(0),
            kind,
        }
    }

    fn sample() -> Trace {
        Trace {
            workers: 2,
            events: vec![
                ev(0, 0, TraceEventKind::PhaseStart),
                ev(100, 0, TraceEventKind::PhaseEnd),
                ev(100, 1, TraceEventKind::Steal { from: 0 }),
                ev(110, 1, TraceEventKind::PhaseStart),
                ev(410, 1, TraceEventKind::PhaseEnd),
            ],
        }
    }

    #[test]
    fn busy_time_per_worker() {
        let t = sample();
        assert_eq!(t.busy_ns_per_worker(), vec![100, 300]);
    }

    #[test]
    fn load_imbalance_ratio() {
        let t = sample();
        // busy = [100, 300]; mean 200; max 300 → 1.5.
        assert!((t.load_imbalance() - 1.5).abs() < 1e-12);
        let empty = Trace {
            workers: 2,
            events: vec![],
        };
        assert_eq!(empty.load_imbalance(), 0.0);
    }

    #[test]
    fn steal_and_phase_counts() {
        let t = sample();
        assert_eq!(t.steals(), 1);
        assert_eq!(t.phases_per_worker(), vec![1, 1]);
    }

    #[test]
    fn gantt_marks_busy_cells() {
        let t = sample();
        let g = t.render_gantt(8);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('#') || lines[0].contains('.'));
        assert!(lines[1].contains('#'));
    }

    #[test]
    fn tracer_disabled_records_nothing() {
        let tr = Tracer::new(2, false);
        tr.record(0, TaskId(1), TraceEventKind::PhaseStart);
        assert!(tr.take().is_empty());
    }

    #[test]
    fn tracer_enabled_collects_sorted() {
        let tr = Tracer::new(2, true);
        tr.record(1, TaskId(1), TraceEventKind::PhaseStart);
        tr.record(0, TaskId(2), TraceEventKind::PhaseStart);
        tr.record(1, TaskId(1), TraceEventKind::PhaseEnd);
        let t = tr.take();
        assert_eq!(t.len(), 3);
        assert!(t.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        // Draining leaves the buffers empty.
        assert!(tr.take().is_empty());
    }
}
