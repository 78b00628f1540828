//! Simulation results: the same counter [`Window`] the native runtime
//! produces, plus the virtual wall-clock.

use grain_counters::{ThreadCounters, Window};

/// Outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Virtual wall-clock at the last task completion, ns.
    pub wall_ns: f64,
    /// Workers in the run.
    pub workers: usize,
    /// The run's counter sums (`phases == tasks`: simulated tasks are
    /// single-phase). Eqs. 1–3 are read on it.
    pub window: Window,
    /// Tasks completed per worker.
    pub tasks_per_worker: Vec<u64>,
}

impl SimReport {
    /// Build a report from the engine's counters and final clock.
    pub fn from_counters(wall_ns: f64, counters: &ThreadCounters) -> Self {
        Self {
            wall_ns,
            workers: counters.workers(),
            window: counters.window(),
            tasks_per_worker: counters.tasks.values(),
        }
    }

    /// Virtual execution time in seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_ns * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_holds_the_counters_window() {
        let c = ThreadCounters::new(2);
        c.tasks.add(0, 6);
        c.tasks.add(1, 4);
        c.exec_ns.add(0, 600);
        c.func_ns.add(1, 1_000);
        c.stolen.add(1, 3);
        let r = SimReport::from_counters(2e9, &c);
        assert_eq!(r.window, c.window());
        assert_eq!(r.window.stolen, 3);
        assert_eq!((r.workers, r.tasks_per_worker.clone()), (2, vec![6, 4]));
        assert!((r.wall_seconds() - 2.0).abs() < 1e-12);
    }
}
