//! Simulation results: the same counter summary the native runtime
//! produces, plus the virtual wall-clock.

use grain_counters::{equations, ThreadCounters};

/// Outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Virtual wall-clock at the last task completion, ns.
    pub wall_ns: f64,
    /// Workers in the run.
    pub workers: usize,
    /// Tasks completed.
    pub tasks: u64,
    /// Thread phases executed (== tasks in the simulator: simulated
    /// tasks are single-phase).
    pub phases: u64,
    /// Σ t_exec, ns.
    pub sum_exec_ns: u64,
    /// Σ t_func, ns.
    pub sum_func_ns: u64,
    /// Pending-queue probes.
    pub pending_accesses: u64,
    /// Pending-queue probes that found nothing.
    pub pending_misses: u64,
    /// Staged-queue probes.
    pub staged_accesses: u64,
    /// Staged-queue probes that found nothing.
    pub staged_misses: u64,
    /// Tasks taken from another worker's queues.
    pub stolen: u64,
    /// Staged→pending conversions.
    pub converted: u64,
    /// Tasks completed per worker.
    pub tasks_per_worker: Vec<u64>,
}

impl SimReport {
    /// Build a report from the engine's counters and final clock.
    pub fn from_counters(wall_ns: f64, counters: &ThreadCounters) -> Self {
        Self {
            wall_ns,
            workers: counters.workers(),
            tasks: counters.tasks.sum(),
            phases: counters.phases.sum(),
            sum_exec_ns: counters.exec_ns.sum(),
            sum_func_ns: counters.func_ns.sum(),
            pending_accesses: counters.pending_accesses.sum(),
            pending_misses: counters.pending_misses.sum(),
            staged_accesses: counters.staged_accesses.sum(),
            staged_misses: counters.staged_misses.sum(),
            stolen: counters.stolen.sum(),
            converted: counters.converted.sum(),
            tasks_per_worker: counters.tasks.values(),
        }
    }

    /// Virtual execution time in seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_ns * 1e-9
    }

    /// Idle-rate (Eq. 1).
    pub fn idle_rate(&self) -> f64 {
        equations::idle_rate(self.sum_exec_ns, self.sum_func_ns)
    }

    /// Average task duration t_d in ns (Eq. 2).
    pub fn task_duration_ns(&self) -> f64 {
        equations::task_duration_ns(self.sum_exec_ns, self.tasks)
    }

    /// Average task overhead t_o in ns (Eq. 3).
    pub fn task_overhead_ns(&self) -> f64 {
        equations::task_overhead_ns(self.sum_exec_ns, self.sum_func_ns, self.tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimReport {
        SimReport {
            wall_ns: 2e9,
            workers: 2,
            tasks: 10,
            phases: 10,
            sum_exec_ns: 600,
            sum_func_ns: 1_000,
            pending_accesses: 40,
            pending_misses: 30,
            staged_accesses: 20,
            staged_misses: 10,
            stolen: 3,
            converted: 10,
            tasks_per_worker: vec![6, 4],
        }
    }

    #[test]
    fn derived_metrics_match_equations() {
        let r = sample();
        assert!((r.idle_rate() - 0.4).abs() < 1e-12);
        assert!((r.task_duration_ns() - 60.0).abs() < 1e-12);
        assert!((r.task_overhead_ns() - 40.0).abs() < 1e-12);
        assert!((r.wall_seconds() - 2.0).abs() < 1e-12);
    }
}
