//! The paper's metrics, Eqs. 1–6 (§II-A), stated once, and the one
//! [`Window`] of counter sums they are read over.
//!
//! Eqs. 1–3 are over integer counter sums; every reader of `Σt_exec`,
//! `Σt_func` and `n_t` — the derived counters, [`Window`], the sweep
//! statistics — calls them, so the zero-denominator and counter-skew
//! rules exist in one place. Eqs. 4–6 scale a per-task figure by
//! `n_t / n_c`. All times are nanoseconds unless the name says seconds;
//! `n_c` is the number of cores (workers).

/// Eq. 1 — idle-rate: `(Σt_func − Σt_exec) / Σt_func`, clamped to [0, 1].
pub fn idle_rate(sum_exec_ns: u64, sum_func_ns: u64) -> f64 {
    if sum_func_ns == 0 {
        return 0.0;
    }
    let exec = sum_exec_ns.min(sum_func_ns);
    (sum_func_ns - exec) as f64 / sum_func_ns as f64
}

/// Eq. 2 — average task duration `t_d = Σt_exec / n_t`, ns.
pub fn task_duration_ns(sum_exec_ns: u64, tasks: u64) -> f64 {
    if tasks == 0 {
        0.0
    } else {
        sum_exec_ns as f64 / tasks as f64
    }
}

/// Eq. 3 — average task overhead `t_o = (Σt_func − Σt_exec) / n_t`, ns.
pub fn task_overhead_ns(sum_exec_ns: u64, sum_func_ns: u64, tasks: u64) -> f64 {
    if tasks == 0 {
        return 0.0;
    }
    let exec = sum_exec_ns.min(sum_func_ns);
    (sum_func_ns - exec) as f64 / tasks as f64
}

/// Eq. 4 — HPX-thread management overhead per core,
/// `T_o = t_o · n_t / n_c`, in seconds (comparable to execution time).
pub fn thread_management_s(task_overhead_ns: f64, tasks: u64, cores: usize) -> f64 {
    if cores == 0 {
        return 0.0;
    }
    task_overhead_ns * tasks as f64 / cores as f64 * 1e-9
}

/// Eq. 5 — wait time per task `t_w = t_d − t_d1`, ns. May be negative
/// (§II-A: caching effects can make the one-core duration larger).
pub fn wait_per_task_ns(td_ns: f64, td1_ns: f64) -> f64 {
    td_ns - td1_ns
}

/// Eq. 6 — wait time per core `T_w = (t_d − t_d1) · n_t / n_c`, seconds.
pub fn wait_time_s(td_ns: f64, td1_ns: f64, tasks: u64, cores: usize) -> f64 {
    if cores == 0 {
        return 0.0;
    }
    (td_ns - td1_ns) * tasks as f64 / cores as f64 * 1e-9
}

/// The counter sums of one interval of interest (§II-A: every metric
/// "can be calculated over any interval"), and the one record of a run's
/// sums: the simulator's report and a sweep sample each hold one. A
/// runtime's cumulative sums are one
/// ([`crate::ThreadCounters::window`]); [`Window::since`] turns
/// two of them into the interval between, and that delta is the only
/// windowed Σt_func/Σt_exec in the workspace: the service's pressure
/// loop, the live stencil loop and the counter explorer all take it. A
/// job's own sums are a window too, one that starts at zero: its task
/// group is charged at the same clock reads as the runtime, and counts
/// no queue probes, which are a worker's, not a job's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Window {
    /// Σt_func, ns.
    pub func_ns: u64,
    /// Σt_exec, ns.
    pub exec_ns: u64,
    /// Tasks completed (`n_t`).
    pub tasks: u64,
    /// Thread phases executed.
    pub phases: u64,
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
}

impl Window {
    /// The interval `earlier → self`. Every sum is monotonic, so a field
    /// only reads below `earlier`'s if the counters were reset in
    /// between; it then saturates to 0 instead of wrapping.
    pub fn since(&self, earlier: &Window) -> Window {
        Window {
            func_ns: self.func_ns.saturating_sub(earlier.func_ns),
            exec_ns: self.exec_ns.saturating_sub(earlier.exec_ns),
            tasks: self.tasks.saturating_sub(earlier.tasks),
            phases: self.phases.saturating_sub(earlier.phases),
            pending_accesses: self
                .pending_accesses
                .saturating_sub(earlier.pending_accesses),
            pending_misses: self.pending_misses.saturating_sub(earlier.pending_misses),
            staged_accesses: self.staged_accesses.saturating_sub(earlier.staged_accesses),
            staged_misses: self.staged_misses.saturating_sub(earlier.staged_misses),
            stolen: self.stolen.saturating_sub(earlier.stolen),
            converted: self.converted.saturating_sub(earlier.converted),
        }
    }

    /// Eq. 1 over the window. No thread time (`func_ns` 0) reads 0.
    pub fn idle_rate(&self) -> f64 {
        idle_rate(self.exec_ns, self.func_ns)
    }

    /// Eq. 2 over the window, ns.
    pub fn task_duration_ns(&self) -> f64 {
        task_duration_ns(self.exec_ns, self.tasks)
    }

    /// Eq. 3 over the window, ns.
    pub fn task_overhead_ns(&self) -> f64 {
        task_overhead_ns(self.exec_ns, self.func_ns, self.tasks)
    }

    /// Share of pending-queue probes that found nothing (§IV-E); 0 with
    /// no probes.
    pub fn pending_miss_rate(&self) -> f64 {
        if self.pending_accesses == 0 {
            0.0
        } else {
            self.pending_misses.min(self.pending_accesses) as f64 / self.pending_accesses as f64
        }
    }

    /// Tasks completed per core over the window.
    pub fn tasks_per_core(&self, cores: usize) -> f64 {
        self.tasks as f64 / cores.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_idle_rate() {
        assert_eq!(idle_rate(600, 1000), 0.4);
        assert_eq!(idle_rate(0, 0), 0.0);
        assert_eq!(idle_rate(100, 100), 0.0);
        // Counter skew can transiently make Σt_exec > Σt_func; the ratio
        // clamps rather than going negative.
        assert_eq!(idle_rate(150, 100), 0.0);
    }

    #[test]
    fn eq2_task_duration() {
        assert_eq!(task_duration_ns(1000, 4), 250.0);
        assert_eq!(task_duration_ns(1000, 0), 0.0);
    }

    #[test]
    fn eq3_task_overhead() {
        assert_eq!(task_overhead_ns(600, 1000, 4), 100.0);
        assert_eq!(task_overhead_ns(0, 0, 0), 0.0);
    }

    #[test]
    fn eq4_scales_by_tasks_over_cores() {
        // 1 µs overhead × 1e6 tasks / 4 cores = 0.25 s.
        assert!((thread_management_s(1_000.0, 1_000_000, 4) - 0.25).abs() < 1e-12);
        assert_eq!(thread_management_s(1.0, 1, 0), 0.0);
    }

    #[test]
    fn eq5_can_be_negative() {
        assert_eq!(wait_per_task_ns(80.0, 100.0), -20.0);
        assert_eq!(wait_per_task_ns(100.0, 80.0), 20.0);
    }

    #[test]
    fn eq6_matches_eq5_scaled() {
        let tw = wait_time_s(2_000.0, 1_000.0, 1_000_000, 8);
        assert!((tw - 0.125).abs() < 1e-12);
        let neg = wait_time_s(500.0, 1_000.0, 1_000_000, 8);
        assert!(neg < 0.0);
        assert_eq!(wait_time_s(2_000.0, 1_000.0, 1, 0), 0.0);
    }

    #[test]
    fn a_window_is_the_delta_of_two_readings() {
        let earlier = Window {
            func_ns: 150,
            exec_ns: 100,
            tasks: 3,
            phases: 4,
            pending_accesses: 10,
            pending_misses: 2,
            staged_accesses: 6,
            staged_misses: 1,
            stolen: 2,
            converted: 3,
        };
        let later = Window {
            func_ns: 1_150,
            exec_ns: 700,
            tasks: 11,
            phases: 14,
            pending_accesses: 30,
            pending_misses: 7,
            staged_accesses: 15,
            staged_misses: 5,
            stolen: 9,
            converted: 12,
        };
        let w = later.since(&earlier);
        assert_eq!(
            w,
            Window {
                func_ns: 1_000,
                exec_ns: 600,
                tasks: 8,
                phases: 10,
                pending_accesses: 20,
                pending_misses: 5,
                staged_accesses: 9,
                staged_misses: 4,
                stolen: 7,
                converted: 9,
            }
        );
        assert_eq!(w.idle_rate(), 0.4);
        assert_eq!(w.task_duration_ns(), 75.0);
        assert_eq!(w.task_overhead_ns(), 50.0);
        assert_eq!(w.pending_miss_rate(), 0.25);
        assert_eq!(w.tasks_per_core(2), 4.0);
        // A reset between the readings saturates every field to 0
        // instead of wrapping.
        assert_eq!(earlier.since(&later), Window::default());
        assert_eq!(Window::default().idle_rate(), 0.0);
        assert_eq!(Window::default().pending_miss_rate(), 0.0);
        assert_eq!(Window::default().tasks_per_core(0), 0.0);
    }
}
