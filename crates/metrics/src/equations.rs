//! The paper's metrics, Eqs. 1–6 (§II-A), as pure functions. Eqs. 1–3
//! are over raw counter sums and live in `grain_counters::equations`
//! (the counters compute them too); they are re-exported here.
//!
//! All times are nanoseconds unless the name says seconds. `n_t` is the
//! number of tasks executed, `n_c` the number of cores (workers).

pub use grain_counters::equations::{idle_rate, task_duration_ns, task_overhead_ns};

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

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
