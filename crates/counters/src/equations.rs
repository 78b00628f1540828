//! The paper's Eqs. 1–3 (§II-A) over integer counter sums, stated once.
//!
//! Every reader of `Σt_exec`, `Σt_func` and `n_t` — the derived counters,
//! [`crate::ThreadCounters`], the simulator's report, the service's
//! pressure loop, `grain-metrics` (which re-exports these beside
//! Eqs. 4–6) — calls these, so the zero-denominator and counter-skew
//! rules exist in one place. All times are nanoseconds.

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
}
