//! Aggregation over repeated samples: mean, standard deviation and COV of
//! every metric, as the paper reports (§II: "we make multiple runs and
//! calculate means and standard deviation of these counts"; §IV discusses
//! the COVs).

use crate::record::RunRecord;
use grain_counters::equations::thread_management_s;
use grain_counters::SampleStats;

/// Statistics of every metric of one experimental configuration, built
/// from its repeated samples.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Samples accumulated.
    pub samples: u64,
    /// Execution time, seconds.
    pub wall_s: SampleStats,
    /// Idle-rate (Eq. 1).
    pub idle_rate: SampleStats,
    /// Task duration t_d, ns (Eq. 2).
    pub task_duration_ns: SampleStats,
    /// Task overhead t_o, ns (Eq. 3).
    pub task_overhead_ns: SampleStats,
    /// Thread-management overhead T_o, seconds (Eq. 4).
    pub thread_management_s: SampleStats,
    /// Pending-queue accesses.
    pub pending_accesses: SampleStats,
    /// Pending-queue misses.
    pub pending_misses: SampleStats,
    /// Staged-queue accesses.
    pub staged_accesses: SampleStats,
    /// Tasks executed.
    pub tasks: SampleStats,
    /// Tasks stolen.
    pub stolen: SampleStats,
}

impl Aggregate {
    /// Empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one sample in.
    pub fn push(&mut self, r: &RunRecord) {
        let w = &r.window;
        self.samples += 1;
        self.wall_s.push(r.wall_s);
        self.idle_rate.push(w.idle_rate());
        self.task_duration_ns.push(w.task_duration_ns());
        self.task_overhead_ns.push(w.task_overhead_ns());
        let tm = thread_management_s(w.task_overhead_ns(), w.tasks, r.meta.workers);
        self.thread_management_s.push(tm);
        self.pending_accesses.push(w.pending_accesses as f64);
        self.pending_misses.push(w.pending_misses as f64);
        self.staged_accesses.push(w.staged_accesses as f64);
        self.tasks.push(w.tasks as f64);
        self.stolen.push(w.stolen as f64);
    }

    /// Build from a slice of samples.
    pub fn from_records(records: &[RunRecord]) -> Self {
        let mut a = Self::new();
        for r in records {
            a.push(r);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EngineKind, RunMeta};
    use grain_counters::Window;

    fn record(wall: f64, exec: u64, func: u64) -> RunRecord {
        RunRecord {
            meta: RunMeta {
                engine: EngineKind::Simulated,
                platform: "test".into(),
                workers: 4,
                nx: 100,
                np: 10,
                nt: 5,
            },
            wall_s: wall,
            window: Window {
                func_ns: func,
                exec_ns: exec,
                tasks: 50,
                phases: 50,
                pending_accesses: 100,
                pending_misses: 40,
                staged_accesses: 80,
                staged_misses: 30,
                stolen: 5,
                converted: 50,
            },
        }
    }

    #[test]
    fn aggregates_means_and_cov() {
        let records = vec![
            record(1.0, 500, 1_000),
            record(2.0, 500, 1_000),
            record(3.0, 500, 1_000),
        ];
        let a = Aggregate::from_records(&records);
        assert_eq!(a.samples, 3);
        assert!((a.wall_s.mean() - 2.0).abs() < 1e-12);
        assert!((a.wall_s.stddev() - 1.0).abs() < 1e-12);
        assert!((a.wall_s.cov() - 0.5).abs() < 1e-12);
        // Constant metrics have zero COV.
        assert_eq!(a.idle_rate.cov(), 0.0);
        assert!((a.idle_rate.mean() - 0.5).abs() < 1e-12);
        assert_eq!(a.tasks.mean(), 50.0);
    }

    #[test]
    fn empty_aggregate_is_zeroed() {
        let a = Aggregate::new();
        assert_eq!(a.samples, 0);
        assert_eq!(a.wall_s.mean(), 0.0);
    }
}
