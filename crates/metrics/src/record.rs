//! One experiment sample: configuration plus every raw count needed to
//! evaluate Eqs. 1–6, produced identically by the native runtime and the
//! simulator.

use crate::equations;
use grain_runtime::Runtime;
use grain_sim::SimReport;
use grain_stencil::StencilParams;

/// Which engine produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The native threaded runtime, measured in real time.
    Native,
    /// The discrete-event simulator, measured in virtual time.
    Simulated,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::Native => "native",
            EngineKind::Simulated => "sim",
        })
    }
}

/// Identification of a run: what was executed, where, how parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Engine that produced the sample.
    pub engine: EngineKind,
    /// Platform name ("Haswell", "host", …).
    pub platform: String,
    /// Worker (core) count `n_c`.
    pub workers: usize,
    /// Grid points per partition (task size knob).
    pub nx: usize,
    /// Number of partitions.
    pub np: usize,
    /// Time steps.
    pub nt: usize,
}

/// One sample's raw measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Run identification.
    pub meta: RunMeta,
    /// Wall-clock execution time, seconds (virtual for the simulator).
    pub wall_s: f64,
    /// Tasks completed.
    pub tasks: u64,
    /// Thread phases executed.
    pub phases: u64,
    /// Σ t_exec, ns.
    pub sum_exec_ns: u64,
    /// Σ t_func, ns.
    pub sum_func_ns: u64,
    /// Pending-queue probes.
    pub pending_accesses: u64,
    /// Pending-queue probes finding nothing.
    pub pending_misses: u64,
    /// Staged-queue probes.
    pub staged_accesses: u64,
    /// Staged-queue probes finding nothing.
    pub staged_misses: u64,
    /// Tasks stolen across queues.
    pub stolen: u64,
    /// Staged→pending conversions.
    pub converted: u64,
}

impl RunRecord {
    /// Build a record from a simulator report.
    pub fn from_sim(report: &SimReport, platform: &str, params: &StencilParams) -> Self {
        Self {
            meta: RunMeta {
                engine: EngineKind::Simulated,
                platform: platform.to_owned(),
                workers: report.workers,
                nx: params.nx,
                np: params.np,
                nt: params.nt,
            },
            wall_s: report.wall_seconds(),
            tasks: report.tasks,
            phases: report.phases,
            sum_exec_ns: report.sum_exec_ns,
            sum_func_ns: report.sum_func_ns,
            pending_accesses: report.pending_accesses,
            pending_misses: report.pending_misses,
            staged_accesses: report.staged_accesses,
            staged_misses: report.staged_misses,
            stolen: report.stolen,
            converted: report.converted,
        }
    }

    /// Build a record from a native runtime's counters after a stencil
    /// run that took `wall_s` seconds. Counters should have been reset
    /// before the measured region.
    pub fn from_native(rt: &Runtime, wall_s: f64, params: &StencilParams) -> Self {
        let c = rt.counters();
        Self {
            meta: RunMeta {
                engine: EngineKind::Native,
                platform: "host".to_owned(),
                workers: rt.num_workers(),
                nx: params.nx,
                np: params.np,
                nt: params.nt,
            },
            wall_s,
            tasks: c.tasks.sum(),
            phases: c.phases.sum(),
            sum_exec_ns: c.exec_ns.sum(),
            sum_func_ns: c.func_ns.sum(),
            pending_accesses: c.pending_accesses.sum(),
            pending_misses: c.pending_misses.sum(),
            staged_accesses: c.staged_accesses.sum(),
            staged_misses: c.staged_misses.sum(),
            stolen: c.stolen.sum(),
            converted: c.converted.sum(),
        }
    }

    /// Eq. 1 for this sample.
    pub fn idle_rate(&self) -> f64 {
        equations::idle_rate(self.sum_exec_ns, self.sum_func_ns)
    }

    /// Eq. 2 for this sample, ns.
    pub fn task_duration_ns(&self) -> f64 {
        equations::task_duration_ns(self.sum_exec_ns, self.tasks)
    }

    /// Eq. 3 for this sample, ns.
    pub fn task_overhead_ns(&self) -> f64 {
        equations::task_overhead_ns(self.sum_exec_ns, self.sum_func_ns, self.tasks)
    }

    /// Eq. 4 for this sample, seconds.
    pub fn thread_management_s(&self) -> f64 {
        equations::thread_management_s(self.task_overhead_ns(), self.tasks, self.meta.workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use grain_stencil::stencil_workload;
    use grain_topology::presets;

    #[test]
    fn from_sim_copies_everything() {
        let params = StencilParams::new(1_000, 20, 5);
        let wl = stencil_workload(&params);
        let report = simulate(&presets::haswell(), 4, &wl, &SimConfig::default());
        let rec = RunRecord::from_sim(&report, "Haswell", &params);
        assert_eq!(rec.meta.engine, EngineKind::Simulated);
        assert_eq!(rec.meta.workers, 4);
        assert_eq!(rec.tasks, 100);
        assert_eq!(rec.meta.nx, 1_000);
        assert!((rec.wall_s - report.wall_seconds()).abs() < 1e-15);
        assert!((rec.idle_rate() - report.idle_rate()).abs() < 1e-15);
        assert!((rec.task_duration_ns() - report.task_duration_ns()).abs() < 1e-12);
    }

    #[test]
    fn from_native_reads_counters() {
        let params = StencilParams::new(64, 8, 4);
        let rt = Runtime::with_workers(2);
        let t0 = std::time::Instant::now();
        let _ = grain_stencil::run_futurized(&rt, &params);
        let rec = RunRecord::from_native(&rt, t0.elapsed().as_secs_f64(), &params);
        assert_eq!(rec.meta.engine, EngineKind::Native);
        assert_eq!(rec.tasks as usize, params.total_tasks());
        assert!(rec.sum_func_ns >= rec.sum_exec_ns);
        assert!(rec.wall_s > 0.0);
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let params = StencilParams::new(500, 10, 4);
        let wl = stencil_workload(&params);
        let report = simulate(&presets::sandy_bridge(), 2, &wl, &SimConfig::default());
        let rec = RunRecord::from_sim(&report, "Sandy Bridge", &params);
        // to + td share Σ across the same task count.
        let reconstructed = (rec.task_duration_ns() + rec.task_overhead_ns()) * rec.tasks as f64;
        assert!((reconstructed - rec.sum_func_ns as f64).abs() < 1.0);
        // Eq. 4 in seconds is bounded by wall × workers.
        assert!(rec.thread_management_s() <= rec.wall_s * rec.meta.workers as f64 + 1e-9);
    }

    #[test]
    fn engine_kind_display() {
        assert_eq!(EngineKind::Native.to_string(), "native");
        assert_eq!(EngineKind::Simulated.to_string(), "sim");
    }
}
