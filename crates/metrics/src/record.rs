//! One experiment sample: configuration plus the counter [`Window`]
//! Eqs. 1–6 are evaluated on, produced identically by the native runtime
//! and the simulator.

use grain_counters::Window;
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
    /// The run's counter sums; Eqs. 1–3 are read on it, and Eq. 4 on it
    /// and `meta.workers`.
    pub window: Window,
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
            window: report.window,
        }
    }

    /// Build a record from a native runtime's counters after a stencil
    /// run that took `wall_s` seconds. Counters should have been reset
    /// before the measured region.
    pub fn from_native(rt: &Runtime, wall_s: f64, params: &StencilParams) -> Self {
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
            window: rt.counters().window(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use grain_counters::equations::thread_management_s;
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
        assert_eq!(rec.window, report.window);
        assert_eq!(rec.window.tasks, 100);
        assert_eq!(rec.meta.nx, 1_000);
        assert!((rec.wall_s - report.wall_seconds()).abs() < 1e-15);
    }

    #[test]
    fn from_native_reads_counters() {
        let params = StencilParams::new(64, 8, 4);
        let rt = Runtime::with_workers(2);
        let t0 = std::time::Instant::now();
        let _ = grain_stencil::run_futurized(&rt, &params);
        let rec = RunRecord::from_native(&rt, t0.elapsed().as_secs_f64(), &params);
        assert_eq!(rec.meta.engine, EngineKind::Native);
        assert_eq!(rec.window.tasks as usize, params.total_tasks());
        assert!(rec.window.func_ns >= rec.window.exec_ns);
        assert!(rec.wall_s > 0.0);
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let params = StencilParams::new(500, 10, 4);
        let wl = stencil_workload(&params);
        let report = simulate(&presets::sandy_bridge(), 2, &wl, &SimConfig::default());
        let rec = RunRecord::from_sim(&report, "Sandy Bridge", &params);
        let w = rec.window;
        // to + td share Σ across the same task count.
        let reconstructed = (w.task_duration_ns() + w.task_overhead_ns()) * w.tasks as f64;
        assert!((reconstructed - w.func_ns as f64).abs() < 1.0);
        // Eq. 4 in seconds is bounded by wall × workers.
        let tm = thread_management_s(w.task_overhead_ns(), w.tasks, rec.meta.workers);
        assert!(tm <= rec.wall_s * rec.meta.workers as f64 + 1e-9);
    }

    #[test]
    fn engine_kind_display() {
        assert_eq!(EngineKind::Native.to_string(), "native");
        assert_eq!(EngineKind::Simulated.to_string(), "sim");
    }
}
