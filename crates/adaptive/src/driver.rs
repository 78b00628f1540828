//! Adaptive execution: run the stencil in monitoring windows, feed each
//! window's counters to the [`ThresholdTuner`], and re-partition the
//! grid between windows — one loop per measurement substrate.
//!
//! * [`adapt`] — epochs over a [`StencilEngine`] (a simulated Table I
//!   platform or the native runtime, restarted per epoch);
//! * [`adapt_live`] — what a production runtime would actually do: keep
//!   **one** runtime alive, run groups of time steps, measure each group
//!   as a [`grain_counters::Window`] of the runtime's own counters (the
//!   windowed Eq. 1 the paper says its counters support, §II-A), and
//!   re-partition the live grid between groups. Physics is untouched by
//!   re-partitioning — partitions are contiguous chunks of the same ring.
//!
//! This is the paper's "first step toward the goal of dynamically
//! adapting task size" carried to completion: the same program, monitored
//! through the same counters the paper characterizes, converges to a
//! granularity in the flat region of Fig. 3 without any offline sweep.
//! With [`LoopMode::throttle`] the same windows also drive the worker
//! pool (§V/§VI: the APEX-style integration of grain *and* core
//! adaptation).

use crate::tuner::{throttled_workers, GrainSignal, ThresholdTuner};
use grain_metrics::StencilEngine;
use grain_runtime::Runtime;
use grain_stencil::{collect_result, partition_grid, run_steps_from};

/// The two things callers of the loops differ in.
#[derive(Debug, Clone, Copy)]
pub struct LoopMode {
    /// Also size the worker pool with [`throttled_workers`] between
    /// windows, parking workers the current partitioning cannot feed.
    pub throttle: bool,
    /// Stop after the first window that leaves the tuner converged,
    /// instead of running the whole window budget.
    pub until_converged: bool,
}

/// One adaptation window's outcome.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Partition size used in this window.
    pub nx: usize,
    /// Workers allowed to take work during this window.
    pub workers: usize,
    /// Wall time of the window, seconds.
    pub wall_s: f64,
    /// Idle-rate observed over the window (Eq. 1).
    pub idle_rate: f64,
    /// Throughput, grid points per second.
    pub points_per_s: f64,
    /// Tasks executed in the window.
    pub tasks: u64,
}

impl Epoch {
    /// Core-seconds consumed (workers × wall) — the energy proxy
    /// throttling tries to reduce.
    pub fn core_seconds(&self) -> f64 {
        self.workers as f64 * self.wall_s
    }
}

/// Full adaptation run record.
#[derive(Debug, Clone)]
pub struct AdaptiveTrace {
    /// Windows in order.
    pub epochs: Vec<Epoch>,
    /// Partition size the tuner settled on.
    pub final_nx: usize,
    /// Whether the tuner reported convergence within the window budget.
    pub converged: bool,
}

impl AdaptiveTrace {
    /// Throughput of the last window relative to the first — the benefit
    /// the adaptation bought.
    pub fn speedup(&self) -> f64 {
        match (self.epochs.first(), self.epochs.last()) {
            (Some(a), Some(b)) if a.points_per_s > 0.0 => b.points_per_s / a.points_per_s,
            _ => 1.0,
        }
    }

    /// Total core-seconds (energy proxy) across the run.
    pub fn core_seconds(&self) -> f64 {
        self.epochs.iter().map(Epoch::core_seconds).sum()
    }
}

/// Grid points per second over a window.
fn rate(points: usize, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        points as f64 / wall_s
    } else {
        0.0
    }
}

/// Run up to `max_epochs` epochs of the stencil through `engine` on a
/// pool of `workers` cores, letting `tuner` choose the partition size
/// between epochs. Each epoch runs the engine's configured number of
/// time steps at the tuner's current granularity; under
/// [`LoopMode::throttle`] "throttling" selects the worker count of the
/// next epoch.
pub fn adapt(
    engine: &dyn StencilEngine,
    workers: usize,
    tuner: &mut ThresholdTuner,
    max_epochs: usize,
    mode: LoopMode,
) -> AdaptiveTrace {
    let mut active = workers;
    let mut epochs = Vec::new();
    for e in 0..max_epochs {
        let nx = tuner.nx();
        let rec = engine.run(nx, active, e);
        let params = engine.params_for(nx);
        epochs.push(Epoch {
            nx,
            workers: active,
            wall_s: rec.wall_s,
            idle_rate: rec.window.idle_rate(),
            points_per_s: rate(params.total_points() * params.nt, rec.wall_s),
            tasks: rec.window.tasks,
        });
        tuner.observe(&GrainSignal {
            idle_rate: rec.window.idle_rate(),
            tasks_per_core: params.np as f64 / active as f64,
        });
        if mode.throttle {
            active = throttled_workers(params.np, workers);
        }
        if mode.until_converged && tuner.converged() {
            break;
        }
    }
    AdaptiveTrace {
        final_nx: tuner.nx(),
        converged: tuner.converged(),
        epochs,
    }
}

/// Run up to `epochs × steps_per_epoch` time steps of heat diffusion
/// over `grid` (a ring) on the live runtime `rt`, re-partitioning between
/// epochs as directed by `tuner`. The runtime keeps running throughout;
/// decisions come from windows of its live counters, and under
/// [`LoopMode::throttle`] the pool is re-sized with
/// [`Runtime::set_active_workers`] (and left as last set). Returns the
/// trace and the final grid values (the flattened ring).
pub fn adapt_live(
    rt: &Runtime,
    mut grid: Vec<f64>,
    coeff: f64,
    steps_per_epoch: usize,
    epochs: usize,
    tuner: &mut ThresholdTuner,
    mode: LoopMode,
) -> (AdaptiveTrace, Vec<f64>) {
    assert!(!grid.is_empty(), "empty grid");
    assert!(steps_per_epoch > 0);
    let mut records = Vec::new();

    for _ in 0..epochs {
        let nx = tuner.nx().clamp(1, grid.len());
        let parts = partition_grid(&grid, nx);
        let np = parts.len();
        let active = rt.active_workers();

        let before = rt.counters().window();
        let t0 = std::time::Instant::now();
        let out = run_steps_from(rt, parts, steps_per_epoch, coeff);
        grid = collect_result(&out);
        rt.wait_idle();
        let wall_s = t0.elapsed().as_secs_f64();
        let window = rt.counters().window().since(&before);
        let idle_rate = window.idle_rate();

        records.push(Epoch {
            nx,
            workers: active,
            wall_s,
            idle_rate,
            points_per_s: rate(grid.len() * steps_per_epoch, wall_s),
            tasks: window.tasks,
        });
        tuner.observe(&GrainSignal {
            idle_rate,
            tasks_per_core: np as f64 / active as f64,
        });
        if mode.throttle {
            rt.set_active_workers(throttled_workers(np, rt.num_workers()));
        }
        if mode.until_converged && tuner.converged() {
            break;
        }
    }
    let trace = AdaptiveTrace {
        final_nx: tuner.nx(),
        converged: tuner.converged(),
        epochs: records,
    };
    (trace, grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::TunerConfig;
    use grain_counters::equations;
    use grain_metrics::sweep::SimEngine;
    use grain_runtime::RuntimeConfig;
    use grain_stencil::{run_sequential, total_heat, StencilParams};
    use grain_topology::presets;

    /// The grain-only loop every pre-throttle caller ran.
    const TO_CONVERGENCE: LoopMode = LoopMode {
        throttle: false,
        until_converged: true,
    };
    const ALL_EPOCHS: LoopMode = LoopMode {
        throttle: false,
        until_converged: false,
    };
    const THROTTLED: LoopMode = LoopMode {
        throttle: true,
        until_converged: false,
    };

    fn tuner_from(initial_nx: usize) -> ThresholdTuner {
        ThresholdTuner::new(TunerConfig {
            initial_nx,
            ..TunerConfig::default()
        })
    }

    /// A tuner with no room to move: isolates the throttle.
    fn pinned_tuner(nx: usize) -> ThresholdTuner {
        ThresholdTuner::new(TunerConfig {
            initial_nx: nx,
            min_nx: nx,
            max_nx: nx,
            ..TunerConfig::default()
        })
    }

    fn engine() -> SimEngine {
        SimEngine::scaled(presets::haswell(), 2_000_000, 4)
    }

    #[test]
    fn threshold_tuner_escapes_the_fine_grained_regime() {
        let trace = adapt(&engine(), 8, &mut tuner_from(250), 20, TO_CONVERGENCE);
        assert!(
            trace.final_nx >= 4_000,
            "tuner stuck at {} (trace: {:?})",
            trace.final_nx,
            trace.epochs.iter().map(|e| e.nx).collect::<Vec<_>>()
        );
        assert!(trace.speedup() > 1.5, "speedup {:.2}", trace.speedup());
    }

    #[test]
    fn threshold_tuner_escapes_the_coarse_regime() {
        // One partition: fully serialized.
        let trace = adapt(&engine(), 8, &mut tuner_from(2_000_000), 20, TO_CONVERGENCE);
        assert!(
            trace.final_nx < 2_000_000,
            "tuner failed to shrink from a serialized configuration"
        );
    }

    #[test]
    fn converged_traces_stop_early() {
        // Start in the sweet spot: should hold and converge quickly.
        let trace = adapt(&engine(), 8, &mut tuner_from(50_000), 20, TO_CONVERGENCE);
        assert!(trace.converged);
        assert!(
            trace.epochs.len() <= 5,
            "took {} epochs",
            trace.epochs.len()
        );
        // The same start without the stop runs the whole budget.
        let trace = adapt(&engine(), 8, &mut tuner_from(50_000), 20, ALL_EPOCHS);
        assert!(trace.converged);
        assert_eq!(trace.epochs.len(), 20);
    }

    #[test]
    fn trace_records_every_epoch() {
        let trace = adapt(&engine(), 4, &mut tuner_from(250), 6, TO_CONVERGENCE);
        assert!(!trace.epochs.is_empty());
        for e in &trace.epochs {
            assert!(e.wall_s > 0.0);
            assert!((0.0..=1.0).contains(&e.idle_rate));
            assert!(e.points_per_s > 0.0);
            assert_eq!(e.workers, 4, "no throttle, no change");
        }
    }

    #[test]
    fn simulated_throttling_saves_core_seconds_at_coarse_grain() {
        // 4 partitions on a 28-core simulated Haswell: the throttle
        // should cut the pool toward 4 and reduce the energy proxy without
        // a large wall-time penalty.
        let engine = SimEngine::scaled(presets::haswell(), 8_000_000, 6);
        let nx = 2_000_000; // 4 partitions

        let with = adapt(&engine, 28, &mut pinned_tuner(nx), 6, THROTTLED);
        let without = adapt(&engine, 28, &mut pinned_tuner(nx), 6, ALL_EPOCHS);

        let last = with.epochs.last().expect("six epochs");
        assert!(
            last.workers <= 6,
            "throttle should engage: {:?}",
            with.epochs.iter().map(|e| e.workers).collect::<Vec<_>>()
        );
        assert!(
            with.core_seconds() < without.core_seconds() * 0.5,
            "energy proxy should drop: {} vs {}",
            with.core_seconds(),
            without.core_seconds()
        );
        let t_with: f64 = with.epochs.iter().map(|e| e.wall_s).sum();
        let t_without: f64 = without.epochs.iter().map(|e| e.wall_s).sum();
        assert!(
            t_with < t_without * 1.3,
            "wall time must not explode: {t_with} vs {t_without}"
        );
    }

    #[test]
    fn grain_and_cores_adapt_together_in_simulation() {
        let engine = SimEngine::scaled(presets::haswell(), 8_000_000, 6);
        // 2 partitions to start.
        let trace = adapt(&engine, 28, &mut tuner_from(4_000_000), 12, THROTTLED);
        let last = trace.epochs.last().expect("twelve epochs");
        assert!(last.nx < 4_000_000, "the tuner should split partitions");
        // Once slack returns, the pool opens back up.
        assert!(
            last.workers > 4,
            "workers should be reactivated: {:?}",
            trace
                .epochs
                .iter()
                .map(|e| (e.nx, e.workers))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn one_window_grows_the_grain_and_holds_the_pool() {
        // High idle-rate at fine grain with plenty of slack (250
        // partitions on 8 workers): grain grows, throttle holds.
        let engine = SimEngine::scaled(presets::haswell(), 250_000, 4);
        let mut tuner = tuner_from(1_000);
        let trace = adapt(&engine, 8, &mut tuner, 2, THROTTLED);
        assert!(trace.epochs[0].idle_rate > 0.30, "fine grain is overhead");
        assert_eq!(trace.epochs[1].nx, 2_000);
        assert_eq!(trace.epochs[1].workers, 8);
    }

    fn initial_grid(params: &StencilParams) -> Vec<f64> {
        (0..params.total_points())
            .map(|g| (g / params.nx) as f64)
            .collect()
    }

    #[test]
    fn live_run_preserves_physics_across_repartitioning() {
        // 4 epochs × 3 steps == 12 sequential steps, whatever partition
        // sizes and worker counts the loop chooses along the way.
        let params = StencilParams::new(32, 8, 12);
        let seq = run_sequential(&params);
        for (workers, mode) in [(2, ALL_EPOCHS), (4, THROTTLED)] {
            let rt = Runtime::with_workers(workers);
            let (trace, grid) = adapt_live(
                &rt,
                initial_grid(&params),
                params.coefficient(),
                3,
                4,
                &mut tuner_from(8),
                mode,
            );
            assert_eq!(trace.epochs.len(), 4);
            assert_eq!(grid, seq, "re-partitioned run diverged from oracle");
        }
    }

    #[test]
    fn live_epochs_record_windowed_counters() {
        let params = StencilParams::new(64, 32, 8);
        let rt = Runtime::with_workers(2);
        let steps = 2;
        let (trace, _) = adapt_live(
            &rt,
            initial_grid(&params),
            params.coefficient(),
            steps,
            4,
            &mut tuner_from(16),
            TO_CONVERGENCE,
        );
        assert!(!trace.epochs.is_empty());
        for e in &trace.epochs {
            assert!(e.wall_s > 0.0);
            assert!((0.0..=1.0).contains(&e.idle_rate));
            // tasks in the window = partitions × steps of that window.
            let np = (params.total_points()).div_ceil(e.nx);
            assert_eq!(e.tasks as usize, np * steps, "window task accounting");
        }
    }

    /// The window is the runtime's own, whatever locality it serves: a
    /// registry path naming `locality#0` would read nothing here.
    #[test]
    fn live_epochs_read_the_runtimes_own_counters_on_any_locality() {
        // One worker: once `wait_idle` returns, nothing charges the
        // counters until the next epoch spawns, so a window taken around
        // a one-epoch run is that epoch's window exactly.
        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            locality_id: 1,
        });
        let params = StencilParams::new(64, 32, 8);
        let mut tuner = tuner_from(16);
        let mut grid = initial_grid(&params);
        for _ in 0..3 {
            let before = rt.counters().window();
            let (trace, next) = adapt_live(
                &rt,
                grid,
                params.coefficient(),
                2,
                1,
                &mut tuner,
                ALL_EPOCHS,
            );
            grid = next;
            let own = rt.counters().window().since(&before);
            let epoch = &trace.epochs[0];
            assert!(epoch.tasks > 0, "the epoch ran tasks: {epoch:?}");
            assert_eq!(epoch.tasks, own.tasks);
            assert_eq!(
                epoch.idle_rate,
                equations::idle_rate(own.exec_ns, own.func_ns)
            );
        }
    }

    #[test]
    fn live_tuner_escapes_fine_granularity() {
        let rt = Runtime::with_workers(2);
        let mut tuner = ThresholdTuner::new(TunerConfig {
            initial_nx: 4,
            target_idle_rate: 0.5,
            ..TunerConfig::default()
        });
        let (trace, _) = adapt_live(
            &rt,
            vec![0.0; 6_000],
            0.5,
            3,
            10,
            &mut tuner,
            TO_CONVERGENCE,
        );
        assert!(
            trace.final_nx > 4,
            "windowed idle-rate should push past nx=4 (epochs: {:?})",
            trace
                .epochs
                .iter()
                .map(|e| (e.nx, e.idle_rate))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn live_run_conserves_heat() {
        let params = StencilParams::new(16, 16, 10);
        let rt = Runtime::with_workers(3);
        let grid0 = initial_grid(&params);
        let expect = grid0.iter().sum::<f64>();
        // nx = 3: ragged partitions on purpose.
        let (_, grid) = adapt_live(
            &rt,
            grid0,
            params.coefficient(),
            5,
            2,
            &mut tuner_from(3),
            TO_CONVERGENCE,
        );
        let got = total_heat([&grid[..]]);
        assert!((got - expect).abs() < 1e-6 * expect);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn live_run_rejects_empty_grid() {
        let rt = Runtime::with_workers(1);
        let _ = adapt_live(
            &rt,
            Vec::new(),
            0.5,
            1,
            1,
            &mut tuner_from(1_000),
            TO_CONVERGENCE,
        );
    }

    #[test]
    fn live_run_throttles_on_coarse_grain() {
        // 2 partitions on a 4-worker pool: the throttle must cut the
        // pool after the first window.
        let rt = Runtime::with_workers(4);
        let (trace, _) = adapt_live(
            &rt,
            vec![1.0; 4_096],
            0.5,
            5,
            3,
            &mut pinned_tuner(2_048),
            THROTTLED,
        );
        assert_eq!(trace.epochs[0].workers, 4);
        assert_eq!(
            trace.epochs.iter().map(|e| e.workers).collect::<Vec<_>>(),
            [4, 2, 2]
        );
        assert_eq!(rt.active_workers(), 2);
    }
}
