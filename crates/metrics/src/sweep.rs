//! The granularity-sweep driver: the paper's experimental methodology
//! (§II) as a reusable harness.
//!
//! For each partition size in a grid and each core count, run the stencil
//! `samples` times, aggregate mean/stddev/COV, and pair every cell with
//! the matching 1-core task duration `t_d1` so Eqs. 5/6 (wait time) can be
//! evaluated. Works with either execution engine.

use crate::aggregate::Aggregate;
use crate::engine::{simulate, SimConfig};
use crate::record::RunRecord;
use grain_counters::equations;
use grain_runtime::{Runtime, RuntimeConfig};
use grain_sim::SimWorkload;
use grain_stencil::{run_futurized, stencil_workload, StencilParams};
use grain_topology::Platform;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Anything that can run the stencil at a given granularity and core
/// count and report the paper's counters.
pub trait StencilEngine {
    /// Label for reports ("sim:Haswell", "native:host").
    fn name(&self) -> String;
    /// Largest meaningful worker count.
    fn max_workers(&self) -> usize;
    /// Problem shape for a partition size.
    fn params_for(&self, nx: usize) -> StencilParams;
    /// Execute one sample.
    fn run(&self, nx: usize, workers: usize, sample: usize) -> RunRecord;
}

/// Base RNG seed of a simulated cell: sample `s` at partition size `nx`
/// uses `SEED_BASE + s + nx·0x9E3779B9`.
const SEED_BASE: u64 = 1_000;

/// The simulator engine: the paper's platforms, virtual time.
///
/// A cell is a pure function of `(nx, workers, sample)` — its seed
/// ignores the core list and the order cells are asked for — so every
/// [`StencilEngine::run`] result is memoized: one engine shared by
/// several sweeps computes each cell once.
pub struct SimEngine {
    /// Platform model (Table I preset or custom).
    platform: Platform,
    /// Total grid points (the paper: 100 M).
    total_points: usize,
    /// Time steps (the paper: 50, or 5 on the Xeon Phi).
    steps: usize,
    workload_cache: RefCell<Option<(usize, Rc<SimWorkload>)>>,
    cells: RefCell<HashMap<(usize, usize, usize), RunRecord>>,
}

impl SimEngine {
    /// The paper's configuration for `platform`: 100 M grid points, 50
    /// steps (5 on the Xeon Phi).
    pub fn paper(platform: Platform) -> Self {
        let steps = if platform.name == "Xeon Phi" { 5 } else { 50 };
        Self::scaled(platform, 100_000_000, steps)
    }

    /// A custom problem size (for quick runs and tests).
    pub fn scaled(platform: Platform, total_points: usize, steps: usize) -> Self {
        Self {
            platform,
            total_points,
            steps,
            workload_cache: RefCell::new(None),
            cells: RefCell::new(HashMap::new()),
        }
    }

    /// The platform model this engine simulates.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    fn workload(&self, nx: usize) -> Rc<SimWorkload> {
        let mut cache = self.workload_cache.borrow_mut();
        if let Some((cached_nx, wl)) = cache.as_ref() {
            if *cached_nx == nx {
                return Rc::clone(wl);
            }
        }
        let wl = Rc::new(stencil_workload(&self.params_for(nx)));
        *cache = Some((nx, Rc::clone(&wl)));
        wl
    }
}

impl StencilEngine for SimEngine {
    fn name(&self) -> String {
        format!("sim:{}", self.platform.name)
    }

    fn max_workers(&self) -> usize {
        self.platform.usable_cores
    }

    fn params_for(&self, nx: usize) -> StencilParams {
        StencilParams::for_total(self.total_points, nx, self.steps)
    }

    fn run(&self, nx: usize, workers: usize, sample: usize) -> RunRecord {
        let key = (nx, workers, sample);
        if let Some(rec) = self.cells.borrow().get(&key) {
            return rec.clone();
        }
        let params = self.params_for(nx);
        let wl = self.workload(nx);
        let cfg = SimConfig {
            seed: SEED_BASE
                .wrapping_add(sample as u64)
                .wrapping_add((nx as u64).wrapping_mul(0x9E37_79B9)),
        };
        let report = simulate(&self.platform, workers, &wl, &cfg);
        let rec = RunRecord::from_sim(&report, &self.platform.name, &params);
        self.cells.borrow_mut().insert(key, rec.clone());
        rec
    }
}

/// The native engine: real OS threads on the host, real time.
pub struct NativeEngine {
    /// Total grid points.
    pub total_points: usize,
    /// Time steps.
    pub steps: usize,
}

impl NativeEngine {
    /// Native runs scaled to a laptop-sized problem.
    pub fn scaled(total_points: usize, steps: usize) -> Self {
        Self {
            total_points,
            steps,
        }
    }
}

impl StencilEngine for NativeEngine {
    fn name(&self) -> String {
        "native:host".to_owned()
    }

    fn max_workers(&self) -> usize {
        // Worker threads are OS threads, so oversubscription is
        // functionally sound (timing fidelity then degrades gracefully);
        // allow a generous factor over the physical cores.
        grain_topology::host::available_cores() * 8
    }

    fn params_for(&self, nx: usize) -> StencilParams {
        StencilParams::for_total(self.total_points, nx, self.steps)
    }

    fn run(&self, nx: usize, workers: usize, _sample: usize) -> RunRecord {
        let params = self.params_for(nx);
        let rt = Runtime::new(RuntimeConfig::with_workers(workers));
        let t0 = std::time::Instant::now();
        let _ = run_futurized(&rt, &params);
        let wall = t0.elapsed().as_secs_f64();
        RunRecord::from_native(&rt, wall, &params)
    }
}

/// One (partition size, core count) cell of a sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Partition size.
    pub nx: usize,
    /// Partition count.
    pub np: usize,
    /// Core count.
    pub workers: usize,
    /// Aggregated samples.
    pub agg: Aggregate,
    /// Mean 1-core task duration for this `nx` (Eq. 5 baseline), ns.
    pub td1_ns: f64,
}

impl SweepCell {
    /// Eq. 5 — mean wait time per task, ns.
    pub fn wait_per_task_ns(&self) -> f64 {
        equations::wait_per_task_ns(self.agg.task_duration_ns.mean(), self.td1_ns)
    }

    /// Eq. 6 — mean wait time per core, seconds.
    pub fn wait_time_s(&self) -> f64 {
        equations::wait_time_s(
            self.agg.task_duration_ns.mean(),
            self.td1_ns,
            self.agg.tasks.mean() as u64,
            self.workers,
        )
    }

    /// Eq. 4 — mean thread-management overhead, seconds.
    pub fn thread_management_s(&self) -> f64 {
        self.agg.thread_management_s.mean()
    }

    /// Combined cost (Fig. 7/8's "HPX-TM & WT" curve), seconds.
    pub fn combined_cost_s(&self) -> f64 {
        self.thread_management_s() + self.wait_time_s()
    }
}

/// Results of a full granularity × core-count sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Engine label.
    pub engine: String,
    /// Partition sizes swept.
    pub grid: Vec<usize>,
    /// Core counts swept.
    pub workers: Vec<usize>,
    /// Samples per cell.
    pub samples: usize,
    /// All cells, ordered by (grid index, worker index).
    pub cells: Vec<SweepCell>,
}

impl Sweep {
    /// Cell for a given partition size and core count.
    pub fn cell(&self, nx: usize, workers: usize) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.nx == nx && c.workers == workers)
    }

    /// All cells with the given core count, in grid order — one series
    /// (line) of a paper figure.
    pub fn series(&self, workers: usize) -> Vec<&SweepCell> {
        self.grid
            .iter()
            .filter_map(|&nx| self.cell(nx, workers))
            .collect()
    }

    /// The partition size minimizing mean execution time for a core
    /// count.
    pub fn best_nx(&self, workers: usize) -> Option<(usize, f64)> {
        self.series(workers)
            .into_iter()
            .map(|c| (c.nx, c.agg.wall_s.mean()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Run a sweep: every `nx` × `workers` cell, `samples` times each, plus
/// the 1-core baseline per `nx` needed by the wait-time metrics.
/// `progress` (if given) receives one line per completed cell.
pub fn run_sweep(
    engine: &dyn StencilEngine,
    grid: &[usize],
    workers: &[usize],
    samples: usize,
    progress: Option<&dyn Fn(&str)>,
) -> Sweep {
    assert!(samples >= 1);
    let mut cells = Vec::new();
    for &nx in grid {
        let np = engine.params_for(nx).np;

        // 1-core baseline for t_d1 (reused if 1 is part of the sweep).
        let base_records: Vec<RunRecord> =
            (0..samples.min(3)).map(|s| engine.run(nx, 1, s)).collect();
        let td1_ns = Aggregate::from_records(&base_records)
            .task_duration_ns
            .mean();

        for &w in workers {
            if w > engine.max_workers() {
                continue;
            }
            let agg = if w == 1 {
                Aggregate::from_records(&base_records)
            } else {
                let records: Vec<RunRecord> = (0..samples).map(|s| engine.run(nx, w, s)).collect();
                Aggregate::from_records(&records)
            };
            if let Some(p) = progress {
                p(&format!(
                    "{} nx={nx} np={np} cores={w}: exec {:.3}s idle-rate {:.1}%",
                    engine.name(),
                    agg.wall_s.mean(),
                    agg.idle_rate.mean() * 100.0
                ));
            }
            cells.push(SweepCell {
                nx,
                np,
                workers: w,
                agg,
                td1_ns,
            });
        }
    }
    Sweep {
        engine: engine.name(),
        grid: grid.to_vec(),
        workers: workers.to_vec(),
        samples,
        cells,
    }
}

/// Partition-size grids.
pub mod grids {
    /// The paper's sweep range (§II: 160 → 100 M points), restricted to
    /// the region its figures plot (10³ → 10⁸) with the specific sizes it
    /// names (12 500, 31 250, 40 000, 78 125, …), log-spaced.
    pub fn paper() -> Vec<usize> {
        vec![
            1_000,
            1_600,
            2_500,
            4_000,
            6_250,
            10_000,
            12_500,
            20_000,
            31_250,
            40_000,
            50_000,
            78_125,
            100_000,
            160_000,
            250_000,
            400_000,
            625_000,
            1_000_000,
            1_600_000,
            2_500_000,
            4_000_000,
            6_250_000,
            10_000_000,
            25_000_000,
            50_000_000,
            100_000_000,
        ]
    }

    /// The fine-to-medium window of Fig. 6 (10 000 → 90 000).
    pub fn fig6_window() -> Vec<usize> {
        vec![
            10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000, 80_000, 90_000,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_topology::presets;

    fn tiny_sim() -> SimEngine {
        // 200k points, 4 steps: fast but non-trivial.
        SimEngine::scaled(presets::haswell(), 200_000, 4)
    }

    #[test]
    fn sweep_produces_all_cells() {
        let engine = tiny_sim();
        let sweep = run_sweep(&engine, &[10_000, 100_000], &[1, 4], 2, None);
        assert_eq!(sweep.cells.len(), 4);
        assert!(sweep.cell(10_000, 4).is_some());
        assert!(sweep.cell(999, 4).is_none());
        assert_eq!(sweep.series(4).len(), 2);
    }

    #[test]
    fn sweep_skips_impossible_core_counts() {
        let engine = tiny_sim();
        let sweep = run_sweep(&engine, &[100_000], &[1, 4, 512], 1, None);
        assert_eq!(sweep.cells.len(), 2, "512 > 28 usable cores is skipped");
    }

    #[test]
    fn td1_baseline_is_positive_and_shared() {
        let engine = tiny_sim();
        let sweep = run_sweep(&engine, &[50_000], &[1, 2, 4], 2, None);
        let tds: Vec<f64> = sweep.cells.iter().map(|c| c.td1_ns).collect();
        assert!(tds.iter().all(|&t| t > 0.0));
        assert!(tds.windows(2).all(|w| w[0] == w[1]), "same nx → same td1");
    }

    #[test]
    fn parallel_cells_run_faster_than_serial() {
        let engine = tiny_sim();
        let sweep = run_sweep(&engine, &[10_000], &[1, 8], 1, None);
        let serial = sweep.cell(10_000, 1).unwrap().agg.wall_s.mean();
        let parallel = sweep.cell(10_000, 8).unwrap().agg.wall_s.mean();
        assert!(parallel < serial);
    }

    #[test]
    fn best_nx_prefers_medium_grain() {
        // With a very fine option, a medium option and a starving-coarse
        // option, the medium one must win at 8 cores.
        let engine = SimEngine::scaled(presets::haswell(), 1_000_000, 4);
        let sweep = run_sweep(&engine, &[200, 20_000, 1_000_000], &[8], 1, None);
        let (best, _) = sweep.best_nx(8).unwrap();
        assert_eq!(best, 20_000, "medium grain should minimize time");
    }

    #[test]
    fn native_engine_measures_real_runs() {
        let engine = NativeEngine::scaled(20_000, 3);
        let rec = engine.run(1_000, 2, 0);
        assert_eq!(rec.meta.nx, 1_000);
        assert_eq!(rec.window.tasks as usize, 20 * 3);
        assert!(rec.wall_s > 0.0);
    }

    #[test]
    fn a_shared_engine_computes_the_cells_a_fresh_one_does() {
        let grid = [10_000, 100_000];
        let shared = tiny_sim();
        run_sweep(&shared, &grid, &[8, 16], 2, None);
        let cores = shared.platform().core_sweep();
        run_sweep(&shared, &grid, &cores, 2, None);
        for &nx in &grid {
            for &w in &cores {
                for s in 0..2 {
                    let rec = shared.run(nx, w, s);
                    let fresh = tiny_sim().run(nx, w, s);
                    assert_eq!(rec, fresh, "nx={nx} cores={w} sample={s}");
                    assert_eq!(rec, shared.run(nx, w, s), "a repeated run");
                }
            }
        }
    }

    #[test]
    fn grids_are_sorted_and_in_range() {
        for g in [grids::paper(), grids::fig6_window()] {
            assert!(g.windows(2).all(|w| w[0] < w[1]));
            assert!(*g.first().unwrap() >= 160);
            assert!(*g.last().unwrap() <= 100_000_000);
        }
    }

    #[test]
    fn progress_callback_fires_per_cell() {
        let engine = tiny_sim();
        let count = std::cell::Cell::new(0usize);
        let cb = |_line: &str| count.set(count.get() + 1);
        run_sweep(&engine, &[10_000], &[1, 2], 1, Some(&cb));
        assert_eq!(count.get(), 2);
    }
}
