//! The machine cost model: turns (task size, concurrency, residency) into
//! virtual nanoseconds, and scheduler operations into their modeled costs.

use grain_counters::rng::Pcg32;
use grain_topology::{NumaTopology, Platform};

/// A platform bound to a worker count, with the derived constants the
/// engine needs on its hot path.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// The platform being modeled.
    pub platform: Platform,
    /// Worker (core) count of this run.
    pub workers: usize,
    /// NUMA placement of the workers.
    pub numa: NumaTopology,
}

impl MachineModel {
    /// Bind `platform` to `workers` workers.
    pub fn new(platform: &Platform, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        assert!(
            workers <= platform.usable_cores,
            "{} workers exceed the {}'s {} usable cores",
            workers,
            platform.name,
            platform.usable_cores
        );
        Self {
            platform: platform.clone(),
            workers,
            numa: platform.numa_topology(workers),
        }
    }

    /// Scheduler-contention multiplier when `contenders` workers are
    /// simultaneously hammering the queue system (busy or searching, not
    /// parked-idle). The fine-grain regime keeps every worker contending;
    /// the coarse-grain regime leaves most workers idle and the queues
    /// quiet.
    pub fn contention(&self, contenders: usize) -> f64 {
        self.platform
            .perf
            .contention(contenders.clamp(1, self.workers))
    }

    /// Execution time of a task of `points` grid points while `active`
    /// tasks (including this one) execute concurrently. `footprint_bytes`
    /// is the workload's concurrent working set (0 = residency unknown).
    /// Jitter is multiplicative log-normal, drawn from `rng`.
    pub fn exec_ns(
        &self,
        points: u64,
        active: usize,
        footprint_bytes: f64,
        rng: &mut Pcg32,
    ) -> f64 {
        let perf = &self.platform.perf;
        let resident = self.is_resident(active, footprint_bytes);
        let per_point = perf.per_point_ns(active, self.workers, resident);
        let base = perf.task_fixed_ns + points as f64 * per_point;
        base * self.jitter(rng)
    }

    /// Cache-residency test: does each active core's share of the
    /// footprint fit in its private L2 plus its share of the socket LLC?
    fn is_resident(&self, active: usize, footprint_bytes: f64) -> bool {
        if footprint_bytes <= 0.0 {
            return false;
        }
        let active = active.max(1);
        let per_core = footprint_bytes / active as f64;
        let active_per_socket = active.div_ceil(self.platform.sockets.max(1));
        per_core <= self.platform.cache.share_per_core(active_per_socket as u64) as f64
    }

    /// Multiplicative log-normal jitter factor.
    pub fn jitter(&self, rng: &mut Pcg32) -> f64 {
        let sigma = self.platform.perf.jitter_sigma;
        if sigma <= 0.0 {
            return 1.0;
        }
        // Log-normal via the generator's Box-Muller draw; Pcg32 is
        // deterministic per seed.
        (sigma * rng.next_gaussian()).exp()
    }

    /// Modeled cost of one queue probe under `contenders`-way contention.
    pub fn probe_ns(&self, contenders: usize) -> f64 {
        self.platform.perf.queue_probe_ns * self.contention(contenders)
    }

    /// Modeled cost of a staged→pending conversion.
    pub fn convert_ns(&self, contenders: usize) -> f64 {
        self.platform.perf.convert_ns * self.contention(contenders)
    }

    /// Modeled fixed dispatch/retire cost per executed task.
    pub fn dispatch_ns(&self, contenders: usize) -> f64 {
        self.platform.perf.dispatch_ns * self.contention(contenders)
    }

    /// Modeled cost of spawning one task descriptor.
    pub fn spawn_ns(&self, contenders: usize) -> f64 {
        self.platform.perf.spawn_ns * self.contention(contenders)
    }

    /// Extra cost of a steal from worker `from` as seen by worker `to`.
    pub fn steal_extra_ns(&self, from: usize, to: usize, contenders: usize) -> f64 {
        if self.numa.same_domain(from, to) {
            self.platform.perf.steal_local_extra_ns * self.contention(contenders)
        } else {
            self.platform.perf.steal_remote_extra_ns * self.contention(contenders)
        }
    }

    /// Cost of one full *failed* search sweep: probing every queue in the
    /// six-step order and finding nothing. This and the two
    /// `*_probes_per_sweep` counts restate what one empty search of the
    /// runtime's scheduler probes, less the low-priority probe it ends
    /// with, so that idle sweeps can be charged in closed form.
    pub fn failed_sweep_ns(&self, contenders: usize) -> f64 {
        // own pending + own staged + each peer's staged + pending.
        let probes = 2 + 2 * (self.workers - 1);
        probes as f64 * self.probe_ns(contenders)
    }

    /// Pending-queue probes in one failed sweep.
    pub fn pending_probes_per_sweep(&self) -> u64 {
        self.workers as u64
    }

    /// Staged-queue probes in one failed sweep.
    pub fn staged_probes_per_sweep(&self) -> u64 {
        self.workers as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_topology::presets;

    fn hw(workers: usize) -> MachineModel {
        MachineModel::new(&presets::haswell(), workers)
    }

    #[test]
    fn exec_time_scales_with_points() {
        let m = hw(1);
        let mut rng = Pcg32::seed_from_u64(1);
        let small = m.exec_ns(1_000, 1, 0.0, &mut rng);
        let big = m.exec_ns(100_000, 1, 0.0, &mut rng);
        assert!(big > 50.0 * small / 2.0, "roughly linear in points");
    }

    #[test]
    fn zero_point_task_still_costs_fixed_time() {
        let m = hw(1);
        let mut rng = Pcg32::seed_from_u64(1);
        let t = m.exec_ns(0, 1, 0.0, &mut rng);
        let fixed = m.platform.perf.task_fixed_ns;
        // Only jitter separates the cost from the fixed term.
        assert!((fixed * 0.7..fixed * 1.4).contains(&t), "t = {t}");
    }

    #[test]
    fn contention_slows_tasks() {
        let m = hw(28);
        let mut rng = Pcg32::seed_from_u64(1);
        let alone = m.exec_ns(100_000, 1, 0.0, &mut rng);
        let crowded = m.exec_ns(100_000, 28, 0.0, &mut rng);
        assert!(crowded > 2.0 * alone);
    }

    #[test]
    fn residency_requires_fit() {
        let m = hw(4);
        // 1 MB footprint over 4 cores: 256 KB each, fits L2+LLC share.
        assert!(m.is_resident(4, 1024.0 * 1024.0));
        // 800 MB over 4 cores: 200 MB each, never fits.
        assert!(!m.is_resident(4, 800e6));
        // Unknown footprint: conservative.
        assert!(!m.is_resident(4, 0.0));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let m = hw(1);
        let mut a = Pcg32::seed_from_u64(7);
        let mut b = Pcg32::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(m.jitter(&mut a), m.jitter(&mut b));
        }
    }

    #[test]
    fn jitter_centers_near_one() {
        let m = hw(1);
        let mut rng = Pcg32::seed_from_u64(3);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| m.jitter(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean jitter {mean}");
    }

    #[test]
    fn steal_cost_depends_on_distance() {
        let m = hw(28); // two sockets of 14
        let local = m.steal_extra_ns(1, 0, 4);
        let remote = m.steal_extra_ns(20, 0, 4);
        assert!(remote > local);
    }

    #[test]
    fn scheduler_costs_scale_with_contenders() {
        let m = hw(28);
        assert!(m.probe_ns(28) > m.probe_ns(1));
        assert!(m.convert_ns(28) > m.convert_ns(1));
        assert!(m.dispatch_ns(28) > m.dispatch_ns(1));
        assert!(m.spawn_ns(28) > m.spawn_ns(1));
        // Contenders are clamped to the worker count.
        assert_eq!(m.contention(100), m.contention(28));
        assert_eq!(m.contention(0), m.contention(1));
    }

    #[test]
    #[should_panic(expected = "usable cores")]
    fn too_many_workers_rejected() {
        let _ = MachineModel::new(&presets::sandy_bridge(), 17);
    }
}
