//! Platform descriptions: hardware facts (Table I) plus calibrated
//! performance parameters for the simulator.

use crate::cache::CacheSpec;
use crate::numa::NumaTopology;

/// A full experimental platform: the Table I hardware facts plus the
/// calibrated cost model ([`PerfParams`]) the discrete-event simulator
/// uses to turn "task of `n` grid points on `c` active cores" into time.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Short name used in reports ("Haswell", "Xeon Phi", …).
    pub name: String,
    /// Processor model string, as in Table I.
    pub processors: String,
    /// Microarchitecture, as in Table I.
    pub microarchitecture: String,
    /// Nominal clock frequency, GHz.
    pub clock_ghz: f64,
    /// Turbo clock frequency, GHz (equal to `clock_ghz` if no turbo).
    pub turbo_ghz: f64,
    /// Hardware threads per core ("2-way (deactivated)" → 2).
    pub hw_threads_per_core: u32,
    /// Whether hardware threading was active in the study's configuration.
    pub hw_threads_active: bool,
    /// Total physical cores.
    pub cores: usize,
    /// Cores usable for worker threads in the study's configuration
    /// (on the Xeon Phi one core is conventionally left to the OS:
    /// 61 physical, 60 used — the paper sweeps 1…60).
    pub usable_cores: usize,
    /// Number of sockets / NUMA domains.
    pub sockets: usize,
    /// Cache hierarchy.
    pub cache: CacheSpec,
    /// Installed RAM, bytes.
    pub ram_bytes: u64,
    /// Calibrated simulator cost model.
    pub perf: PerfParams,
}

impl Platform {
    /// NUMA topology for running `workers` workers on this platform
    /// (block placement over the sockets, HPX's default).
    pub fn numa_topology(&self, workers: usize) -> NumaTopology {
        // Workers only spill onto the second socket once the first is full,
        // mirroring block placement of one OS thread per core.
        let cores_per_socket = self.cores / self.sockets.max(1);
        let domains_needed = if cores_per_socket == 0 {
            1
        } else {
            workers.div_ceil(cores_per_socket).clamp(1, self.sockets)
        };
        NumaTopology::block(workers, domains_needed)
    }

    /// The core counts the paper sweeps on this platform (the legend of
    /// Fig. 3): powers of two up to the usable node size, plus the usable
    /// node size itself.
    pub fn core_sweep(&self) -> Vec<usize> {
        let (mut v, mut cores) = (vec![1usize], 1);
        while cores * 2 < self.usable_cores {
            cores *= 2;
            v.push(cores);
        }
        if cores != self.usable_cores {
            v.push(self.usable_cores);
        }
        v
    }
}

/// Calibrated cost parameters for the simulator.
///
/// Every constant is a fit to measurements reported in the paper's text and
/// figures (see DESIGN.md "calibration targets" and EXPERIMENTS.md for the
/// fit residuals); none of them affects the *correctness* of the native
/// runtime, only the *shape fidelity* of simulated experiments.
///
/// ## Kernel model
///
/// A task updating `n` grid points executes for
///
/// ```text
/// t_exec(n) = task_fixed_ns + n · per_point(active, resident) · jitter
/// ```
///
/// where the per-point time follows a saturating aggregate-throughput
/// model: with `a` cores actively executing tasks, the node sustains
///
/// ```text
/// R(a) = aggregate_rate · (1 − exp(−a · r1 / aggregate_rate)),
/// r1   = 1 / ns_per_point
/// ```
///
/// grid-point updates per nanosecond in total, i.e. `per_point = a / R(a)`.
/// This single curve reproduces the measured strong-scaling profile of the
/// stencil on every platform (memory-bandwidth saturation on the Xeon
/// parts, ring/GDDR saturation on the Phi). Two refinements:
///
/// * **first-touch striping** — on runs with more than one worker, pages
///   are first-touched by many workers and therefore striped across both
///   memory controllers; a *lone* active task then streams at
///   `stripe_factor × r1`, which is how the paper's *negative* wait times
///   at very coarse grain arise (Eq. 5 compares against the 1-core run).
/// * **cache residency** — if a core revisits its partition before
///   touching more bytes than its cache share, the per-point time floors
///   at `ns_per_point_cached` instead (relevant at coarse grain on small
///   numbers of partitions).
///
/// ## Scheduler cost model
///
/// Queue probes, staged→pending conversion, dispatch and spawn each carry a
/// base cost, multiplied under parallelism by a contention factor
/// `1 + contention_alpha · (workers − 1)^contention_gamma` — the empirical
/// queue/steal contention collapse that produces the paper's ~90 % idle
/// rates for very fine grain at high core counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfParams {
    /// Fixed execution cost per task, ns — partition allocation, result
    /// construction, future bookkeeping executed *inside* the task body.
    pub task_fixed_ns: f64,
    /// Per-grid-point kernel time for a single unconstrained core
    /// streaming from memory, ns/point.
    pub ns_per_point: f64,
    /// Per-grid-point kernel time when the partition is resident in the
    /// core's cache share, ns/point (compute-bound floor).
    pub ns_per_point_cached: f64,
    /// Saturated aggregate node throughput, grid points per ns.
    pub aggregate_rate_pts_per_ns: f64,
    /// First-touch striping speedup available to a lone active stream on a
    /// multi-worker run (dimensionless ≥ 1).
    pub stripe_factor: f64,
    /// Bytes of memory traffic per grid point (for cache-fit reasoning).
    pub bytes_per_point: f64,
    /// Cost of probing one queue (pop attempt incl. counter bump), ns.
    pub queue_probe_ns: f64,
    /// Cost of converting a staged descriptor into a pending task
    /// (HPX: context allocation), ns.
    pub convert_ns: f64,
    /// Fixed dispatch + retire overhead per executed task (dequeue, state
    /// transitions, context switch back to the scheduler), ns.
    pub dispatch_ns: f64,
    /// Cost of creating one task descriptor at spawn time (charged to the
    /// worker running the spawning continuation), ns.
    pub spawn_ns: f64,
    /// Extra cost of taking work from another worker in the same NUMA
    /// domain, ns.
    pub steal_local_extra_ns: f64,
    /// Extra cost of taking work from a remote NUMA domain, ns.
    pub steal_remote_extra_ns: f64,
    /// Linear coefficient of the scheduler-contention multiplier.
    pub contention_alpha: f64,
    /// Exponent of the scheduler-contention multiplier.
    pub contention_gamma: f64,
    /// Log-normal execution-time jitter: sigma of ln(time). Produces the
    /// paper's COV < 3 % at coarse grain and larger COV at fine grain.
    pub jitter_sigma: f64,
}

impl PerfParams {
    /// Aggregate sustainable throughput with `active` cores executing
    /// tasks, grid points per ns (the saturating strong-scaling curve).
    pub fn aggregate_rate(&self, active: usize) -> f64 {
        let r1 = 1.0 / self.ns_per_point;
        let rs = self.aggregate_rate_pts_per_ns;
        rs * (1.0 - (-(active as f64) * r1 / rs).exp())
    }

    /// Effective per-point time for one of `active` concurrently executing
    /// tasks on a run configured with `workers` workers, ns/point.
    /// `resident` selects the cache-resident floor.
    pub fn per_point_ns(&self, active: usize, workers: usize, resident: bool) -> f64 {
        let active = active.max(1);
        if resident {
            return self.ns_per_point_cached;
        }
        let shared = active as f64 / self.aggregate_rate(active);
        // A lone stream on a multi-worker run benefits from first-touch
        // page striping across controllers.
        let lone_floor = if workers > 1 {
            self.ns_per_point / self.stripe_factor
        } else {
            self.ns_per_point
        };
        shared.max(0.0).max(self.ns_per_point_cached).min(
            // `shared` at active=1 equals ns_per_point; allow the striping
            // boost to undercut it, but never below the cached floor.
            if active == 1 {
                lone_floor.max(self.ns_per_point_cached)
            } else {
                f64::INFINITY
            },
        )
    }

    /// Scheduler-contention multiplier with `workers` workers.
    pub fn contention(&self, workers: usize) -> f64 {
        if workers <= 1 {
            1.0
        } else {
            1.0 + self.contention_alpha * ((workers - 1) as f64).powf(self.contention_gamma)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::presets;

    #[test]
    fn core_sweep_matches_fig3_legends() {
        let sb = presets::sandy_bridge();
        assert_eq!(sb.core_sweep(), vec![1, 2, 4, 8, 16]);
        let hw = presets::haswell();
        assert_eq!(hw.core_sweep(), vec![1, 2, 4, 8, 16, 28]);
        let phi = presets::xeon_phi();
        assert_eq!(phi.core_sweep(), vec![1, 2, 4, 8, 16, 32, 60]);
        let ib = presets::ivy_bridge();
        assert_eq!(ib.core_sweep(), vec![1, 2, 4, 8, 16, 20]);
    }

    #[test]
    fn numa_topology_fills_first_socket_first() {
        let hw = presets::haswell();
        let t = hw.numa_topology(8);
        // 8 workers fit in one 14-core socket → one domain.
        assert_eq!(t.domains(), 1);
        let t = hw.numa_topology(20);
        assert_eq!(t.domains(), 2);
        let t = hw.numa_topology(28);
        assert_eq!(t.domains(), 2);
        assert_eq!(t.workers_in(0).count(), 14);
    }

    #[test]
    fn single_socket_platform_is_flat() {
        let phi = presets::xeon_phi();
        let t = phi.numa_topology(60);
        assert_eq!(t.domains(), 1);
    }

    #[test]
    fn aggregate_rate_saturates() {
        let p = presets::haswell().perf;
        let r1 = p.aggregate_rate(1);
        let r8 = p.aggregate_rate(8);
        let r28 = p.aggregate_rate(28);
        assert!(r1 < r8 && r8 < r28);
        assert!(r28 <= p.aggregate_rate_pts_per_ns);
        // Adding cores past saturation barely helps.
        let r16 = p.aggregate_rate(16);
        assert!((r28 - r16) / r16 < 0.10);
    }

    #[test]
    fn per_point_time_grows_with_contention() {
        let p = presets::haswell().perf;
        let one = p.per_point_ns(1, 1, false);
        let many = p.per_point_ns(28, 28, false);
        assert!(
            many > 2.0 * one,
            "28-way sharing must inflate per-point time"
        );
    }

    #[test]
    fn lone_stream_on_parallel_run_is_faster_than_single_core_run() {
        // The negative-wait-time mechanism (Eq. 5 at very coarse grain).
        let p = presets::haswell().perf;
        let td1 = p.per_point_ns(1, 1, false);
        let lone = p.per_point_ns(1, 28, false);
        assert!(lone < td1);
    }

    #[test]
    fn cached_floor_is_fastest() {
        let p = presets::haswell().perf;
        let cached = p.per_point_ns(4, 28, true);
        assert_eq!(cached, p.ns_per_point_cached);
        assert!(cached <= p.per_point_ns(4, 28, false));
    }

    #[test]
    fn contention_multiplier_is_monotone() {
        let p = presets::xeon_phi().perf;
        assert_eq!(p.contention(1), 1.0);
        assert!(p.contention(16) > p.contention(2));
        assert!(p.contention(60) > p.contention(16));
    }
}
