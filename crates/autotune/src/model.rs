//! A deterministic host cost model for replayable convergence storms.
//!
//! The tuner's *decision inputs* under the storm harness must not
//! depend on wall-clock measurement, or a replay would diverge
//! (`tests/convergence.rs`'s `storms_replay_bit_identically` replays
//! each storm in-process and compares). This module provides the
//! closed-form stand-in: the paper's two-component task cost — a fixed
//! per-task management overhead `t_o` plus work linear in the grain —
//! evaluated over an idealized `cores`-wide machine. From it the model
//! derives the signal the policy hook reads off a completed job: the
//! job's own Eq. 1 idle rate (its phases' non-exec share,
//! `t_o / (t_o + grain·w)`) and its tasks per core, so a tuner set
//! against the model behaves identically against a real host whose
//! costs match.
//!
//! Real jobs reach the same tuner through `Autotune::policy_hook`
//! (this crate's `tests/service.rs`); no measured number reaches the
//! storm's transcript.

use grain_adaptive::{GrainSignal, TunerConfig};

/// Closed-form machine model: `tasks = ceil(units/grain)` tasks, each
/// costing `overhead_ns_per_task + grain · ns_per_unit`, scheduled
/// greedily over `cores` cores.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed task-management cost per task (the paper's t_o), ns.
    pub overhead_ns_per_task: f64,
    /// Work cost per work unit (busy-work iteration), ns.
    pub ns_per_unit: f64,
    /// Cores of the modeled machine.
    pub cores: usize,
}

impl CostModel {
    /// Task count a job of `units` expands to at `grain`.
    pub fn tasks(&self, units: u64, grain: u64) -> u64 {
        units.max(1).div_ceil(grain.max(1))
    }

    /// Modeled makespan of the job, ns: rounds of `cores` tasks, each
    /// round costing one task's full (overhead + work) time.
    pub fn wall_ns(&self, units: u64, grain: u64) -> f64 {
        let tasks = self.tasks(units, grain);
        let rounds = tasks.div_ceil(self.cores.max(1) as u64);
        let per_task = self.overhead_ns_per_task + grain.max(1) as f64 * self.ns_per_unit;
        rounds as f64 * per_task
    }

    /// The modeled per-task overhead *as measured*: idle machine time
    /// divided over the tasks — what a run's `Window::task_overhead_ns`
    /// reports on a real host (Eq. 3).
    pub fn measured_overhead_ns(&self, units: u64, grain: u64) -> f64 {
        let tasks = self.tasks(units, grain) as f64;
        let busy = units.max(1) as f64 * self.ns_per_unit;
        let machine = self.wall_ns(units, grain) * self.cores.max(1) as f64;
        (machine - busy).max(0.0) / tasks
    }

    /// The signal the policy hook reads off one job at
    /// `(units, grain)`: the job's own Eq. 1 — each task's `t_o` over
    /// its `t_o + grain·w` — and its tasks per core.
    pub fn signal(&self, units: u64, grain: u64) -> GrainSignal {
        let work = grain.max(1) as f64 * self.ns_per_unit;
        GrainSignal {
            idle_rate: self.overhead_ns_per_task / (self.overhead_ns_per_task + work),
            tasks_per_core: self.tasks(units, grain) as f64 / self.cores.max(1) as f64,
        }
    }

    /// The hand-tuned optimum: the grain minimizing the modeled
    /// makespan over a multiplicative grid inside the tuner bounds.
    /// Deterministic; this is the storm harness's reference answer.
    pub fn optimal_grain(&self, units: u64, bounds: &TunerConfig) -> u64 {
        let lo = bounds.min_nx.max(1) as u64;
        let hi = (bounds.max_nx as u64).min(units.max(1)).max(lo);
        let mut best = lo;
        let mut best_wall = self.wall_ns(units, lo);
        let mut g = lo;
        while g < hi {
            g = (g.saturating_mul(2)).min(hi);
            let w = self.wall_ns(units, g);
            if w < best_wall {
                best_wall = w;
                best = g;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel {
            overhead_ns_per_task: 2_000.0,
            ns_per_unit: 1.0,
            cores: 4,
        }
    }

    #[test]
    fn extremes_cost_more_than_the_optimum() {
        let m = model();
        let units = 1 << 20;
        let opt = m.optimal_grain(units, &TunerConfig::default());
        let wall_opt = m.wall_ns(units, opt);
        assert!(m.wall_ns(units, 16) > wall_opt, "too fine pays overhead");
        assert!(
            m.wall_ns(units, units) > wall_opt,
            "one giant task starves 3 of 4 cores"
        );
    }

    #[test]
    fn signals_mark_the_two_bad_regimes() {
        let m = model();
        let units = 1 << 20;
        let fine = m.signal(units, 16);
        assert!(fine.idle_rate > 0.9, "tiny tasks are all overhead");
        let coarse = m.signal(units, units);
        assert!(coarse.tasks_per_core < 1.0, "one task cannot feed 4 cores");
        let opt = m.optimal_grain(units, &TunerConfig::default());
        let good = m.signal(units, opt);
        assert!(good.idle_rate < fine.idle_rate);
        assert!(good.tasks_per_core > coarse.tasks_per_core);
    }

    #[test]
    fn measured_overhead_is_minimized_near_the_optimum() {
        let m = model();
        let units = 1 << 20;
        let opt = m.optimal_grain(units, &TunerConfig::default());
        let at_opt = m.measured_overhead_ns(units, opt);
        assert!(at_opt <= m.measured_overhead_ns(units, 16));
        // Note: measured t_o grows without bound in the starved regime
        // because the idle cores' time is charged to very few tasks.
        assert!(at_opt < m.measured_overhead_ns(units, units));
    }

    #[test]
    fn model_is_deterministic() {
        let m = model();
        for g in [1u64, 100, 10_000, 1 << 20] {
            assert_eq!(m.wall_ns(1 << 20, g), m.wall_ns(1 << 20, g));
            assert_eq!(m.signal(1 << 20, g), m.signal(1 << 20, g));
        }
    }
}
