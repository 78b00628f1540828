//! The per-tenant grain controller: tuner + hysteresis + safe bounds.
//!
//! A [`GrainController`] owns one [`ThresholdTuner`] and adds the two
//! properties a *service* policy needs that a bare tuner does not have:
//!
//! * **Hysteresis** — once the tuner converges, the grain freezes.
//!   In-band observations (pressure under the target plus a tolerance
//!   band, enough tasks per core) keep it frozen; only
//!   `OUT_OF_BAND_JOBS` *consecutive* out-of-band jobs re-open a
//!   probe. A tenant whose workload is stable therefore never
//!   oscillates, and one noisy job never causes a re-probe.
//! * **Safe bounds** — the grain stays inside the tuner's
//!   `[min_nx, max_nx]` range, and [`GrainController::effective_grain`]
//!   additionally caps the task count a shape may expand to
//!   (`MAX_TASKS_PER_JOB`), so a mis-set tuner can never flood the
//!   runtime with millions of tiny tasks or starve it with one giant
//!   one.
//!
//! The controller is a deterministic state machine: the same sequence
//! of [`GrainSignal`]s always produces the same sequence of grains,
//! which is what makes convergence storms replayable bit-for-bit.

#![deny(clippy::unwrap_used)]

use grain_adaptive::{GrainSignal, ThresholdTuner, TunerConfig};

/// Hard cap on the task count any shaped job may expand to; the starve
/// guard [`GrainController::effective_grain`] coarsens the grain as
/// needed to respect it. A bound on what one job can queue, not a tuning
/// decision.
const MAX_TASKS_PER_JOB: u64 = 4096;
/// Width of the hysteresis band above the idle-rate target: a frozen
/// tenant tolerates `target_idle_rate + HYSTERESIS_BAND` before an
/// observation counts as out-of-band.
const HYSTERESIS_BAND: f64 = 0.15;
/// Consecutive out-of-band jobs required to re-open a probe after
/// convergence: one noisy job, or two, is not a regime change.
const OUT_OF_BAND_JOBS: u32 = 3;

/// Configuration of the autotune subsystem (shared by every tenant's
/// controller).
#[derive(Debug, Clone, Copy)]
pub struct AutotuneConfig {
    /// Master switch. When false, every controller pins its tenant to
    /// `tuner.initial_nx` forever — submissions expand exactly as a
    /// hand-partitioned job would (the byte-identical legacy path).
    pub enabled: bool,
    /// Tuner bounds and targets: initial/min/max grain (work units
    /// per task), idle-rate target, multiplicative step.
    pub tuner: TunerConfig,
    /// Core count used to derive per-job signals from measured
    /// outcomes (set from the service runtime by `Autotune::attach`).
    pub cores: usize,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            tuner: TunerConfig::default(),
            cores: 1,
        }
    }
}

/// One tenant's grain controller. See the module docs for the model.
pub struct GrainController {
    cfg: AutotuneConfig,
    tuner: ThresholdTuner,
    grain: u64,
    frozen: bool,
    out_of_band: u32,
    jobs: u64,
    probes: u64,
    adjustments: u64,
}

impl GrainController {
    /// A controller starting at the configured initial grain. An
    /// enabled controller starts in its first probe phase.
    pub fn new(cfg: AutotuneConfig) -> Self {
        let grain = (cfg
            .tuner
            .initial_nx
            .clamp(cfg.tuner.min_nx, cfg.tuner.max_nx)) as u64;
        Self {
            cfg,
            tuner: ThresholdTuner::new(cfg.tuner),
            grain,
            frozen: false,
            out_of_band: 0,
            jobs: 0,
            probes: u64::from(cfg.enabled),
            adjustments: 0,
        }
    }

    /// The grain (work units per task) the tenant's next job should be
    /// chunked at.
    pub fn grain(&self) -> u64 {
        self.grain
    }

    /// The grain to actually expand a job of `units` total work with:
    /// the controller's grain, coarsened if needed so the job never
    /// expands to more than `MAX_TASKS_PER_JOB` (4096) tasks. This bound
    /// holds whatever the tuner does — it is the runtime's starvation
    /// guard, not a tuning decision.
    pub fn effective_grain(&self, units: u64) -> u64 {
        let floor = units.div_ceil(MAX_TASKS_PER_JOB);
        self.grain.max(floor).max(1)
    }

    /// True while the controller sits in its hysteresis band (the
    /// tuner converged and recent jobs stayed in-band).
    pub fn converged(&self) -> bool {
        self.frozen || !self.cfg.enabled
    }

    /// Jobs observed so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Probe phases opened so far (1 for a converged first probe; +1
    /// per hysteresis exit).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Grain changes applied so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// An observation is in-band when neither overload signal exceeds
    /// the target plus the hysteresis band and the tenant is not
    /// outright starving the cores.
    fn in_band(&self, sig: &GrainSignal) -> bool {
        sig.pressure() <= self.cfg.tuner.target_idle_rate + HYSTERESIS_BAND
            && sig.tasks_per_core >= 1.0
    }

    /// Feed one completed job's signals; returns the grain for the
    /// tenant's next job.
    pub fn observe(&mut self, sig: &GrainSignal) -> u64 {
        self.jobs += 1;
        if !self.cfg.enabled {
            return self.grain;
        }
        if self.frozen {
            if self.in_band(sig) {
                self.out_of_band = 0;
                return self.grain;
            }
            self.out_of_band += 1;
            if self.out_of_band < OUT_OF_BAND_JOBS {
                return self.grain;
            }
            // The regime genuinely moved: re-open a probe.
            self.frozen = false;
            self.out_of_band = 0;
            self.probes += 1;
        }
        // The tuner keeps itself inside `[min_nx, max_nx]`; a grain is
        // additionally never zero.
        let next = (self.tuner.observe(sig) as u64).max(1);
        if next != self.grain {
            self.adjustments += 1;
            self.grain = next;
        }
        if self.tuner.converged() {
            self.frozen = true;
        }
        self.grain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(idle: f64, tpc: f64) -> GrainSignal {
        GrainSignal::from_idle_rate(idle, tpc)
    }

    #[test]
    fn disabled_controller_never_moves() {
        let mut c = GrainController::new(AutotuneConfig {
            enabled: false,
            ..AutotuneConfig::default()
        });
        let g0 = c.grain();
        for _ in 0..10 {
            assert_eq!(c.observe(&sig(0.95, 200.0)), g0);
        }
        assert_eq!(c.adjustments(), 0);
        assert_eq!(c.probes(), 0);
        assert!(c.converged(), "a pinned controller is trivially settled");
    }

    #[test]
    fn freezes_after_convergence_and_tolerates_noise() {
        let mut c = GrainController::new(AutotuneConfig::default());
        // Two in-band windows converge the tuner.
        c.observe(&sig(0.1, 50.0));
        c.observe(&sig(0.1, 50.0));
        assert!(c.converged());
        let frozen = c.grain();
        // One or two out-of-band jobs are absorbed by hysteresis.
        c.observe(&sig(0.95, 50.0));
        c.observe(&sig(0.95, 50.0));
        assert_eq!(c.grain(), frozen, "band absorbs transient noise");
        assert!(c.converged());
    }

    #[test]
    fn sustained_regime_change_reopens_a_probe() {
        let mut c = GrainController::new(AutotuneConfig::default());
        c.observe(&sig(0.1, 50.0));
        c.observe(&sig(0.1, 50.0));
        assert!(c.converged());
        let probes_before = c.probes();
        let frozen = c.grain();
        for _ in 0..3 {
            c.observe(&sig(0.95, 50.0));
        }
        assert_eq!(c.probes(), probes_before + 1, "probe re-opened");
        assert!(c.grain() > frozen, "overhead regime coarsens the grain");
    }

    #[test]
    fn effective_grain_caps_the_task_count() {
        let cfg = AutotuneConfig {
            tuner: TunerConfig {
                initial_nx: 16,
                min_nx: 16,
                ..TunerConfig::default()
            },
            ..AutotuneConfig::default()
        };
        let c = GrainController::new(cfg);
        // 1M units at grain 16 would be 62_500 tasks; the guard
        // coarsens to exactly the cap.
        let g = c.effective_grain(1_000_000);
        assert!(g > 16);
        assert!(1_000_000u64.div_ceil(g) <= MAX_TASKS_PER_JOB);
        // Small jobs keep the tuned grain.
        assert_eq!(c.effective_grain(160), 16);
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut c = GrainController::new(AutotuneConfig::default());
            (0..20)
                .map(|i| c.observe(&sig(if i % 3 == 0 { 0.9 } else { 0.2 }, 8.0)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
