//! The one grain decision — the paper's stated goal ("dynamically adapt
//! task grain size to optimize parallel performance", §VI), built on
//! exactly the signals its characterization identified.
//!
//! Everything that adapts a grain in this repo — the epoch and live
//! stencil loops ([`crate::adapt`], [`crate::adapt_live`]) and
//! `grain-autotune`'s per-tenant map — feeds one [`GrainSignal`] per
//! monitoring window to one [`ThresholdTuner`]: the tasks-per-core ratio
//! separates the coarse-grained regime (starvation-bound: shrink) from
//! the fine-grained one, where the windowed idle rate (overhead-bound:
//! grow) decides. Once converged, the tuner freezes, and only a
//! sustained run of out-of-band windows re-opens a probe.
//! [`throttled_workers`] is the second, independent actuator on the same
//! signal: the worker pool.
//!
//! Both rules are pure, deterministic functions of their inputs — the
//! same signal sequence always yields the same grain sequence — which
//! is what makes the autotune storms replayable bit-for-bit. They run
//! inside the job service's settle path (under its policy hook), hence
//! no `unwrap`.

/// One monitoring window's worth of grain signals: an epoch of the
/// stencil loops, or one completed job of a service tenant. Windowed,
/// not cumulative — the tuner reacts to the *current* regime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrainSignal {
    /// Idle-rate over the window (Eq. 1): 1 − Σt_exec / Σt_func.
    pub idle_rate: f64,
    /// Tasks available per core at the current grain
    /// (`n_tasks / n_cores`): below ~2 is the coarse, starvation-prone
    /// regime.
    pub tasks_per_core: f64,
}

/// Multiplicative step for size changes: the tuner doubles or halves.
const STEP: f64 = 2.0;
/// Width of the hysteresis band above the idle-rate target: a frozen
/// tuner tolerates `target_idle_rate + HYSTERESIS_BAND` before a window
/// counts as out-of-band.
const HYSTERESIS_BAND: f64 = 0.15;
/// Consecutive out-of-band windows that re-open a probe after
/// convergence: one noisy window, or two, is not a regime change.
const OUT_OF_BAND_WINDOWS: u32 = 3;

/// Bounds and targets of the tuner.
#[derive(Debug, Clone, Copy)]
pub struct TunerConfig {
    /// Starting partition size.
    pub initial_nx: usize,
    /// Smallest size the tuner may choose.
    pub min_nx: usize,
    /// Largest size the tuner may choose.
    pub max_nx: usize,
    /// Idle-rate ceiling (the paper demonstrates 30 %).
    pub target_idle_rate: f64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        Self {
            initial_nx: 1_000,
            min_nx: 16,
            max_nx: 100_000_000,
            target_idle_rate: 0.30,
        }
    }
}

/// Idle-rate-threshold tuner (§IV-A made dynamic).
///
/// Decision rule per window while probing:
/// * starving (tasks-per-core below 2): partitions are too coarse to load
///   balance — *shrink*;
/// * idle rate above target: task management dominates — *grow*;
/// * otherwise: hold (converged once two consecutive holds happen).
///
/// Once converged the size **freezes**: a window with idle rate at most
/// `target_idle_rate + HYSTERESIS_BAND` (0.15) and at least one task per
/// core keeps it frozen, and only `OUT_OF_BAND_WINDOWS` (3)
/// *consecutive* windows outside that band re-open a probe, counted by
/// [`ThresholdTuner::reopens`]. A stable workload therefore never
/// oscillates, and one noisy window never re-tunes a settled size.
#[derive(Debug, Clone)]
pub struct ThresholdTuner {
    cfg: TunerConfig,
    nx: usize,
    holds: u32,
    /// Last direction: +1 grew, −1 shrank, 0 held.
    last_dir: i8,
    /// Consecutive out-of-band windows seen while converged.
    out_of_band: u32,
    reopens: u64,
}

impl ThresholdTuner {
    /// New tuner starting at `cfg.initial_nx`.
    pub fn new(cfg: TunerConfig) -> Self {
        let nx = cfg.initial_nx.clamp(cfg.min_nx, cfg.max_nx);
        Self {
            cfg,
            nx,
            holds: 0,
            last_dir: 0,
            out_of_band: 0,
            reopens: 0,
        }
    }

    /// Current partition size (work units per task).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// True once the tuner has stopped moving: it is frozen until a
    /// sustained out-of-band run re-opens a probe.
    pub fn converged(&self) -> bool {
        self.holds >= 2
    }

    /// Probes re-opened after convergence so far.
    pub fn reopens(&self) -> u64 {
        self.reopens
    }

    /// Feed one window; returns the partition size for the next window.
    pub fn observe(&mut self, sig: &GrainSignal) -> usize {
        if self.converged() {
            let in_band = sig.idle_rate <= self.cfg.target_idle_rate + HYSTERESIS_BAND
                && sig.tasks_per_core >= 1.0;
            if in_band {
                self.out_of_band = 0;
                return self.nx;
            }
            self.out_of_band += 1;
            if self.out_of_band < OUT_OF_BAND_WINDOWS {
                return self.nx;
            }
            // The regime genuinely moved: this window opens a probe.
            self.out_of_band = 0;
            self.reopens += 1;
        }
        let grow = |nx: usize, cfg: &TunerConfig| {
            (((nx as f64) * STEP) as usize).clamp(cfg.min_nx, cfg.max_nx)
        };
        let shrink = |nx: usize, cfg: &TunerConfig| {
            (((nx as f64) / STEP) as usize).clamp(cfg.min_nx, cfg.max_nx)
        };

        if sig.tasks_per_core < 2.0 {
            // Coarse regime: not enough parallel slack.
            let next = shrink(self.nx, &self.cfg);
            // Oscillation guard: if we just grew, settle instead of
            // ping-ponging.
            if self.last_dir == 1 {
                self.holds += 1;
                self.last_dir = 0;
            } else if next != self.nx {
                self.nx = next;
                self.holds = 0;
                self.last_dir = -1;
            } else {
                self.holds += 1;
            }
        } else if sig.idle_rate > self.cfg.target_idle_rate {
            // Fine regime: overhead-bound.
            let next = grow(self.nx, &self.cfg);
            if self.last_dir == -1 {
                self.holds += 1;
                self.last_dir = 0;
            } else if next != self.nx {
                self.nx = next;
                self.holds = 0;
                self.last_dir = 1;
            } else {
                self.holds += 1;
            }
        } else {
            self.holds += 1;
            self.last_dir = 0;
        }
        self.nx
    }
}

/// Porterfield-style core throttling (§V), driven by this paper's
/// counters: a worker with no task to run only burns core-seconds, so
/// the pool runs one worker per runnable task — never fewer than one,
/// never more than `max_workers`. Apply the answer with
/// [`grain_runtime::Runtime::set_active_workers`].
///
/// `tasks` is the count itself, not a per-core ratio: a ratio taken over
/// the active workers would shrink with every throttle step and ratchet
/// the pool down.
pub fn throttled_workers(tasks: usize, max_workers: usize) -> usize {
    tasks.clamp(1, max_workers.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(idle: f64, tpc: f64) -> GrainSignal {
        GrainSignal {
            idle_rate: idle,
            tasks_per_core: tpc,
        }
    }

    #[test]
    fn threshold_grows_under_high_idle_rate() {
        let mut t = ThresholdTuner::new(TunerConfig::default());
        let nx0 = t.nx();
        let nx1 = t.observe(&sig(0.9, 100.0));
        assert!(nx1 > nx0, "fine-grained overhead should grow the size");
    }

    #[test]
    fn threshold_shrinks_when_starving() {
        let cfg = TunerConfig {
            initial_nx: 50_000_000,
            ..TunerConfig::default()
        };
        let mut t = ThresholdTuner::new(cfg);
        let nx1 = t.observe(&sig(0.8, 0.5));
        assert!(nx1 < 50_000_000, "starvation should shrink the size");
        // Starvation wins over a quiet idle-rate, too.
        let mut t = ThresholdTuner::new(cfg);
        assert!(t.observe(&sig(0.05, 0.5)) < 50_000_000);
    }

    #[test]
    fn threshold_holds_and_converges_in_band() {
        let mut t = ThresholdTuner::new(TunerConfig::default());
        let nx0 = t.nx();
        t.observe(&sig(0.1, 100.0));
        assert_eq!(t.nx(), nx0);
        assert!(!t.converged());
        t.observe(&sig(0.15, 100.0));
        assert!(t.converged());
    }

    #[test]
    fn threshold_respects_bounds() {
        let cfg = TunerConfig {
            initial_nx: 100,
            min_nx: 64,
            max_nx: 256,
            ..TunerConfig::default()
        };
        let mut t = ThresholdTuner::new(cfg);
        for _ in 0..10 {
            t.observe(&sig(0.9, 100.0)); // keeps trying to grow
        }
        assert!(t.nx() <= 256);
        let mut t = ThresholdTuner::new(cfg);
        for _ in 0..10 {
            t.observe(&sig(0.9, 0.1)); // keeps trying to shrink
        }
        assert!(t.nx() >= 64);
    }

    #[test]
    fn threshold_damps_oscillation() {
        let mut t = ThresholdTuner::new(TunerConfig::default());
        // Grow once (fine regime), then a starving window: instead of
        // immediately un-doing the move, the tuner settles.
        t.observe(&sig(0.9, 100.0));
        let after_grow = t.nx();
        t.observe(&sig(0.1, 1.0));
        assert_eq!(t.nx(), after_grow, "no immediate ping-pong");
    }

    #[test]
    fn exact_trajectory_from_a_fixed_signal_sequence() {
        // The replay-determinism gate leans on the tuner being a pure
        // state machine; this pins the machine itself, step by step:
        // grow ×3, a starving window right after a grow (guard: hold),
        // a second one (shrink), an overhead window right after the
        // shrink (guard: hold), then two in-band holds.
        let signals = [
            (0.90, 64.0),
            (0.80, 32.0),
            (0.45, 16.0),
            (0.10, 1.5),
            (0.10, 1.5),
            (0.60, 8.0),
            (0.20, 8.0),
            (0.20, 8.0),
        ];
        let mut t = ThresholdTuner::new(TunerConfig::default());
        let mut grains = Vec::new();
        let mut converged_at = None;
        for (i, (idle, tpc)) in signals.into_iter().enumerate() {
            grains.push(t.observe(&sig(idle, tpc)));
            if converged_at.is_none() && t.converged() {
                converged_at = Some(i);
            }
        }
        assert_eq!(
            grains,
            [2_000, 4_000, 8_000, 8_000, 4_000, 4_000, 4_000, 4_000]
        );
        // Guard holds count toward convergence only when consecutive:
        // the shrink at step 4 resets them, steps 5 and 6 are two holds.
        assert_eq!(converged_at, Some(6));
    }

    /// The grain trajectory of a fresh tuner over 20 windows at 8 tasks
    /// per core.
    fn trajectory(idle: impl Fn(usize) -> f64) -> Vec<usize> {
        let mut t = ThresholdTuner::new(TunerConfig::default());
        (0..20).map(|i| t.observe(&sig(idle(i), 8.0))).collect()
    }

    #[test]
    fn tuner_is_deterministic() {
        // Same signal sequence → same grain trajectory.
        let falling = |i: usize| 0.8 / (i + 1) as f64;
        assert_eq!(trajectory(falling), trajectory(falling));
    }

    #[test]
    fn tuner_is_deterministic_through_the_freeze() {
        // A noisy sequence drives the tuner through the probe into the
        // freeze, where one bad window in three never re-opens it; the
        // replay matches step for step.
        let noisy = |i: usize| if i.is_multiple_of(3) { 0.9 } else { 0.2 };
        assert_eq!(trajectory(noisy), trajectory(noisy));
        let mut t = ThresholdTuner::new(TunerConfig::default());
        let mut froze = false;
        for i in 0..20 {
            t.observe(&sig(noisy(i), 8.0));
            froze |= t.converged();
        }
        assert!(froze && t.converged());
        assert_eq!(t.reopens(), 0);
    }

    /// A tuner frozen at its converged size.
    fn converged() -> ThresholdTuner {
        let mut t = ThresholdTuner::new(TunerConfig::default());
        t.observe(&sig(0.1, 50.0));
        t.observe(&sig(0.1, 50.0));
        assert!(t.converged());
        t
    }

    #[test]
    fn freezes_after_convergence_and_tolerates_noise() {
        let mut t = converged();
        let frozen = t.nx();
        // One or two out-of-band windows are absorbed by hysteresis.
        t.observe(&sig(0.95, 50.0));
        t.observe(&sig(0.95, 50.0));
        assert_eq!(t.nx(), frozen, "band absorbs transient noise");
        assert!(t.converged());
    }

    #[test]
    fn sustained_regime_change_reopens_a_probe() {
        let mut t = converged();
        let frozen = t.nx();
        for _ in 0..3 {
            t.observe(&sig(0.95, 50.0));
        }
        assert_eq!(t.reopens(), 1, "probe re-opened");
        assert!(t.nx() > frozen, "overhead regime coarsens the grain");
    }

    #[test]
    fn frozen_tuner_holds_inside_the_band_and_reopens_past_it() {
        // Above the 0.30 target but inside its 0.15 band, with 8 tasks
        // per core: a probing tuner would grow, a frozen one holds. (In
        // f64 the band's edge, 0.30 + 0.15, sits just below 0.45.)
        let mut t = converged();
        let frozen = t.nx();
        for idle in [0.31, 0.40, 0.44, 0.35, 0.44] {
            assert_eq!(t.observe(&sig(idle, 8.0)), frozen, "idle {idle}");
        }
        assert!(t.converged());
        assert_eq!(t.reopens(), 0);
        // Past the band: the first two windows are noise, the third
        // re-opens the probe and, overhead-bound, grows.
        assert_eq!(t.observe(&sig(0.46, 8.0)), frozen);
        assert_eq!(t.observe(&sig(0.46, 8.0)), frozen);
        assert_eq!(t.reopens(), 0);
        assert_eq!(t.observe(&sig(0.46, 8.0)), frozen * 2);
        assert_eq!(t.reopens(), 1);
        assert!(!t.converged());
    }

    #[test]
    fn throttle_parks_surplus_workers() {
        // 2 partitions on an 8-pool → park down to 2.
        assert_eq!(throttled_workers(2, 8), 2);
    }

    #[test]
    fn throttle_reactivates_when_slack_returns() {
        // 64 partitions on an 8-pool → open all the way up.
        assert_eq!(throttled_workers(64, 8), 8);
    }

    #[test]
    fn throttle_holds_when_balanced() {
        // 32 partitions already on all 8 workers: nothing to change.
        assert_eq!(throttled_workers(32, 8), 8);
    }

    #[test]
    fn throttle_never_parks_the_last_worker() {
        assert_eq!(throttled_workers(0, 8), 1);
        assert_eq!(throttled_workers(3, 0), 1);
    }
}
