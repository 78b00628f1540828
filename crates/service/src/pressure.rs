//! The overload-pressure control loop.
//!
//! The paper's diagnosis is that a runtime dies at the extremes of task
//! grain: too fine and scheduling overhead dominates (`/threads/idle-rate`
//! climbs, Eq. 1), too coarse and cores starve. PR 0–2 built the
//! *measurement* surface for that regime; this module closes the loop and
//! *acts* on it. At the first job settle or dispatcher tick at least
//! [`SAMPLE_EVERY`] after the last sample, outside an admission drain,
//! the [`PressureController`] samples:
//!
//! * the **windowed overhead fraction** — the paper's idle-rate (Eq. 1)
//!   over the runtime's [`Window`] since the last sample, smoothed with
//!   an EWMA so one noisy window cannot flap the controller;
//! * the **queue fill fraction** — jobs waiting vs.
//!   [`crate::AdmissionConfig::max_queued_jobs`] (the service-level
//!   analogue of the pending/staged queue lengths);
//! * the **sojourn of the oldest queued job** — the head of the
//!   admission-latency distribution as it is forming.
//!
//! Those condense into a [`PressureSignal`] with three effects:
//!
//! 1. **Adaptive in-flight budget (AIMD)** — while the smoothed overhead
//!    fraction sits above `OVERHEAD_HIGH` with work queued, the
//!    admission budget is cut multiplicatively (`DECREASE_FACTOR`, at
//!    most once per `DECREASE_EVERY`); when it falls back below
//!    `OVERHEAD_LOW` the budget regrows additively (`INCREASE_STEP`)
//!    toward the configured maximum.
//!    Fewer concurrent fine-grain jobs → less scheduling overhead per
//!    unit of useful work — the control knob is exactly the paper's
//!    task-size lever, applied at the job level.
//!
//!    Zero-grain jobs waiting behind the budget are the paper's "too
//!    fine" regime, and the loop treats them as such: their phases are
//!    nearly all dispatch, so the window reads overhead above
//!    `OVERHEAD_HIGH`, and while one of them waits the budget halves down
//!    to its floor, whether or not the budget is what holds it back.
//!    Cutting only while the budget binds (in-flight at the limit, as
//!    TCP's congestion-window validation does) would be a second reading;
//!    it is not this one. `admission_paths.rs` pins the behaviour.
//! 2. **Deadline-slack shedding** — a queued job whose sojourn plus the
//!    EWMA-estimated service time already exceeds its deadline can no
//!    longer finish in time; it is shed *now* (terminal `Rejected`,
//!    reason [`crate::RejectReason::Shed`]) instead of admitted to burn
//!    budget on work nobody will collect.
//! 3. **CoDel-style head drop** — under [`PressureLevel::Critical`], if
//!    the oldest sojourn stays above `SHED_TARGET` for a whole
//!    `SHED_INTERVAL`, the oldest queued job is dropped (one per
//!    interval), bounding queue delay for deadline-less jobs the slack
//!    rule cannot reach.
//!
//! The loop always runs and has no settings: its thresholds, gains and
//! periods are the constants below, each at the one value every run has
//! used; a second value is a decision to argue with its two callers
//! (`scripts/verify.sh`, options allow-list).

use crate::job::{JobCore, JobState};
use grain_counters::derived::DerivedCounter;
use grain_counters::sync::{AtomicU64, Mutex, Ordering};
use grain_counters::{Registry, RegistryError, Unit, Window};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum interval between counter samples, and the dispatcher's tick
/// while a job is queued: settles come faster, the extra ones are
/// no-ops, and a shorter window holds too few task phases for the
/// overhead fraction to mean anything.
pub(crate) const SAMPLE_EVERY: Duration = Duration::from_millis(1);
/// EWMA smoothing factor for the overhead fraction and the service-time
/// estimate: a step input is 90 % absorbed after ten samples, so one
/// noisy window cannot flap the level.
const EWMA_ALPHA: f64 = 0.2;
/// Smoothed overhead fraction above which the budget shrinks — twice the
/// 30 % idle-rate the paper's §IV-E rule already calls too fine.
const OVERHEAD_HIGH: f64 = 0.6;
/// Smoothed overhead fraction below which the budget regrows (§IV-E's
/// 30 %); the gap to [`OVERHEAD_HIGH`] is the hysteresis.
const OVERHEAD_LOW: f64 = 0.3;
/// Queue fill fraction for [`PressureLevel::Elevated`].
const QUEUE_ELEVATED: f64 = 0.5;
/// Queue fill fraction for [`PressureLevel::Critical`]: a quarter of the
/// queue is left to absorb a burst while the head drop works.
const QUEUE_CRITICAL: f64 = 0.75;
/// Floor for the adaptive budget (never above the configured maximum):
/// enough tasks in flight that a few-core pool is not starved by the cut.
const MIN_BUDGET: u64 = 8;
/// Multiplicative budget decrease under sustained high overhead.
const DECREASE_FACTOR: f64 = 0.5;
/// Rate limit on multiplicative decreases: the EWMA needs tens of
/// samples to show what the last cut did.
const DECREASE_EVERY: Duration = Duration::from_millis(50);
/// Additive budget regrowth per sample once overhead is low again.
const INCREASE_STEP: u64 = 64;
/// CoDel target: the oldest queued sojourn the service tolerates under
/// critical pressure.
const SHED_TARGET: Duration = Duration::from_millis(25);
/// CoDel interval: how long the oldest sojourn must stay above the
/// target before one job is dropped (and the period between drops).
const SHED_INTERVAL: Duration = Duration::from_millis(100);

/// The earlier of a pending deadline and `at`.
pub(crate) fn earliest(due: Option<Instant>, at: Instant) -> Option<Instant> {
    Some(due.map_or(at, |due| due.min(at)))
}

/// Coarse overload classification, exported as the
/// `/service/pressure/level` gauge (0/1/2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Healthy: queue shallow, overhead low.
    Nominal,
    /// Building: the queue is filling or overhead is high.
    Elevated,
    /// Overloaded: the queue is near its bound (or deep with high
    /// overhead); CoDel head drop arms.
    Critical,
}

impl fmt::Display for PressureLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PressureLevel::Nominal => write!(f, "nominal"),
            PressureLevel::Elevated => write!(f, "elevated"),
            PressureLevel::Critical => write!(f, "critical"),
        }
    }
}

/// One smoothed snapshot of the control inputs and outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct PressureSignal {
    /// EWMA of the windowed overhead fraction (the paper's idle-rate,
    /// Eq. 1, over the last sample windows).
    pub overhead: f64,
    /// Queue fill fraction at the last sample (`0.0..=1.0`).
    pub queue_fill: f64,
    /// Classification derived from the two inputs.
    pub level: PressureLevel,
    /// The adaptive in-flight task budget currently enforced.
    pub budget_limit: u64,
}

/// Sampling bookkeeping, touched under the service's queues lock.
struct SampleBook {
    last_at: Instant,
    /// The runtime's counters at the last sample.
    last: Window,
    last_decrease: Instant,
    /// Since when the oldest queued sojourn has continuously exceeded
    /// [`SHED_TARGET`] under critical pressure (CoDel state).
    above_since: Option<Instant>,
    primed: bool,
}

/// The controller: shared atomics for the gauge surface, a small mutex
/// for the sampling state. See the [module docs](self).
pub(crate) struct PressureController {
    /// Configured maximum (the admission config's `max_in_flight_tasks`).
    max_budget: u64,
    /// Current adaptive budget.
    budget: AtomicU64,
    /// EWMA overhead fraction × 1000.
    overhead_milli: AtomicU64,
    /// Queue fill fraction × 1000 at the last sample.
    fill_milli: AtomicU64,
    /// Current [`PressureLevel`] as 0/1/2.
    level: AtomicU64,
    /// EWMA service time in nanoseconds.
    est_service_ns: AtomicU64,
    book: Mutex<SampleBook>,
}

impl PressureController {
    pub(crate) fn new(max_budget: u64) -> Self {
        let max_budget = max_budget.max(1);
        let now = Instant::now();
        Self {
            max_budget,
            budget: AtomicU64::new(max_budget),
            overhead_milli: AtomicU64::new(0),
            fill_milli: AtomicU64::new(0),
            level: AtomicU64::new(0),
            est_service_ns: AtomicU64::new(0),
            book: Mutex::new(SampleBook {
                last_at: now,
                last: Window::default(),
                last_decrease: now,
                above_since: None,
                primed: false,
            }),
        }
    }

    /// The in-flight budget admission must respect right now.
    pub(crate) fn budget_limit(&self) -> u64 {
        self.budget.load(Ordering::SeqCst)
    }

    pub(crate) fn level(&self) -> PressureLevel {
        match self.level.load(Ordering::SeqCst) {
            0 => PressureLevel::Nominal,
            1 => PressureLevel::Elevated,
            _ => PressureLevel::Critical,
        }
    }

    /// The current smoothed snapshot.
    pub(crate) fn signal(&self) -> PressureSignal {
        PressureSignal {
            overhead: self.overhead_milli.load(Ordering::SeqCst) as f64 / 1000.0,
            queue_fill: self.fill_milli.load(Ordering::SeqCst) as f64 / 1000.0,
            level: self.level(),
            budget_limit: self.budget_limit(),
        }
    }

    /// Feed one admitted-to-finished service time into the slack
    /// estimator (called at settle for admitted jobs).
    pub(crate) fn observe_service_time(&self, d: Duration) {
        let obs = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let prev = self.est_service_ns.load(Ordering::SeqCst);
        let next = if prev == 0 {
            obs
        } else {
            (EWMA_ALPHA * obs as f64 + (1.0 - EWMA_ALPHA) * prev as f64) as u64
        };
        self.est_service_ns.store(next, Ordering::SeqCst);
    }

    pub(crate) fn est_service(&self) -> Duration {
        Duration::from_nanos(self.est_service_ns.load(Ordering::SeqCst))
    }

    /// One control-loop sample: ingest the runtime's cumulative counters
    /// (read by `counters` only when a sample is due) and the queue
    /// state, update the EWMA, the level, and the AIMD budget.
    /// Rate-limited internally to [`SAMPLE_EVERY`].
    pub(crate) fn sample(
        &self,
        now: Instant,
        counters: impl FnOnce() -> Window,
        queue_len: usize,
        queue_cap: usize,
    ) {
        let mut book = self.book.lock();
        if book.primed && now.saturating_duration_since(book.last_at) < SAMPLE_EVERY {
            return;
        }
        let reading = counters();
        let window = reading.since(&book.last);
        let first = !book.primed;
        book.last = reading;
        book.last_at = now;
        book.primed = true;
        if first {
            // The first window spans service startup; discard it.
            return;
        }

        // Eq. 1 over the window. No thread activity (Σt_func 0) reads 0:
        // the runtime is either idle or fully busy inside long phases;
        // neither is overhead.
        let inst = window.idle_rate();
        let prev = self.overhead_milli.load(Ordering::SeqCst) as f64 / 1000.0;
        let overhead = (EWMA_ALPHA * inst + (1.0 - EWMA_ALPHA) * prev).clamp(0.0, 1.0);
        self.overhead_milli
            .store((overhead * 1000.0) as u64, Ordering::SeqCst);

        let fill = (queue_len as f64 / queue_cap.max(1) as f64).clamp(0.0, 1.0);
        self.fill_milli
            .store((fill * 1000.0) as u64, Ordering::SeqCst);

        let level =
            if fill >= QUEUE_CRITICAL || (overhead >= OVERHEAD_HIGH && fill >= QUEUE_ELEVATED) {
                PressureLevel::Critical
            } else if fill >= QUEUE_ELEVATED || overhead >= OVERHEAD_HIGH {
                PressureLevel::Elevated
            } else {
                PressureLevel::Nominal
            };
        self.level.store(level as u64, Ordering::SeqCst);
        if level < PressureLevel::Critical {
            book.above_since = None;
        }

        // AIMD budget: multiplicative decrease under sustained overhead
        // with work actually waiting, additive regrowth once calm.
        let budget = self.budget.load(Ordering::SeqCst);
        if overhead >= OVERHEAD_HIGH && queue_len > 0 {
            if now.saturating_duration_since(book.last_decrease) >= DECREASE_EVERY {
                // `max_budget` is the caller's and may sit below the floor.
                let cut = ((budget as f64) * DECREASE_FACTOR) as u64;
                self.budget
                    .store(cut.max(MIN_BUDGET).min(self.max_budget), Ordering::SeqCst);
                book.last_decrease = now;
            }
        } else if overhead <= OVERHEAD_LOW && budget < self.max_budget {
            self.budget.store(
                budget.saturating_add(INCREASE_STEP).min(self.max_budget),
                Ordering::SeqCst,
            );
        }
    }

    /// Pick the queued jobs to shed this tick, and when the next shed can
    /// come (a kept job's slack runs out, the CoDel interval ends). Called
    /// by the dispatcher on a copy of the queue; state transitions happen
    /// afterwards. `queued` yields every waiting job (terminal entries
    /// are skipped here).
    pub(crate) fn select_sheds<'a>(
        &self,
        now: Instant,
        queued: impl Iterator<Item = &'a Arc<JobCore>>,
    ) -> (Vec<Arc<JobCore>>, Option<Instant>) {
        let est = self.est_service();
        let mut sheds = Vec::new();
        let mut next: Option<Instant> = None;
        let mut oldest: Option<(&'a Arc<JobCore>, Duration)> = None;
        for core in queued {
            if core.state() != JobState::Queued {
                continue;
            }
            let sojourn = now.saturating_duration_since(core.submitted_at);
            if let Some(deadline) = core.spec.deadline {
                // Slack rule: by the time this job could run to
                // completion, its deadline will have passed.
                if sojourn + est >= deadline {
                    sheds.push(Arc::clone(core));
                    continue;
                }
                next = earliest(next, core.submitted_at + (deadline - est));
            }
            if oldest.is_none_or(|(_, s)| sojourn > s) {
                oldest = Some((core, sojourn));
            }
        }
        // CoDel head drop: only under critical pressure, only when the
        // oldest sojourn has been above target for a full interval.
        let mut book = self.book.lock();
        match (self.level(), oldest) {
            (PressureLevel::Critical, Some((head, sojourn))) if sojourn > SHED_TARGET => {
                match book.above_since {
                    None => book.above_since = Some(now),
                    Some(since) if now.saturating_duration_since(since) >= SHED_INTERVAL => {
                        sheds.push(Arc::clone(head));
                        book.above_since = Some(now);
                    }
                    Some(_) => {}
                }
            }
            _ => book.above_since = None,
        }
        if let Some(since) = book.above_since {
            next = earliest(next, since + SHED_INTERVAL);
        }
        (sheds, next)
    }

    /// Register the pressure gauge surface on `registry`:
    /// `/service/pressure/{level,overhead,queue-fill}` and
    /// `/service/tasks/budget-limit`.
    pub(crate) fn register_counters(
        self: &Arc<Self>,
        registry: &Registry,
    ) -> Result<(), RegistryError> {
        let c = Arc::clone(self);
        registry.register(
            "/service/pressure/level",
            DerivedCounter::new(Unit::Count, move || c.level.load(Ordering::SeqCst) as f64),
        )?;
        let c = Arc::clone(self);
        registry.register(
            "/service/pressure/overhead",
            DerivedCounter::new(Unit::Ratio, move || {
                c.overhead_milli.load(Ordering::SeqCst) as f64 / 1000.0
            }),
        )?;
        let c = Arc::clone(self);
        registry.register(
            "/service/pressure/queue-fill",
            DerivedCounter::new(Unit::Ratio, move || {
                c.fill_milli.load(Ordering::SeqCst) as f64 / 1000.0
            }),
        )?;
        let c = Arc::clone(self);
        registry.register(
            "/service/tasks/budget-limit",
            DerivedCounter::new(Unit::Count, move || c.budget.load(Ordering::SeqCst) as f64),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::JobCounters;
    use crate::job::{JobId, JobSpec};
    use grain_runtime::TaskGroup;

    fn controller(max: u64) -> PressureController {
        PressureController::new(max)
    }

    /// A runtime reading of `func_ns` thread time holding `exec_ns` of
    /// task execution.
    fn ns(func_ns: u64, exec_ns: u64) -> impl FnOnce() -> Window {
        move || Window {
            func_ns,
            exec_ns,
            ..Window::default()
        }
    }

    fn queued_core(id: u64, deadline: Option<Duration>) -> Arc<JobCore> {
        let reg = Arc::new(Registry::new());
        let group = TaskGroup::new();
        let counters = JobCounters::register(&reg, &format!("p#{id}"), &group).unwrap();
        let mut spec = JobSpec::new("p", "t");
        spec.deadline = deadline;
        Arc::new(JobCore::new(
            JobId(id),
            spec,
            group,
            counters,
            Box::new(|_| {}),
        ))
    }

    #[test]
    fn overhead_ewma_tracks_deltas_and_level_classifies() {
        let c = controller(100);
        let t0 = Instant::now();
        // A priming sample, then pure overhead windows: func grew, exec
        // didn't.
        c.sample(t0, ns(0, 0), 0, 10);
        for i in 1..=20u64 {
            c.sample(t0 + SAMPLE_EVERY * i as u32, ns(i * 1_000_000, 0), 8, 10);
        }
        let s = c.signal();
        assert!(s.overhead > 0.8, "overhead EWMA converges up: {s:?}");
        assert_eq!(s.level, PressureLevel::Critical, "fill 0.8 >= 0.75");
        // Useful-work windows with an empty queue bring it back down.
        for i in 21..=80u64 {
            c.sample(
                t0 + SAMPLE_EVERY * i as u32,
                ns(20 * 1_000_000 + (i - 20) * 1_000_000, (i - 20) * 1_000_000),
                0,
                10,
            );
        }
        let s = c.signal();
        assert!(s.overhead < 0.2, "overhead EWMA converges down: {s:?}");
        assert_eq!(s.level, PressureLevel::Nominal);
    }

    #[test]
    fn budget_halves_under_overhead_and_regrows_additively() {
        let c = controller(100);
        let t0 = Instant::now();
        c.sample(t0, ns(0, 0), 0, 10);
        assert_eq!(c.budget_limit(), 100);
        // High-overhead windows with a queue, one per `DECREASE_EVERY`:
        // multiplicative decrease, 100 → 50 → 25 → 12 → floor.
        for i in 1..=30u64 {
            c.sample(t0 + DECREASE_EVERY * i as u32, ns(i * 1_000_000, 0), 5, 10);
        }
        assert_eq!(c.budget_limit(), 8, "decays to the floor");
        // Calm windows: additive regrowth toward the max.
        for i in 31..=45u64 {
            c.sample(
                t0 + DECREASE_EVERY * i as u32,
                ns(30 * 1_000_000 + (i - 30) * 1_000_000, (i - 30) * 1_000_000),
                0,
                10,
            );
        }
        let b = c.budget_limit();
        assert!(b > 8 && b <= 100, "regrows additively: {b}");
    }

    #[test]
    fn floor_clamps_to_the_configured_max() {
        // max_in_flight 1 (serial admission tests): the floor must not
        // *raise* the budget above the configured maximum.
        let c = controller(1);
        assert_eq!(c.budget_limit(), 1);
        let t0 = Instant::now();
        c.sample(t0, ns(0, 0), 0, 10);
        for i in 1..=30u64 {
            c.sample(t0 + DECREASE_EVERY * i as u32, ns(i * 1_000_000, 0), 5, 10);
        }
        assert_eq!(c.budget_limit(), 1);
    }

    #[test]
    fn slack_rule_sheds_doomed_deadline_jobs_only() {
        let c = controller(100);
        let doomed = queued_core(1, Some(Duration::from_millis(10)));
        let fine = queued_core(2, Some(Duration::from_secs(60)));
        let no_deadline = queued_core(3, None);
        let now = Instant::now() + Duration::from_millis(20);
        let (sheds, next) = c.select_sheds(now, [&doomed, &fine, &no_deadline].into_iter());
        let ids: Vec<u64> = sheds.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![1], "only the doomed job is shed");
        assert_eq!(
            next,
            Some(fine.submitted_at + Duration::from_secs(60)),
            "the kept deadline job is the next timer"
        );
        // With a service-time estimate, the slack rule fires early: a job
        // 20ms into a 60ms deadline cannot finish if service takes 50ms.
        c.est_service_ns.store(
            Duration::from_millis(50).as_nanos() as u64,
            Ordering::SeqCst,
        );
        let soon_doomed = queued_core(4, Some(Duration::from_millis(60)));
        let (sheds, _) = c.select_sheds(now, [&soon_doomed].into_iter());
        assert_eq!(sheds.len(), 1, "slack rule anticipates service time");
    }

    #[test]
    fn codel_drops_the_oldest_only_under_sustained_critical() {
        let c = controller(100);
        let old = queued_core(1, None);
        let t0 = Instant::now();
        // Not critical: nothing happens no matter the sojourn.
        let t = t0 + 2 * SHED_TARGET;
        let (sheds, next) = c.select_sheds(t, [&old].into_iter());
        assert!(sheds.is_empty() && next.is_none());
        // Force critical (fill 1.0), then: first scan arms, a scan a full
        // interval later drops.
        c.sample(t0, ns(0, 0), 0, 10);
        c.sample(t0 + Duration::from_millis(1), ns(1, 0), 10, 10);
        assert_eq!(c.level(), PressureLevel::Critical);
        let (sheds, next) = c.select_sheds(t, [&old].into_iter());
        assert!(sheds.is_empty(), "arming");
        assert_eq!(next, Some(t + SHED_INTERVAL), "the interval's end is next");
        let late = t + SHED_INTERVAL + Duration::from_millis(1);
        let (dropped, _) = c.select_sheds(late, [&old].into_iter());
        assert_eq!(dropped.len(), 1);
    }
}
