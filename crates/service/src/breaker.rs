//! Per-tenant circuit breakers.
//!
//! One faulting tenant must not consume admission slots and retry budget
//! that starve everyone else. Each tenant gets a breaker with the classic
//! three-state machine:
//!
//! ```text
//!            failure ratio over the rolling window
//!            reaches FAILURE_THRESHOLD
//!   Closed ────────────────────────────────▶ Open
//!     ▲                                       │ open_for elapses
//!     │ probe succeeds                        ▼
//!     ╰──────────────────────────────────  HalfOpen
//!                 probe fails: back to Open ──╯
//! ```
//!
//! * **Closed** — submissions pass; terminal outcomes (`Failed`,
//!   `TimedOut` = failure, `Completed` = success) feed a rolling window.
//!   Once the window holds at least [`BreakerConfig::min_samples`]
//!   outcomes and the failure ratio reaches [`FAILURE_THRESHOLD`], the
//!   breaker trips.
//! * **Open** — submissions are rejected outright
//!   ([`crate::AdmissionError::BreakerOpen`]) for
//!   [`BreakerConfig::open_for`]; faulted attempts are not re-queued for
//!   retry either.
//! * **HalfOpen** — after the cooldown, *probe* submissions are admitted,
//!   rate-limited to one per [`BreakerConfig::probe_every`]. A probe that
//!   completes re-closes the breaker; a probe that fails re-opens it.
//!   Probes are time-spaced rather than counted so a probe that is
//!   cancelled or shed (no outcome signal) can never wedge the breaker.
//!
//! Per-tenant counters are registered lazily under
//! `/service{tenants/<name>}/breaker/{state,opens,rejected}` (`state`:
//! 0 = closed, 1 = open, 2 = half-open).

#![deny(clippy::unwrap_used)]

use grain_counters::derived::DerivedCounter;
use grain_counters::sync::Mutex;
use grain_counters::{RawCounter, Registry, ScopedRegistry, Unit};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Failure ratio (failures / outcomes in the window) that trips a
/// breaker. A constant, not a knob: every caller ran with 0.5 — a tenant
/// that fails as often as it succeeds is cut off, and `min_samples`
/// alone decides how soon the ratio is trusted.
const FAILURE_THRESHOLD: f64 = 0.5;

/// Circuit-breaker configuration (per service; one breaker per tenant).
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Master switch; `false` admits everything and records nothing.
    pub enabled: bool,
    /// Rolling outcome window per tenant (newest `window` outcomes).
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// Cooldown in `Open` before probes are allowed.
    pub open_for: Duration,
    /// Probe spacing in `HalfOpen`: at most one probe admission per this
    /// interval.
    pub probe_every: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            window: 32,
            min_samples: 8,
            open_for: Duration::from_millis(250),
            probe_every: Duration::from_millis(50),
        }
    }
}

/// The observable state of one tenant's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: submissions pass, outcomes are recorded.
    Closed,
    /// Tripped: submissions are rejected until the cooldown elapses.
    Open,
    /// Cooling down: spaced probe submissions test the tenant.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// What the breaker says about one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BreakerDecision {
    /// Let the job in. `probe` marks a half-open trial whose outcome
    /// drives the next transition.
    Admit {
        /// True when this admission is a half-open probe.
        probe: bool,
    },
    /// Refuse the job; the tenant's breaker is open (or between probes).
    Reject {
        /// Time until the breaker next admits (cooldown or probe gap).
        retry_after: Duration,
    },
}

/// One tenant's breaker: state machine + rolling window + counters.
struct TenantBreaker {
    state: BreakerState,
    /// Rolling outcomes, `true` = failure; newest at the back.
    outcomes: VecDeque<bool>,
    /// When the breaker last entered `Open`.
    opened_at: Instant,
    /// When the last half-open probe was admitted.
    last_probe_at: Option<Instant>,
    /// Gauge backing `breaker/state` (0/1/2).
    state_gauge: Arc<AtomicU64>,
    /// Times the breaker tripped (`breaker/opens`).
    opens: Arc<RawCounter>,
    /// Submissions rejected by this breaker (`breaker/rejected`).
    rejected: Arc<RawCounter>,
    /// Keeps the per-tenant counters registered; unregisters on drop.
    _scope: ScopedRegistry,
}

impl TenantBreaker {
    fn new(registry: &Arc<Registry>, tenant: &str, now: Instant) -> Self {
        let scope = registry.scope("service", format!("tenants/{tenant}"));
        let state_gauge = Arc::new(AtomicU64::new(0));
        let opens = Arc::new(RawCounter::new());
        let rejected = Arc::new(RawCounter::new());
        // Registration can only collide if two services share one
        // registry, which already collides on `/service/*` before any
        // breaker exists; the in-process counters keep working either way.
        let g = Arc::clone(&state_gauge);
        let _ = scope.register(
            "breaker/state",
            DerivedCounter::new(Unit::Count, move || g.load(Ordering::SeqCst) as f64),
        );
        let o = Arc::clone(&opens);
        let _ = scope.register(
            "breaker/opens",
            DerivedCounter::new(Unit::Count, move || o.get() as f64),
        );
        let r = Arc::clone(&rejected);
        let _ = scope.register(
            "breaker/rejected",
            DerivedCounter::new(Unit::Count, move || r.get() as f64),
        );
        Self {
            state: BreakerState::Closed,
            outcomes: VecDeque::new(),
            opened_at: now,
            last_probe_at: None,
            state_gauge,
            opens,
            rejected,
            _scope: scope,
        }
    }

    fn set_state(&mut self, to: BreakerState) {
        self.state = to;
        let gauge = match to {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        };
        self.state_gauge.store(gauge, Ordering::SeqCst);
    }

    fn trip(&mut self, now: Instant) {
        self.set_state(BreakerState::Open);
        self.opened_at = now;
        self.last_probe_at = None;
        self.outcomes.clear();
        self.opens.incr();
    }

    fn decide(&mut self, cfg: &BreakerConfig, now: Instant) -> BreakerDecision {
        match self.state {
            BreakerState::Closed => BreakerDecision::Admit { probe: false },
            BreakerState::Open => {
                let cooled = now.saturating_duration_since(self.opened_at) >= cfg.open_for;
                if cooled {
                    self.set_state(BreakerState::HalfOpen);
                    self.last_probe_at = Some(now);
                    BreakerDecision::Admit { probe: true }
                } else {
                    self.rejected.incr();
                    BreakerDecision::Reject {
                        retry_after: cfg
                            .open_for
                            .saturating_sub(now.saturating_duration_since(self.opened_at)),
                    }
                }
            }
            BreakerState::HalfOpen => {
                let since = self.last_probe_at.map(|t| now.saturating_duration_since(t));
                match since {
                    Some(s) if s < cfg.probe_every => {
                        self.rejected.incr();
                        BreakerDecision::Reject {
                            retry_after: cfg.probe_every - s,
                        }
                    }
                    _ => {
                        self.last_probe_at = Some(now);
                        BreakerDecision::Admit { probe: true }
                    }
                }
            }
        }
    }

    fn record(&mut self, cfg: &BreakerConfig, failure: bool, probe: bool, now: Instant) {
        match self.state {
            BreakerState::Closed => {
                self.outcomes.push_back(failure);
                while self.outcomes.len() > cfg.window {
                    self.outcomes.pop_front();
                }
                let n = self.outcomes.len();
                if n >= cfg.min_samples.max(1) {
                    let failures = self.outcomes.iter().filter(|f| **f).count();
                    if failures as f64 / n as f64 >= FAILURE_THRESHOLD {
                        self.trip(now);
                    }
                }
            }
            BreakerState::HalfOpen => {
                // Only probe outcomes drive the transition; stragglers
                // admitted before the trip are ignored here.
                if probe {
                    if failure {
                        self.trip(now);
                    } else {
                        self.set_state(BreakerState::Closed);
                        self.outcomes.clear();
                        self.last_probe_at = None;
                    }
                }
            }
            BreakerState::Open => {}
        }
    }
}

/// All tenants' breakers for one service.
pub(crate) struct BreakerSet {
    cfg: BreakerConfig,
    registry: Arc<Registry>,
    tenants: Mutex<HashMap<String, TenantBreaker>>,
}

impl BreakerSet {
    pub(crate) fn new(cfg: BreakerConfig, registry: Arc<Registry>) -> Self {
        Self {
            cfg,
            registry,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Gate one submission for `tenant`.
    pub(crate) fn decide(&self, tenant: &str, now: Instant) -> BreakerDecision {
        if !self.cfg.enabled {
            return BreakerDecision::Admit { probe: false };
        }
        let mut g = self.tenants.lock();
        let b = g
            .entry(tenant.to_owned())
            .or_insert_with(|| TenantBreaker::new(&self.registry, tenant, now));
        b.decide(&self.cfg, now)
    }

    /// Record a terminal outcome for `tenant`. `failure` is true for
    /// `Failed`/`TimedOut` (and for each faulted attempt that enters
    /// retry backoff); completions are successes. Cancelled and rejected
    /// jobs are neutral — the caller must not report them.
    pub(crate) fn record(&self, tenant: &str, failure: bool, probe: bool, now: Instant) {
        if !self.cfg.enabled {
            return;
        }
        let mut g = self.tenants.lock();
        let b = g
            .entry(tenant.to_owned())
            .or_insert_with(|| TenantBreaker::new(&self.registry, tenant, now));
        b.record(&self.cfg, failure, probe, now);
    }

    /// May a faulted attempt of `tenant` re-enter the queue? `false`
    /// while the breaker is open and still cooling — a flapping tenant
    /// does not get to spend retry budget the breaker already cut off.
    pub(crate) fn retry_allowed(&self, tenant: &str, now: Instant) -> bool {
        if !self.cfg.enabled {
            return true;
        }
        let g = self.tenants.lock();
        match g.get(tenant) {
            Some(b) if b.state == BreakerState::Open => {
                now.saturating_duration_since(b.opened_at) >= self.cfg.open_for
            }
            _ => true,
        }
    }

    /// The current state of `tenant`'s breaker (`None` before its first
    /// submission).
    pub(crate) fn state_of(&self, tenant: &str) -> Option<BreakerState> {
        self.tenants.lock().get(tenant).map(|b| b.state)
    }

    /// Times `tenant`'s breaker has tripped.
    pub(crate) fn opens_of(&self, tenant: &str) -> u64 {
        self.tenants.lock().get(tenant).map_or(0, |b| b.opens.get())
    }

    /// Submissions rejected across all tenants' breakers.
    pub(crate) fn total_rejected(&self) -> u64 {
        self.tenants.lock().values().map(|b| b.rejected.get()).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            enabled: true,
            window: 8,
            min_samples: 4,
            open_for: Duration::from_millis(100),
            probe_every: Duration::from_millis(20),
        }
    }

    fn set() -> BreakerSet {
        BreakerSet::new(cfg(), Arc::new(Registry::new()))
    }

    #[test]
    fn trips_on_failure_ratio_and_cools_down() {
        let s = set();
        let t0 = Instant::now();
        // Below min_samples: no trip even at 100% failures.
        for _ in 0..3 {
            s.record("a", true, false, t0);
        }
        assert_eq!(s.state_of("a"), Some(BreakerState::Closed));
        s.record("a", true, false, t0);
        assert_eq!(s.state_of("a"), Some(BreakerState::Open));
        assert_eq!(s.opens_of("a"), 1);
        // Open: submissions rejected until the cooldown elapses.
        match s.decide("a", t0 + Duration::from_millis(10)) {
            BreakerDecision::Reject { retry_after } => {
                assert!(retry_after <= Duration::from_millis(90));
            }
            other => panic!("expected Reject, got {other:?}"),
        }
        // Cooled: the next submission is a probe.
        assert_eq!(
            s.decide("a", t0 + Duration::from_millis(120)),
            BreakerDecision::Admit { probe: true }
        );
        assert_eq!(s.state_of("a"), Some(BreakerState::HalfOpen));
    }

    #[test]
    fn successful_probe_recloses_failed_probe_reopens() {
        let s = set();
        let t0 = Instant::now();
        for _ in 0..4 {
            s.record("a", true, false, t0);
        }
        let t1 = t0 + Duration::from_millis(120);
        assert_eq!(s.decide("a", t1), BreakerDecision::Admit { probe: true });
        s.record("a", true, true, t1 + Duration::from_millis(1));
        assert_eq!(s.state_of("a"), Some(BreakerState::Open));
        assert_eq!(s.opens_of("a"), 2);
        let t2 = t1 + Duration::from_millis(130);
        assert_eq!(s.decide("a", t2), BreakerDecision::Admit { probe: true });
        s.record("a", false, true, t2 + Duration::from_millis(1));
        assert_eq!(s.state_of("a"), Some(BreakerState::Closed));
        // A re-closed breaker starts from a clean window.
        s.record("a", true, false, t2 + Duration::from_millis(2));
        assert_eq!(s.state_of("a"), Some(BreakerState::Closed));
    }

    #[test]
    fn half_open_probes_are_time_spaced() {
        let s = set();
        let t0 = Instant::now();
        for _ in 0..4 {
            s.record("a", true, false, t0);
        }
        let t1 = t0 + Duration::from_millis(120);
        assert_eq!(s.decide("a", t1), BreakerDecision::Admit { probe: true });
        // Immediately after a probe: rejected (spacing).
        assert!(matches!(
            s.decide("a", t1 + Duration::from_millis(1)),
            BreakerDecision::Reject { .. }
        ));
        // After probe_every: a new probe, even though the first probe's
        // outcome never arrived (cancelled/shed probes cannot wedge us).
        assert_eq!(
            s.decide("a", t1 + Duration::from_millis(25)),
            BreakerDecision::Admit { probe: true }
        );
    }

    #[test]
    fn non_probe_stragglers_do_not_flip_a_half_open_breaker() {
        let s = set();
        let t0 = Instant::now();
        for _ in 0..4 {
            s.record("a", true, false, t0);
        }
        let t1 = t0 + Duration::from_millis(120);
        assert_eq!(s.decide("a", t1), BreakerDecision::Admit { probe: true });
        // A straggler admitted before the trip finishes now: ignored.
        s.record("a", false, false, t1 + Duration::from_millis(1));
        assert_eq!(s.state_of("a"), Some(BreakerState::HalfOpen));
    }

    #[test]
    fn retry_gate_follows_the_cooldown() {
        let s = set();
        let t0 = Instant::now();
        assert!(s.retry_allowed("a", t0), "unknown tenant may retry");
        for _ in 0..4 {
            s.record("a", true, false, t0);
        }
        assert!(!s.retry_allowed("a", t0 + Duration::from_millis(10)));
        assert!(s.retry_allowed("a", t0 + Duration::from_millis(120)));
    }

    #[test]
    fn tenants_are_isolated_and_counters_registered() {
        let reg = Arc::new(Registry::new());
        let s = BreakerSet::new(cfg(), Arc::clone(&reg));
        let t0 = Instant::now();
        for _ in 0..4 {
            s.record("bad", true, false, t0);
        }
        assert_eq!(
            s.decide("good", t0),
            BreakerDecision::Admit { probe: false }
        );
        assert_eq!(s.state_of("good"), Some(BreakerState::Closed));
        assert_eq!(s.state_of("bad"), Some(BreakerState::Open));
        assert_eq!(
            reg.query("/service{tenants/bad}/breaker/state")
                .unwrap()
                .as_count(),
            1
        );
        assert_eq!(
            reg.query("/service{tenants/bad}/breaker/opens")
                .unwrap()
                .as_count(),
            1
        );
        let _ = s.decide("bad", t0 + Duration::from_millis(5));
        assert_eq!(
            reg.query("/service{tenants/bad}/breaker/rejected")
                .unwrap()
                .as_count(),
            1
        );
    }

    #[test]
    fn disabled_breakers_admit_everything() {
        let s = BreakerSet::new(
            BreakerConfig {
                enabled: false,
                ..cfg()
            },
            Arc::new(Registry::new()),
        );
        let t0 = Instant::now();
        for _ in 0..32 {
            s.record("a", true, false, t0);
        }
        assert_eq!(s.decide("a", t0), BreakerDecision::Admit { probe: false });
        assert_eq!(s.state_of("a"), None, "disabled set records nothing");
    }
}
