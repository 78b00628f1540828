//! Circuit breakers, one per key: per tenant in [`crate::JobService`],
//! per worker locality in `grain_fleet::FleetGateway`.
//!
//! ```text
//!            failure ratio over the last `window` outcomes reaches
//!            `failure_ratio` (with at least `min_samples` of them)
//!   Closed ──────────────────────────────────────────────────▶ Open
//!     ▲                                                          │ open_for elapses:
//!     │ the probe succeeds                                       ▼ the next call probes
//!     ╰────────────────────────────────────────────────────  HalfOpen
//!                                the probe fails: back to Open ──╯
//! ```
//!
//! HalfOpen admits one more probe per `probe_every`, so a probe that
//! never reports (cancelled, shed) cannot wedge the breaker. The two
//! users differ only in data — trip rule, probe spacing, and how far
//! each outcome reaches — tabled in DESIGN.md §10 ("Circuit breakers")
//! and pinned by the `corner_*` tests below. A tenant's counters live
//! under `/service{tenants/<name>}/breaker/{state,opens,rejected}`.

use grain_counters::derived::DerivedCounter;
use grain_counters::sync::Ordering::SeqCst;
use grain_counters::sync::{AtomicU64, Mutex};
use grain_counters::{Registry, ScopedRegistry, Unit};
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::fmt::Display;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Breaker settings, the same for every key of one [`Breakers`] map.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Rolling outcome window per key (newest `window` outcomes).
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// Failure share of the window that trips the breaker, set by the
    /// rule's constructor: [`Default`] 0.5, [`consecutive`](Self::consecutive) 1.0.
    failure_ratio: f64,
    /// Cooldown in `Open` before a probe is admitted.
    pub open_for: Duration,
    /// Probe spacing in `HalfOpen`: at most one probe admission per this
    /// interval (`Duration::MAX`: none until the probe answers).
    pub probe_every: Duration,
}

impl Default for BreakerConfig {
    /// The tenants' rule: a tenant that fails as often as it succeeds is
    /// cut off, and `min_samples` decides how soon the ratio is trusted.
    fn default() -> Self {
        Self {
            window: 32,
            min_samples: 8,
            failure_ratio: 0.5,
            open_for: Duration::from_millis(250),
            probe_every: Duration::from_millis(50),
        }
    }
}

impl BreakerConfig {
    /// Trip on `k` consecutive failures, refuse for `open_for`, then admit
    /// one probe until it answers: the gateway's rule for a locality.
    pub fn consecutive(k: usize, open_for: Duration) -> Self {
        let k = k.max(1);
        Self {
            window: k,
            min_samples: k,
            failure_ratio: 1.0,
            open_for,
            probe_every: Duration::MAX,
        }
    }
}

/// The observable state of one key's breaker, ordered by how far it is
/// from Closed (the order of [`Breakers::record`]'s `reach`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BreakerState {
    /// Healthy: calls pass, outcomes are recorded.
    Closed,
    /// Cooled down: spaced probe calls test the key.
    HalfOpen,
    /// Tripped: calls are refused until the cooldown elapses.
    Open,
}

/// What the breaker says about one call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Let the call through. `probe` marks a half-open trial whose
    /// outcome drives the next transition.
    Admit {
        /// True when this admission is a half-open probe.
        probe: bool,
    },
    /// Refuse the call; the breaker is open (or between probes).
    Reject {
        /// Time until the breaker next admits (cooldown or probe gap).
        retry_after: Duration,
    },
}

/// One key's breaker: state machine, rolling window, counters.
struct Breaker {
    state: BreakerState,
    /// Rolling outcomes, `true` = failure; newest at the back.
    outcomes: VecDeque<bool>,
    /// When the breaker last entered `Open` (or its cooldown restarted).
    opened_at: Instant,
    /// When the last half-open probe was admitted.
    last_probe_at: Option<Instant>,
    /// Backing `breaker/state` (0/1/2), `breaker/opens` (trips) and
    /// `breaker/rejected` (refused calls).
    gauge: Arc<AtomicU64>,
    opens: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
    /// Keeps the key's counters registered, if it has any; unregisters
    /// them on drop.
    _scope: Option<ScopedRegistry>,
}

impl Breaker {
    fn new(scope: Option<ScopedRegistry>, now: Instant) -> Self {
        let [gauge, opens, rejected]: [Arc<AtomicU64>; 3] = Default::default();
        if let Some(scope) = &scope {
            let cells = [
                ("state", &gauge),
                ("opens", &opens),
                ("rejected", &rejected),
            ];
            // Collides only where two services share a registry (and so
            // `/service/*` first); the in-process counts work regardless.
            for (name, cell) in cells {
                let cell = Arc::clone(cell);
                let read = DerivedCounter::new(Unit::Count, move || cell.load(SeqCst) as f64);
                let _ = scope.register(&format!("breaker/{name}"), read);
            }
        }
        Self {
            state: BreakerState::Closed,
            outcomes: VecDeque::new(),
            opened_at: now,
            last_probe_at: None,
            gauge,
            opens,
            rejected,
            _scope: scope,
        }
    }

    fn set_state(&mut self, to: BreakerState) {
        self.state = to;
        // `breaker/state` reads 0 closed, 1 open, 2 half-open.
        self.gauge.store([0, 2, 1][to as usize], SeqCst);
    }

    fn trip(&mut self, now: Instant) {
        self.set_state(BreakerState::Open);
        self.opened_at = now;
        self.last_probe_at = None;
        self.outcomes.clear();
        self.opens.fetch_add(1, SeqCst);
    }

    /// How long until a call would be admitted (zero: now).
    fn wait(&self, cfg: &BreakerConfig, now: Instant) -> Duration {
        let since = |t: Instant| now.saturating_duration_since(t);
        match self.state {
            BreakerState::Closed => Duration::ZERO,
            BreakerState::Open => cfg.open_for.saturating_sub(since(self.opened_at)),
            BreakerState::HalfOpen => self
                .last_probe_at
                .map_or(Duration::ZERO, |t| cfg.probe_every.saturating_sub(since(t))),
        }
    }

    fn decide(&mut self, cfg: &BreakerConfig, now: Instant) -> BreakerDecision {
        if self.state == BreakerState::Closed {
            return BreakerDecision::Admit { probe: false };
        }
        let retry_after = self.wait(cfg, now);
        if retry_after.is_zero() {
            self.set_state(BreakerState::HalfOpen);
            self.last_probe_at = Some(now);
            BreakerDecision::Admit { probe: true }
        } else {
            self.rejected.fetch_add(1, SeqCst);
            BreakerDecision::Reject { retry_after }
        }
    }

    fn record(&mut self, cfg: &BreakerConfig, failure: bool, reach: BreakerState, now: Instant) {
        match self.state {
            BreakerState::Closed => {
                self.outcomes.push_back(failure);
                if self.outcomes.len() > cfg.window {
                    self.outcomes.pop_front();
                }
                let n = self.outcomes.len();
                let failures = self.outcomes.iter().filter(|f| **f).count();
                if n >= cfg.min_samples.max(1) && failures as f64 / n as f64 >= cfg.failure_ratio {
                    self.trip(now);
                }
            }
            state if state > reach => {}
            _ if !failure => {
                self.set_state(BreakerState::Closed);
                self.outcomes.clear();
                self.last_probe_at = None;
            }
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Open => self.opened_at = now,
        }
    }
}

/// One breaker per key `K` behind one lock, looked up by `&Q` (`str`
/// for `String` keys), so a known key costs no allocation; a key's
/// breaker is created by its first call or outcome.
pub struct Breakers<K, Q: ?Sized = K> {
    cfg: BreakerConfig,
    /// Where a new key's counters go, under `/service{tenants/<key>}`
    /// (`None`: in-process only).
    registry: Option<Arc<Registry>>,
    map: Mutex<HashMap<K, Breaker>>,
    _lookup: PhantomData<fn(&Q)>,
}

impl<K, Q> Breakers<K, Q>
where
    K: Borrow<Q> + Hash + Eq + Display,
    Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
{
    /// An empty map, registering each new key's counters in `registry`.
    pub fn new(cfg: BreakerConfig, registry: Option<Arc<Registry>>) -> Self {
        Self {
            cfg,
            registry,
            map: Mutex::new(HashMap::new()),
            _lookup: PhantomData,
        }
    }

    /// Run `f` on `key`'s breaker, creating it on first use.
    fn with<R>(&self, key: &Q, now: Instant, f: impl FnOnce(&mut Breaker) -> R) -> R {
        let mut map = self.map.lock();
        if let Some(b) = map.get_mut(key) {
            return f(b);
        }
        let key = key.to_owned();
        let scope = (self.registry.as_ref()).map(|r| r.scope("service", &format!("tenants/{key}")));
        let b = Breaker::new(scope, now);
        f(map.entry(key).or_insert(b))
    }

    /// Gate one call for `key`.
    pub fn decide(&self, key: &Q, now: Instant) -> BreakerDecision {
        self.with(key, now, |b| b.decide(&self.cfg, now))
    }

    /// Record one outcome for `key`. `reach` is the furthest state it may
    /// move: `Closed` for an outcome that says nothing about a tripped
    /// breaker (a job admitted before the trip), `HalfOpen` for a probe's,
    /// `Open` for an answer that shows the key's health now — a success
    /// then closes an Open breaker too, and a failure restarts its cooldown.
    pub fn record(&self, key: &Q, failure: bool, reach: BreakerState, now: Instant) {
        self.with(key, now, |b| b.record(&self.cfg, failure, reach, now));
    }

    /// Hand back the probe slot [`decide`](Self::decide) gave a call at
    /// `at` that then went no further (the service's queue refused it):
    /// the next call is the probe, without waiting out `probe_every`.
    pub fn release_probe(&self, key: &Q, at: Instant) {
        if let Some(b) = self.map.lock().get_mut(key) {
            if b.last_probe_at == Some(at) {
                b.last_probe_at = None;
            }
        }
    }

    /// How long until [`decide`](Self::decide) would admit `key` (zero:
    /// now). Changes nothing, so scanning candidates never takes a probe
    /// slot. A breaker that admits no probe until the last one answers
    /// reads a wait past any clock's range.
    pub fn admits_in(&self, key: &Q, now: Instant) -> Duration {
        let map = self.map.lock();
        map.get(key)
            .map_or(Duration::ZERO, |b| b.wait(&self.cfg, now))
    }

    /// May a failed attempt for `key` be retried? `false` only while the
    /// breaker is open and still cooling: a flapping tenant does not get
    /// to spend retry budget the breaker already cut off.
    pub fn retry_allowed(&self, key: &Q, now: Instant) -> bool {
        let cooled =
            |b: &Breaker| b.state != BreakerState::Open || b.wait(&self.cfg, now).is_zero();
        self.map.lock().get(key).is_none_or(cooled)
    }

    /// The state of `key`'s breaker (`None` before its first call or
    /// outcome).
    pub fn state_of(&self, key: &Q) -> Option<BreakerState> {
        self.map.lock().get(key).map(|b| b.state)
    }

    /// Times `key`'s breaker has tripped.
    pub fn opens_of(&self, key: &Q) -> u64 {
        self.map.lock().get(key).map_or(0, |b| b.opens.load(SeqCst))
    }

    /// Calls refused across all keys.
    pub fn total_rejected(&self) -> u64 {
        self.map
            .lock()
            .values()
            .map(|b| b.rejected.load(SeqCst))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use BreakerState::{Closed, HalfOpen, Open};

    /// `reach` of a job admitted before the trip, of a probe, of a
    /// gateway's answer.
    const STRAGGLER: BreakerState = Closed;
    const PROBE: BreakerState = HalfOpen;
    const ANSWER: BreakerState = Open;
    const PROBED: BreakerDecision = BreakerDecision::Admit { probe: true };

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_samples: 4,
            open_for: Duration::from_millis(100),
            probe_every: Duration::from_millis(20),
            ..BreakerConfig::default()
        }
    }

    fn set() -> Breakers<String, str> {
        Breakers::new(cfg(), None)
    }

    fn fleet() -> Breakers<usize> {
        Breakers::new(
            BreakerConfig::consecutive(2, Duration::from_millis(50)),
            None,
        )
    }

    /// The gateway's question: does `decide` let a dispatch to `w` go?
    fn allow(b: &Breakers<usize>, w: usize, now: Instant) -> bool {
        matches!(b.decide(&w, now), BreakerDecision::Admit { .. })
    }

    #[test]
    fn trips_on_failure_ratio_and_cools_down() {
        let s = set();
        let t0 = Instant::now();
        // Below min_samples: no trip even at 100% failures.
        for _ in 0..3 {
            s.record("a", true, STRAGGLER, t0);
        }
        assert_eq!(s.state_of("a"), Some(BreakerState::Closed));
        s.record("a", true, STRAGGLER, t0);
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
            s.record("a", true, STRAGGLER, t0);
        }
        let t1 = t0 + Duration::from_millis(120);
        assert_eq!(s.decide("a", t1), BreakerDecision::Admit { probe: true });
        s.record("a", true, PROBE, t1 + Duration::from_millis(1));
        assert_eq!(s.state_of("a"), Some(BreakerState::Open));
        assert_eq!(s.opens_of("a"), 2);
        let t2 = t1 + Duration::from_millis(130);
        assert_eq!(s.decide("a", t2), BreakerDecision::Admit { probe: true });
        s.record("a", false, PROBE, t2 + Duration::from_millis(1));
        assert_eq!(s.state_of("a"), Some(BreakerState::Closed));
        // A re-closed breaker starts from a clean window.
        s.record("a", true, STRAGGLER, t2 + Duration::from_millis(2));
        assert_eq!(s.state_of("a"), Some(BreakerState::Closed));
    }

    #[test]
    fn half_open_probes_are_time_spaced() {
        let s = set();
        let t0 = Instant::now();
        for _ in 0..4 {
            s.record("a", true, STRAGGLER, t0);
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
            s.record("a", true, STRAGGLER, t0);
        }
        let t1 = t0 + Duration::from_millis(120);
        assert_eq!(s.decide("a", t1), BreakerDecision::Admit { probe: true });
        // A straggler admitted before the trip finishes now: ignored.
        s.record("a", false, STRAGGLER, t1 + Duration::from_millis(1));
        assert_eq!(s.state_of("a"), Some(BreakerState::HalfOpen));
    }

    #[test]
    fn retry_gate_follows_the_cooldown() {
        let s = set();
        let t0 = Instant::now();
        assert!(s.retry_allowed("a", t0), "unknown tenant may retry");
        for _ in 0..4 {
            s.record("a", true, STRAGGLER, t0);
        }
        assert!(!s.retry_allowed("a", t0 + Duration::from_millis(10)));
        assert!(s.retry_allowed("a", t0 + Duration::from_millis(120)));
    }

    #[test]
    fn tenants_are_isolated_and_counters_registered() {
        let reg = Arc::new(Registry::new());
        let s: Breakers<String, str> = Breakers::new(cfg(), Some(Arc::clone(&reg)));
        let t0 = Instant::now();
        for _ in 0..4 {
            s.record("bad", true, STRAGGLER, t0);
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
    fn opens_after_threshold_and_probes_after_cooldown() {
        let b = fleet();
        let t0 = Instant::now();
        assert!(allow(&b, 1, t0));
        b.record(&1, true, ANSWER, t0);
        assert!(allow(&b, 1, t0), "one failure below threshold");
        b.record(&1, true, ANSWER, t0);
        assert_eq!(b.state_of(&1), Some(BreakerState::Open));
        assert!(!allow(&b, 1, t0), "open refuses");
        let later = t0 + Duration::from_millis(60);
        assert!(allow(&b, 1, later), "cooldown elapsed: one probe");
        assert_eq!(b.state_of(&1), Some(BreakerState::HalfOpen));
        assert!(!allow(&b, 1, later), "only one probe at a time");
        b.record(&1, false, ANSWER, later);
        assert_eq!(b.state_of(&1), Some(BreakerState::Closed));
        assert!(allow(&b, 1, later));
        assert_eq!(b.opens_of(&1), 1);
    }

    #[test]
    fn failed_probe_reopens() {
        let b = fleet();
        let t0 = Instant::now();
        b.record(&1, true, ANSWER, t0);
        b.record(&1, true, ANSWER, t0);
        let later = t0 + Duration::from_millis(60);
        assert!(allow(&b, 1, later));
        b.record(&1, true, ANSWER, later);
        assert_eq!(b.state_of(&1), Some(BreakerState::Open));
        assert!(!allow(&b, 1, later + Duration::from_millis(10)));
        assert_eq!(b.opens_of(&1), 2);
    }

    #[test]
    fn state_survives_without_the_peer() {
        // The map never hears about peers directly — state is keyed by
        // id and persists regardless of liveness. Trip worker 3, then
        // "kill" it (nothing to do), and the record is still there.
        let b = fleet();
        let t0 = Instant::now();
        b.record(&3, true, ANSWER, t0);
        b.record(&3, true, ANSWER, t0);
        assert_eq!(b.state_of(&3), Some(BreakerState::Open));
        assert_eq!(b.opens_of(&3), 1);
    }

    // The corners where the service's and the gateway's machines used to
    // disagree, each shown both ways by the one type (DESIGN.md §10).

    /// A tenant's and a locality's breaker, both tripped at `t0`.
    fn tripped() -> (Breakers<String, str>, Breakers<usize>, Instant) {
        let (tenants, workers, t0) = (set(), fleet(), Instant::now());
        for _ in 0..4 {
            tenants.record("a", true, STRAGGLER, t0);
            workers.record(&1, true, ANSWER, t0);
        }
        (tenants, workers, t0)
    }

    #[test]
    fn corner_a_ratio_over_the_window_against_consecutive_failures() {
        // Half the window failing but never two in a row; then two in a
        // row after three successes, under half the window.
        for (outcomes, tenant, locality) in [
            (&[true, false, true, false][..], Open, Closed),
            (&[false, false, false, true, true][..], Closed, Open),
        ] {
            let (tenants, workers, t0) = (set(), fleet(), Instant::now());
            for &failure in outcomes {
                tenants.record("a", failure, STRAGGLER, t0);
                workers.record(&1, failure, ANSWER, t0);
            }
            assert_eq!(tenants.state_of("a"), Some(tenant));
            assert_eq!(workers.state_of(&1), Some(locality));
        }
    }

    #[test]
    fn corner_b_one_probe_per_interval_against_one_until_it_answers() {
        let ms = Duration::from_millis;
        let (tenants, workers, t0) = tripped();
        let t1 = t0 + ms(120);
        assert_eq!(tenants.decide("a", t1), PROBED);
        assert!(allow(&workers, 1, t1));
        // Unanswered, the tenant probes again after `probe_every`; the
        // locality does not, however long the answer takes.
        assert_eq!(tenants.decide("a", t1 + ms(20)), PROBED);
        assert!(!allow(&workers, 1, t1 + Duration::from_secs(3600)));
        // A slot handed back (the service's queue refused the call) is
        // taken at once; an answered locality closes and admits.
        tenants.release_probe("a", t1 + ms(20));
        assert_eq!(tenants.decide("a", t1 + ms(21)), PROBED);
        workers.record(&1, false, ANSWER, t1);
        assert!(allow(&workers, 1, t1) && workers.state_of(&1) == Some(Closed));
    }

    #[test]
    fn corner_c_outcomes_while_tripped_reach_as_far_as_the_caller_says() {
        let ms = Duration::from_millis;
        let (tenants, workers, t0) = tripped();
        // Open, tenants: nothing counts, a probe's outcome (one admitted
        // before the last trip) no more than a straggler's.
        for reach in [STRAGGLER, PROBE] {
            for failure in [true, false] {
                tenants.record("a", failure, reach, t0 + ms(90));
            }
        }
        assert_eq!(tenants.state_of("a"), Some(Open));
        assert_eq!(tenants.opens_of("a"), 1);
        assert!(
            tenants.admits_in("a", t0 + ms(100)).is_zero(),
            "no cooldown restart"
        );
        // Open, workers: a failure restarts the cooldown without counting
        // an open; a success closes.
        workers.record(&1, true, ANSWER, t0 + ms(40));
        assert_eq!(workers.opens_of(&1), 1);
        assert!(!workers.admits_in(&1, t0 + ms(60)).is_zero());
        workers.record(&1, false, ANSWER, t0 + ms(60));
        assert_eq!(workers.state_of(&1), Some(Closed));
        // HalfOpen: a tenant's straggler is ignored and its probe decides
        // (`non_probe_stragglers_do_not_flip_a_half_open_breaker`,
        // `successful_probe_recloses_failed_probe_reopens`); a worker's
        // every answer decides (`opens_after_threshold_and_probes_after_cooldown`,
        // `failed_probe_reopens`).
    }

    #[test]
    fn corner_d_the_previews_retry_allowed_and_would_allow() {
        let ms = Duration::from_millis;
        let (tenants, workers, t0) = tripped();
        let previews = |at: Instant| {
            let tenant = (
                tenants.retry_allowed("a", at),
                tenants.admits_in("a", at).is_zero(),
            );
            let worker = (
                workers.retry_allowed(&1, at),
                workers.admits_in(&1, at).is_zero(),
            );
            (tenant, worker)
        };
        // Open and cooling: neither; cooled: both.
        assert_eq!(previews(t0 + ms(40)), ((false, false), (false, false)));
        assert_eq!(previews(t0 + ms(120)), ((true, true), (true, true)));
        // HalfOpen with the probe out: a retry may go, a call may not —
        // the tenant's until `probe_every`, the locality's until it
        // answers — and neither preview took the slot.
        let t1 = t0 + ms(120);
        assert!(tenants.decide("a", t1) == PROBED && allow(&workers, 1, t1));
        assert_eq!(previews(t1 + ms(10)), ((true, false), (true, false)));
        assert_eq!(previews(t1 + ms(20)), ((true, true), (true, false)));
        assert_eq!(tenants.decide("a", t1 + ms(20)), PROBED);
    }

    /// The gateway's rule as it stood on its own: `k` consecutive
    /// failures open, one probe after the cooldown, any answer decides.
    #[derive(Default)]
    struct Consecutive {
        failures: usize,
        open_at: Option<Instant>,
        probing: bool,
        opens: u64,
    }

    impl Consecutive {
        /// Would a dispatch go now; `take` dispatches it.
        fn allow(&mut self, now: Instant, cooldown: Duration, take: bool) -> bool {
            let ok = !self.probing && self.open_at.is_none_or(|t| now - t >= cooldown);
            self.probing |= take && ok && self.open_at.take().is_some();
            ok
        }
        fn record(&mut self, failure: bool, now: Instant, k: usize) {
            self.failures = if failure { self.failures + 1 } else { 0 };
            let trip = failure && (self.probing || self.failures == k);
            self.opens += u64::from(trip);
            if !failure || trip || self.open_at.is_some() {
                (self.open_at, self.probing) = (failure.then_some(now), false);
            }
        }
    }

    #[test]
    fn the_gateway_settings_follow_the_consecutive_failure_rule() {
        let (k, cooldown) = (3, Duration::from_millis(50));
        let b = Breakers::new(BreakerConfig::consecutive(k, cooldown), None);
        let mut reference: [Consecutive; 4] = Default::default();
        let (mut now, mut x) = (Instant::now(), 0x9E37_79B9_7F4A_7C15_u64);
        for step in 0..20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let w = ((x >> 60) % 4) as usize;
            now += Duration::from_millis((x >> 40) % 12);
            let r = &mut reference[w];
            match (x >> 33) % 4 {
                0 => assert_eq!(allow(&b, w, now), r.allow(now, cooldown, true)),
                1 => assert_eq!(
                    b.admits_in(&w, now).is_zero(),
                    r.allow(now, cooldown, false)
                ),
                f => {
                    b.record(&w, f == 2, ANSWER, now);
                    r.record(f == 2, now, k);
                }
            }
            let state = b.state_of(&w).unwrap_or(Closed);
            assert_eq!(state == Open, r.open_at.is_some(), "step {step}");
            assert_eq!(state == HalfOpen, r.probing, "step {step}");
            assert_eq!(b.opens_of(&w), r.opens, "step {step}");
        }
    }
}
