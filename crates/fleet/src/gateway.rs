//! The fleet gateway: tenant submissions in, placed jobs out, and a
//! ledger that survives worker death.
//!
//! ## Lifecycle of a routed job
//!
//! `submit` assigns an idempotency key, parks the job *pending* and
//! kicks the pump thread ([`Pump`]), which places it on a worker
//! (pressure-driven, see below) and sends `fleet/submit` — every
//! dispatch attempt bumps the job's **epoch**, so anything an older
//! attempt left behind is fenceable.
//! The ack, harvested by the pass its settle kicks, moves the job to
//! *leased*; the worker's `fleet/complete` push makes it terminal at
//! once. Exactly-once completion accounting follows from one rule: only
//! a push carrying the job's **current** epoch is accepted; anything
//! older (a partitioned worker's parked push, a duplicate, a push racing
//! a re-dispatch) bumps `fenced`/`duplicate` and changes nothing.
//!
//! The pump has no tick. A pass runs when something happens — a
//! submission, a drain, a stats poll or an ack settling, a peer linking
//! or leaving — or at a deadline a live job names: an ack or a lease
//! timing out, a backoff ending, a breaker admitting again. A job that
//! is only running costs no pass (`/fleet{…}/gateway/passes` counts
//! them).
//!
//! ## Failure handling
//!
//! * **Death** — the pump diffs leases against `connected_peers()`
//!   every pass, and the locality kicks it whenever its peer set
//!   changes (the liveness monitor turns silent partitions into
//!   disconnects); a lease on a gone worker is *orphaned* and the job
//!   re-enters pending for re-dispatch.
//! * **Lease timeout** — an optional hedge: a lease older than
//!   `lease_timeout` re-dispatches (with a fresh epoch, fencing the
//!   original if it ever answers).
//! * **Refusals / transport errors** — retry with per-worker backoff;
//!   consecutive failures trip the gateway-side per-locality breaker
//!   ([`grain_service::Breakers`] keyed by locality id, so its state
//!   outlives the peer).
//! * **Drain** — [`FleetGateway::drain`] asks the worker to stop
//!   accepting; handed-back keys re-enter pending with zero loss.
//! * **Quorum degradation** — when live, accepting capacity drops
//!   below the configured quorum fraction, deadline-carrying jobs are
//!   shed with [`RejectReason::FleetUnavailable`] (carrying the
//!   [`SHED_RETRY_AFTER`] hint) instead of hanging; deadline-less jobs
//!   wait.
//!
//! ## Placement
//!
//! Each pump pass polls each candidate's `sys/stats` action (cached for
//! `stats_max_age`; a reply kicks the pass that reads it) and scores
//! `pressure level ≫ queue fill ≫ queued jobs ≫ overhead`; draining,
//! dead, breaker-open, and backing-off workers are ineligible. Ties break toward the lowest locality id so
//! placement is deterministic given equal load reports.

use crate::wire::{
    family_code, FleetJob, FleetOutcome, SubmitAck, SubmitVerdict, WireReject, WorkerStats,
    ACTION_COMPLETE, ACTION_DRAIN, ACTION_STATS, ACTION_SUBMIT,
};
use grain_counters::registry::RawView;
use grain_counters::sync::{deadline_after, AtomicU64, Condvar, Kick, Mutex, Ordering, Pump};
use grain_counters::{CounterPath, RawCounter, Registry, RegistryError, ScopedRegistry, Unit};
use grain_net::{Locality, PeersChangedGuard};
use grain_runtime::{SharedFuture, TaskError};
use grain_service::{BreakerConfig, BreakerDecision, BreakerState, Breakers};
use grain_service::{JobOutcome, JobState, RejectReason};
use grain_sim::storm::GraphFamily;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How far a worker's answer (an ack, a completion, a failed or timed-out
/// dispatch) reaches into its breaker: all the way, as it shows the link's
/// health now (DESIGN §10, "Circuit breakers").
const ANSWER: BreakerState = BreakerState::Open;

/// The `retry_after` hint stamped on quorum sheds.
pub const SHED_RETRY_AFTER: Duration = Duration::from_millis(100);

/// Placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Lowest load score among eligible workers (ties → lowest id).
    LeastLoaded,
    /// Prefer one worker while it is eligible; fall back to
    /// least-loaded when it is not. Deterministic harness pinning.
    Prefer(usize),
}

/// Gateway tuning.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker locality ids the gateway may place on.
    pub workers: Vec<usize>,
    /// Hedge: re-dispatch a lease older than this (`None` = never).
    pub lease_timeout: Option<Duration>,
    /// Give up on a dispatch whose ack hasn't settled within this.
    pub ack_timeout: Duration,
    /// Per-worker backoff after a refused or failed dispatch.
    pub retry_backoff: Duration,
    /// Dispatch attempts per job before it goes terminal with its last
    /// refusal.
    pub max_dispatches: u32,
    /// Fraction of the fleet that must be alive *and accepting* to
    /// place deadline-carrying jobs; below it they are shed.
    pub quorum: f64,
    /// How long a polled stats sample stays fresh.
    pub stats_max_age: Duration,
    /// Consecutive failed dispatches to a locality that open its breaker.
    pub breaker_failures: usize,
    /// How long an open breaker refuses before it admits one probe.
    pub breaker_cooldown: Duration,
    /// Placement policy.
    pub placement: Placement,
}

impl FleetConfig {
    /// Defaults for a fleet of `workers`.
    pub fn new(workers: Vec<usize>) -> Self {
        Self {
            workers,
            lease_timeout: None,
            ack_timeout: Duration::from_secs(2),
            retry_backoff: Duration::from_millis(10),
            max_dispatches: 8,
            quorum: 0.0,
            stats_max_age: Duration::from_millis(5),
            breaker_failures: 3,
            breaker_cooldown: Duration::from_millis(200),
            placement: Placement::LeastLoaded,
        }
    }
}

/// Client-facing job description; the gateway turns it into a keyed,
/// epoch-stamped [`FleetJob`].
#[derive(Debug, Clone)]
pub struct FleetJobSpec {
    /// Job name (reports, worker-side counter instance).
    pub name: String,
    /// Owning tenant.
    pub tenant: String,
    /// Graph family of the body.
    pub family: GraphFamily,
    /// Task budget.
    pub tasks: u64,
    /// Busy-work iterations per task.
    pub grain_iters: u64,
    /// Bytes per graph edge.
    pub payload_bytes: u32,
    /// Graph seed.
    pub seed: u64,
    /// Deadline relative to worker admission.
    pub deadline: Option<Duration>,
    /// Chaos: the body panics.
    pub faulty: bool,
    /// Test hook: the body parks on the worker latch.
    pub park: bool,
}

impl FleetJobSpec {
    /// A flat `tasks`-children job with the given grain.
    pub fn new(name: impl Into<String>, tenant: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tenant: tenant.into(),
            family: GraphFamily::Flat,
            tasks: 1,
            grain_iters: 1000,
            payload_bytes: 0,
            seed: 0,
            deadline: None,
            faulty: false,
            park: false,
        }
    }

    /// Set the graph family.
    pub fn family(mut self, f: GraphFamily) -> Self {
        self.family = f;
        self
    }

    /// Set the task budget.
    pub fn tasks(mut self, n: u64) -> Self {
        self.tasks = n;
        self
    }

    /// Set busy-work iterations per task.
    pub fn grain_iters(mut self, n: u64) -> Self {
        self.grain_iters = n;
        self
    }

    /// Set the per-edge payload.
    pub fn payload_bytes(mut self, n: u32) -> Self {
        self.payload_bytes = n;
        self
    }

    /// Set the graph seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Attach a deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Make the body panic (storm fault windows).
    pub fn faulty(mut self, yes: bool) -> Self {
        self.faulty = yes;
        self
    }

    /// Park the body on the worker latch (chaos-test pinning).
    pub fn park(mut self, yes: bool) -> Self {
        self.park = yes;
        self
    }
}

/// The gateway's job-ledger counters, registered under
/// `/fleet{locality#N/total}/…` on the gateway's runtime registry.
/// Conservation at quiescence:
/// `submitted == completed + failed + timed-out + cancelled + rejected + shed`,
/// and every re-dispatch is accounted to exactly one cause
/// (`orphaned`, `handed-back`, `hedged`, `retried`).
#[derive(Default)]
pub struct FleetCounters {
    /// Jobs accepted by [`FleetGateway::submit`].
    pub submitted: Arc<RawCounter>,
    /// Terminal: completed.
    pub completed: Arc<RawCounter>,
    /// Terminal: failed (worker-side fault).
    pub failed: Arc<RawCounter>,
    /// Terminal: worker-side deadline expiry.
    pub timed_out: Arc<RawCounter>,
    /// Terminal: cancelled.
    pub cancelled: Arc<RawCounter>,
    /// Terminal: refused (worker admission, or dispatch budget spent).
    pub rejected: Arc<RawCounter>,
    /// Terminal: shed by the gateway (quorum degradation).
    pub shed: Arc<RawCounter>,
    /// `fleet/submit` calls sent (first dispatches and re-dispatches).
    pub dispatches: Arc<RawCounter>,
    /// Dispatches beyond a job's first.
    pub redispatches: Arc<RawCounter>,
    /// Leases lost to worker death.
    pub orphaned: Arc<RawCounter>,
    /// Keys handed back by drains.
    pub handed_back: Arc<RawCounter>,
    /// Leases re-dispatched by the hedge timer.
    pub hedged: Arc<RawCounter>,
    /// Dispatches refused by a worker (ack verdict) and re-queued.
    pub worker_rejects: Arc<RawCounter>,
    /// Dispatches whose ack failed in transit (disconnect/timeout).
    pub dispatch_failures: Arc<RawCounter>,
    /// Completion pushes accepted (fresh epoch, first for the job).
    pub completions: Arc<RawCounter>,
    /// Completion pushes fenced by epoch.
    pub fenced: Arc<RawCounter>,
    /// Completion pushes for already-terminal jobs.
    pub duplicates: Arc<RawCounter>,
    /// Pump passes run.
    pub passes: Arc<RawCounter>,
}

impl FleetCounters {
    /// Register the ledger under `/fleet{locality#N/total}/…` through
    /// the returned scope, which retires it when dropped.
    fn register(
        &self,
        registry: &Arc<Registry>,
        locality: usize,
    ) -> Result<ScopedRegistry, RegistryError> {
        let scope = registry.scope("fleet", Some(&CounterPath::total_instance_for(locality)));
        for (name, c) in [
            ("jobs/submitted", &self.submitted),
            ("jobs/completed", &self.completed),
            ("jobs/failed", &self.failed),
            ("jobs/timed-out", &self.timed_out),
            ("jobs/cancelled", &self.cancelled),
            ("jobs/rejected", &self.rejected),
            ("jobs/shed", &self.shed),
            ("dispatch/sent", &self.dispatches),
            ("dispatch/redispatched", &self.redispatches),
            ("dispatch/orphaned", &self.orphaned),
            ("dispatch/handed-back", &self.handed_back),
            ("dispatch/hedged", &self.hedged),
            ("dispatch/worker-rejects", &self.worker_rejects),
            ("dispatch/failures", &self.dispatch_failures),
            ("complete/accepted", &self.completions),
            ("complete/fenced", &self.fenced),
            ("complete/duplicate", &self.duplicates),
            ("gateway/passes", &self.passes),
        ] {
            scope.register(name, RawView::new(Arc::clone(c), Unit::Count))?;
        }
        Ok(scope)
    }
}

/// A point-in-time copy of the gateway ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetLedger {
    /// Jobs accepted by `submit`.
    pub submitted: u64,
    /// Terminal buckets.
    pub completed: u64,
    /// Worker-side faults.
    pub failed: u64,
    /// Worker-side deadline expiries.
    pub timed_out: u64,
    /// Cancellations.
    pub cancelled: u64,
    /// Refusals.
    pub rejected: u64,
    /// Gateway quorum sheds.
    pub shed: u64,
    /// Dispatch attempts sent.
    pub dispatches: u64,
    /// Attempts beyond each job's first.
    pub redispatches: u64,
    /// Leases lost to death.
    pub orphaned: u64,
    /// Drain hand-backs.
    pub handed_back: u64,
    /// Hedge re-dispatches.
    pub hedged: u64,
    /// Worker refusals.
    pub worker_rejects: u64,
    /// Transit failures.
    pub dispatch_failures: u64,
    /// Accepted completion pushes.
    pub completions: u64,
    /// Epoch-fenced pushes.
    pub fenced: u64,
    /// Pushes for already-terminal jobs.
    pub duplicates: u64,
}

impl FleetLedger {
    /// Jobs in a terminal bucket.
    pub fn settled(&self) -> u64 {
        self.completed + self.failed + self.timed_out + self.cancelled + self.rejected + self.shed
    }

    /// The conservation identity: every submitted job is in exactly one
    /// terminal bucket.
    pub fn conserved(&self) -> bool {
        self.submitted == self.settled()
    }
}

enum Phase {
    Pending {
        /// Per-job backoff gate.
        not_before: Option<Instant>,
    },
    Dispatching {
        worker: usize,
        ack: SharedFuture<SubmitAck>,
        sent_at: Instant,
    },
    Leased {
        worker: usize,
        since: Instant,
    },
    Terminal,
}

struct Slot {
    outcome: Mutex<Option<JobOutcome>>,
    cv: Condvar,
}

struct GateJob {
    /// The wire job; `epoch` is the current fence.
    job: FleetJob,
    phase: Phase,
    dispatches: u32,
    submitted_at: Instant,
    /// Last worker refusal seen, surfaced if the job goes terminal
    /// rejected: `(origin locality, refusal)`.
    last_reject: Option<(u64, WireReject)>,
    slot: Arc<Slot>,
}

/// Every key ever submitted (the fence and duplicate record), and the
/// keys not yet terminal, which are all a pump pass walks, in order.
#[derive(Default)]
struct Jobs {
    all: HashMap<u64, GateJob>,
    live: BTreeSet<u64>,
}

struct WorkerView {
    draining: bool,
    backoff_until: Option<Instant>,
    stats: Option<WorkerStats>,
    /// When the last poll answered, a failed one included: the next
    /// waits until this answer is `stats_max_age` old.
    answered: Option<Instant>,
    stats_poll: Option<SharedFuture<WorkerStats>>,
}

impl WorkerView {
    fn new() -> Self {
        Self {
            draining: false,
            backoff_until: None,
            stats: None,
            answered: None,
            stats_poll: None,
        }
    }

    /// Take a stats reply into the view. Draining is one-way: a reply
    /// that left the worker before it began to drain may arrive after
    /// [`Gateway::drain`] returned, and must not make the worker
    /// eligible for the jobs it has just handed back.
    fn absorb_stats(&mut self, now: Instant, stats: &WorkerStats) {
        self.draining |= stats.draining;
        self.stats = Some(stats.clone());
        self.answered = Some(now);
        self.stats_poll = None;
    }
}

/// Job keys, one sequence for every gateway in the process: a worker
/// remembers each key it finished for as long as it lives, and answers
/// that key again with the recorded outcome. A gateway installed after
/// another was dropped must not reuse the keys the first one drew.
static NEXT_KEY: AtomicU64 = AtomicU64::new(1);

struct GatewayShared {
    locality: Locality,
    config: FleetConfig,
    jobs: Mutex<Jobs>,
    workers: Mutex<HashMap<usize, WorkerView>>,
    breakers: Breakers<usize>,
    counters: FleetCounters,
    /// Wakes the pump for a pass: a submission, a drain, a poll or an
    /// ack settling, a change in the locality's peer set.
    kick: Arc<Kick>,
}

/// Handle to a routed job; wait for its [`JobOutcome`].
#[derive(Clone)]
pub struct FleetJobHandle {
    key: u64,
    slot: Arc<Slot>,
}

impl FleetJobHandle {
    /// The job's idempotency key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The outcome, if the job is terminal.
    pub fn outcome(&self) -> Option<JobOutcome> {
        self.slot.outcome.lock().clone()
    }

    /// Block until the job is terminal.
    pub fn wait(&self) -> JobOutcome {
        // Unbounded: a join with no timeout is the caller's to ask for.
        self.wait_until(None)
            .expect("a wait with no deadline ends terminal")
    }

    /// Block up to `timeout`; one that reaches past the clock's range is
    /// no deadline.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        self.wait_until(deadline_after(timeout))
    }

    fn wait_until(&self, deadline: Option<Instant>) -> Option<JobOutcome> {
        let mut outcome = self.slot.outcome.lock();
        let terminal = |o: &mut Option<JobOutcome>| o.is_some();
        self.slot.cv.wait_until(&mut outcome, deadline, terminal);
        outcome.clone()
    }
}

/// The gateway. One per serving plane; owns the pump thread, which
/// dropping the gateway stops at once, and its peer listener and
/// `/fleet{…}` counters on the locality, which the drop removes.
pub struct FleetGateway {
    shared: Arc<GatewayShared>,
    _pump: Pump,
    _peers: PeersChangedGuard,
    _counters: ScopedRegistry,
}

impl FleetGateway {
    /// Install a gateway on `locality`: registers `fleet/complete` and
    /// starts the pump. One gateway may live on a locality at a time: a
    /// second one installed while the first lives would take over its
    /// `fleet/complete` action, so it panics before registering that;
    /// once the first is dropped, installing again works.
    pub fn install(locality: &Locality, config: FleetConfig) -> Self {
        let shared = Arc::new(GatewayShared {
            locality: locality.clone(),
            breakers: Breakers::new(
                BreakerConfig::consecutive(config.breaker_failures, config.breaker_cooldown),
                None,
            ),
            config,
            jobs: Mutex::new(Jobs::default()),
            workers: Mutex::new(HashMap::new()),
            counters: FleetCounters::default(),
            kick: Arc::default(),
        });
        let counters = shared
            .counters
            .register(locality.runtime().registry(), locality.id())
            .expect(
                "one live gateway per locality: a second would take over its fleet/complete action",
            );
        {
            let w = Arc::downgrade(&shared);
            locality.register_action(ACTION_COMPLETE, move |outcome: FleetOutcome| {
                match w.upgrade() {
                    Some(shared) => handle_complete(&shared, outcome),
                    None => 1u8,
                }
            });
        }
        // A worker's death and a return to quorum.
        let peers = {
            let kick = Arc::downgrade(&shared.kick);
            locality.on_peers_changed(move || {
                if let Some(kick) = kick.upgrade() {
                    kick.kick();
                }
            })
        };
        let pump = Pump::spawn(
            format!("grain-fleet-gateway-{}", locality.id()),
            Arc::clone(&shared.kick),
            Arc::downgrade(&shared),
            pump_tick,
        );
        Self {
            shared,
            _pump: pump,
            _peers: peers,
            _counters: counters,
        }
    }

    /// Accept a job into the fleet. Returns immediately; placement and
    /// failover happen on the pump. Under quorum degradation a
    /// deadline-carrying job is shed right here (shed-by-deadline
    /// rather than hang).
    pub fn submit(&self, spec: FleetJobSpec) -> FleetJobHandle {
        let shared = &self.shared;
        let key = NEXT_KEY.fetch_add(1, Ordering::Relaxed);
        shared.counters.submitted.incr();
        let slot = Arc::new(Slot {
            outcome: Mutex::new(None),
            cv: Condvar::new(),
        });
        let handle = FleetJobHandle {
            key,
            slot: Arc::clone(&slot),
        };
        let job = FleetJob {
            key,
            epoch: 0,
            name: spec.name,
            tenant: spec.tenant,
            family: family_code(spec.family),
            tasks: spec.tasks,
            grain_iters: spec.grain_iters,
            payload_bytes: spec.payload_bytes,
            seed: spec.seed,
            deadline_ms: spec.deadline.map_or(0, |d| d.as_millis() as u64),
            faulty: spec.faulty,
            park: spec.park,
        };
        let gj = GateJob {
            job,
            phase: Phase::Pending { not_before: None },
            dispatches: 0,
            submitted_at: Instant::now(),
            last_reject: None,
            slot,
        };
        let degraded =
            spec.deadline.is_some() && below_quorum(shared, &shared.locality.connected_peers());
        {
            let mut guard = shared.jobs.lock();
            let jobs = &mut *guard;
            let gj = jobs.all.entry(key).or_insert(gj);
            if degraded {
                settle_shed(shared, gj);
            } else {
                jobs.live.insert(key);
            }
        }
        // Kicked with the ledger unlocked: the pump's first act is to
        // lock it.
        if !degraded {
            shared.kick.kick();
        }
        handle
    }

    /// Ask `worker` to drain: it stops accepting, cancels its queued
    /// fleet jobs, and hands their keys back; those jobs re-enter the
    /// pending set here (zero loss). Returns the handed-back keys.
    pub fn drain(&self, worker: usize) -> Result<Vec<u64>, TaskError> {
        let shared = &self.shared;
        let report: Arc<crate::wire::DrainReport> = shared
            .locality
            .async_remote(worker, ACTION_DRAIN, &())
            .wait()?;
        shared
            .workers
            .lock()
            .entry(worker)
            .or_insert_with(WorkerView::new)
            .draining = true;
        let mut jobs = shared.jobs.lock();
        for key in &report.handed_back {
            if let Some(gj) = jobs.all.get_mut(key) {
                if !matches!(gj.phase, Phase::Terminal) {
                    shared.counters.handed_back.incr();
                    gj.phase = Phase::Pending { not_before: None };
                }
            }
        }
        drop(jobs);
        shared.kick.kick();
        Ok(report.handed_back.clone())
    }

    /// The gateway's ledger, sampled now.
    pub fn ledger(&self) -> FleetLedger {
        let c = &self.shared.counters;
        FleetLedger {
            submitted: c.submitted.get(),
            completed: c.completed.get(),
            failed: c.failed.get(),
            timed_out: c.timed_out.get(),
            cancelled: c.cancelled.get(),
            rejected: c.rejected.get(),
            shed: c.shed.get(),
            dispatches: c.dispatches.get(),
            redispatches: c.redispatches.get(),
            orphaned: c.orphaned.get(),
            handed_back: c.handed_back.get(),
            hedged: c.hedged.get(),
            worker_rejects: c.worker_rejects.get(),
            dispatch_failures: c.dispatch_failures.get(),
            completions: c.completions.get(),
            fenced: c.fenced.get(),
            duplicates: c.duplicates.get(),
        }
    }

    /// How often `worker`'s breaker has opened.
    pub fn breaker_opens(&self, worker: usize) -> u64 {
        self.shared.breakers.opens_of(&worker)
    }

    /// Worker ids currently alive (linked) and not draining.
    pub fn accepting_workers(&self) -> Vec<usize> {
        accepting(&self.shared, &self.shared.locality.connected_peers())
    }

    /// The worker currently holding `key`'s lease, if the job is
    /// leased right now (chaos tests synchronize on this).
    pub fn lease_of(&self, key: u64) -> Option<usize> {
        match self.shared.jobs.lock().all.get(&key).map(|j| &j.phase) {
            Some(Phase::Leased { worker, .. }) => Some(*worker),
            _ => None,
        }
    }

    /// Human-readable eligibility view per worker — for harness hang
    /// diagnostics.
    pub fn debug_workers(&self) -> String {
        let now = Instant::now();
        let alive = self.shared.locality.connected_peers();
        let views = self.shared.workers.lock();
        self.shared
            .config
            .workers
            .iter()
            .map(|w| {
                let v = views.get(w);
                format!(
                    "w{w}[alive={} draining={} backoff={} breaker={:?}]",
                    alive.contains(w),
                    v.is_some_and(|v| v.draining),
                    v.is_some_and(|v| v.backoff_until.is_some_and(|t| now < t)),
                    self.shared.breakers.state_of(w),
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Human-readable phase of one job — for harness hang diagnostics.
    pub fn debug_phase(&self, key: u64) -> String {
        match self.shared.jobs.lock().all.get(&key) {
            None => "unknown-key".to_owned(),
            Some(gj) => {
                let phase = match &gj.phase {
                    Phase::Pending { not_before } => {
                        format!("Pending{{backoff={}}}", not_before.is_some())
                    }
                    Phase::Dispatching { worker, .. } => format!("Dispatching{{worker={worker}}}"),
                    Phase::Leased { worker, .. } => format!("Leased{{worker={worker}}}"),
                    Phase::Terminal => "Terminal".to_owned(),
                };
                format!(
                    "{phase} epoch={} dispatches={}",
                    gj.job.epoch, gj.dispatches
                )
            }
        }
    }
}

/// The workers among `alive` that are not draining.
fn accepting(shared: &GatewayShared, alive: &[usize]) -> Vec<usize> {
    let (views, workers) = (shared.workers.lock(), &shared.config.workers);
    let accepts = |w: &usize| alive.contains(w) && !views.get(w).is_some_and(|v| v.draining);
    workers.iter().copied().filter(accepts).collect()
}

/// Too few workers accept for the configured quorum: deadline-carrying
/// jobs are shed.
fn below_quorum(shared: &GatewayShared, alive: &[usize]) -> bool {
    let need = (shared.config.quorum * shared.config.workers.len() as f64).ceil() as usize;
    accepting(shared, alive).len() < need
}

/// Terminal-bucket accounting + wakeup, shared by every settle path.
fn settle(shared: &GatewayShared, gj: &mut GateJob, outcome: JobOutcome) {
    if matches!(gj.phase, Phase::Terminal) {
        return;
    }
    gj.phase = Phase::Terminal;
    let c = &shared.counters;
    match outcome.state {
        JobState::Completed => c.completed.incr(),
        JobState::TimedOut => c.timed_out.incr(),
        JobState::Cancelled => c.cancelled.incr(),
        JobState::Rejected => match outcome.reject_reason {
            Some(RejectReason::Shed) | Some(RejectReason::FleetUnavailable { .. }) => c.shed.incr(),
            _ => c.rejected.incr(),
        },
        _ => c.failed.incr(),
    }
    *gj.slot.outcome.lock() = Some(outcome);
    gj.slot.cv.notify_all();
}

/// Shed a job with `FleetUnavailable` (quorum degradation).
fn settle_shed(shared: &GatewayShared, gj: &mut GateJob) {
    let outcome = JobOutcome {
        state: JobState::Rejected,
        tasks_completed: 0,
        tasks_skipped: 0,
        tasks_budget_skipped: 0,
        tasks_spawned: 0,
        tasks_faulted: 0,
        exec_ns: 0,
        func_ns: 0,
        turnaround: gj.submitted_at.elapsed(),
        fault: None,
        retries: 0,
        reject_reason: Some(RejectReason::FleetUnavailable {
            retry_after: SHED_RETRY_AFTER,
        }),
        origin_locality: None,
    };
    settle(shared, gj, outcome);
}

/// A worker refused the job everywhere / the dispatch budget is spent:
/// surface the *originating* worker's refusal.
fn settle_rejected(shared: &GatewayShared, gj: &mut GateJob) {
    let (origin, reject) = gj
        .last_reject
        .unwrap_or((u64::MAX, WireReject::of(RejectReason::Shed)));
    let outcome = JobOutcome {
        state: JobState::Rejected,
        tasks_completed: 0,
        tasks_skipped: 0,
        tasks_budget_skipped: 0,
        tasks_spawned: 0,
        tasks_faulted: 0,
        exec_ns: 0,
        func_ns: 0,
        turnaround: gj.submitted_at.elapsed(),
        fault: None,
        retries: gj.dispatches.saturating_sub(1) as u64,
        reject_reason: Some(reject.reason()),
        origin_locality: (origin != u64::MAX).then_some(origin as usize),
    };
    settle(shared, gj, outcome);
}

/// `fleet/complete` handler: epoch-fenced, exactly-once accounting.
/// Returns 0 when the push was recorded, 1 when fenced or duplicate.
fn handle_complete(shared: &Arc<GatewayShared>, outcome: FleetOutcome) -> u8 {
    let mut jobs = shared.jobs.lock();
    let Some(gj) = jobs.all.get_mut(&outcome.key) else {
        shared.counters.duplicates.incr();
        return 1;
    };
    if matches!(gj.phase, Phase::Terminal) {
        shared.counters.duplicates.incr();
        return 1;
    }
    if outcome.epoch < gj.job.epoch {
        shared.counters.fenced.incr();
        return 1;
    }
    shared.counters.completions.incr();
    let origin = outcome.origin as usize;
    // A current-epoch completion is the strongest dispatch-success
    // evidence there is — and it can beat the submit ack home (the
    // worker runs the job before the gateway pump harvests the ack).
    // Without this, a half-open probe whose ack is outrun stays
    // half-open forever and wedges placement.
    let now = Instant::now();
    shared.breakers.record(&origin, false, ANSWER, now);
    let fault = match (&outcome.state, &outcome.fault_msg) {
        (JobState::Failed, Some(msg)) | (JobState::TimedOut, Some(msg)) => {
            Some(TaskError::Remote {
                locality: origin,
                message: msg.clone(),
            })
        }
        _ => None,
    };
    let job_outcome = JobOutcome {
        state: outcome.state,
        tasks_completed: outcome.tasks_completed,
        tasks_skipped: 0,
        tasks_budget_skipped: 0,
        tasks_spawned: outcome.tasks_spawned,
        tasks_faulted: outcome.tasks_faulted,
        exec_ns: outcome.exec_ns,
        func_ns: outcome.func_ns,
        turnaround: gj.submitted_at.elapsed(),
        fault,
        retries: gj.dispatches.saturating_sub(1) as u64,
        reject_reason: outcome.reject.map(|r| r.reason()),
        origin_locality: Some(origin),
    };
    settle(shared, gj, job_outcome);
    jobs.live.remove(&outcome.key);
    0
}

/// Pick a worker for one dispatch. Deterministic given equal reports:
/// eligibility is (alive, not draining, backoff passed, breaker would
/// admit); `Prefer` pins while eligible, otherwise least-loaded with
/// ties toward the lowest id. With none eligible, the error is when the
/// first alive, accepting worker's backoff and breaker both let it take
/// one: `None` if none will by time alone.
fn place(
    shared: &GatewayShared,
    alive: &[usize],
    views: &HashMap<usize, WorkerView>,
    now: Instant,
) -> Result<usize, Option<Instant>> {
    let mut eligible = Vec::new();
    let mut ready = None;
    for &w in shared.config.workers.iter().filter(|w| alive.contains(w)) {
        let view = views.get(&w);
        if view.is_some_and(|v| v.draining) {
            continue;
        }
        let Some(admits) = now.checked_add(shared.breakers.admits_in(&w, now)) else {
            continue;
        };
        let at = view
            .and_then(|v| v.backoff_until)
            .map_or(admits, |backoff| backoff.max(admits));
        if at <= now {
            eligible.push(w);
        } else {
            earliest(&mut ready, at);
        }
    }
    if let Placement::Prefer(p) = shared.config.placement {
        if eligible.contains(&p) {
            return Ok(p);
        }
    }
    let score = |w: usize| -> (u64, usize) {
        let s = views.get(&w).and_then(|v| v.stats.as_ref());
        let load = s.map_or(0, |s| {
            u64::from(s.pressure_level) * 1_000_000
                + (s.queue_fill * 10_000.0) as u64
                + s.queued_jobs * 100
                + (s.overhead * 100.0) as u64
                // A worker whose autotune tenants are still probing has
                // unsettled grain — its throughput is about to move.
                // Weight it like half a queued job so settled workers
                // win ties without probing ever gating placement.
                + u64::from(!s.autotune_converged) * 50
        });
        (load, w)
    };
    eligible.into_iter().min_by_key(|w| score(*w)).ok_or(ready)
}

/// Lower `due` to `at` if `at` is earlier.
fn earliest(due: &mut Option<Instant>, at: Instant) {
    *due = Some(due.map_or(at, |due| due.min(at)));
}

/// Kick the pump when `fut` settles (at once if it has).
fn kick_on_settle<T: Send + Sync + 'static>(shared: &GatewayShared, fut: &SharedFuture<T>) {
    let kick = Arc::clone(&shared.kick);
    fut.on_settled(move |_| kick.kick());
}

/// One pump pass: harvest stats polls, sweep acks/leases, place
/// pending jobs, shed under quorum loss. Returns the earliest deadline
/// a live job waits on: an ack or a lease timing out, a job's backoff,
/// or a worker's backoff or breaker that keeps a pending job unplaced.
/// With none, only a kick brings the next pass.
fn pump_tick(shared: &Arc<GatewayShared>) -> Option<Instant> {
    shared.counters.passes.incr();
    let now = Instant::now();
    let alive = shared.locality.connected_peers();
    let mut due = None;

    // Refresh stats (poll harvest + re-poll stale entries).
    {
        let mut views = shared.workers.lock();
        for w in &shared.config.workers {
            let v = views.entry(*w).or_insert_with(WorkerView::new);
            if let Some(poll) = &v.stats_poll {
                match poll.try_get() {
                    None => {}
                    Some(Ok(stats)) => v.absorb_stats(now, &stats),
                    Some(Err(_)) => {
                        v.answered = Some(now);
                        v.stats_poll = None;
                    }
                }
            }
            let fresh = v
                .answered
                .is_some_and(|t| now.duration_since(t) < shared.config.stats_max_age);
            if !fresh && v.stats_poll.is_none() && alive.contains(w) {
                let poll = shared.locality.async_remote(*w, ACTION_STATS, &());
                kick_on_settle(shared, &poll);
                v.stats_poll = Some(poll);
            }
        }
    }

    let degraded = below_quorum(shared, &alive);

    let mut guard = shared.jobs.lock();
    let Jobs { all, live } = &mut *guard;
    for key in live.iter() {
        let Some(gj) = all.get_mut(key) else {
            continue;
        };
        match &gj.phase {
            Phase::Terminal | Phase::Pending { .. } => {}
            Phase::Leased { worker, since } => {
                let worker = *worker;
                if !alive.contains(&worker) {
                    // PR 7 liveness / kill sever: the lease is orphaned.
                    shared.counters.orphaned.incr();
                    gj.phase = Phase::Pending { not_before: None };
                } else if shared
                    .config
                    .lease_timeout
                    .is_some_and(|t| now.duration_since(*since) > t)
                {
                    // Hedge: re-dispatch elsewhere with a fresh epoch;
                    // the original, if it ever answers, is fenced.
                    shared.counters.hedged.incr();
                    gj.phase = Phase::Pending { not_before: None };
                }
            }
            Phase::Dispatching {
                worker,
                ack,
                sent_at,
            } => {
                let worker = *worker;
                match ack.try_get() {
                    None => {
                        if now.duration_since(*sent_at) > shared.config.ack_timeout {
                            shared.counters.dispatch_failures.incr();
                            shared.breakers.record(&worker, true, ANSWER, now);
                            backoff_worker(shared, worker, now);
                            gj.phase = Phase::Pending {
                                not_before: Some(now + shared.config.retry_backoff),
                            };
                        }
                    }
                    Some(Ok(ack)) => match ack.verdict {
                        SubmitVerdict::Accepted | SubmitVerdict::AlreadyDone => {
                            shared.breakers.record(&worker, false, ANSWER, now);
                            gj.phase = Phase::Leased { worker, since: now };
                        }
                        SubmitVerdict::Fenced => {
                            // Our own stale attempt answered late; the
                            // job has moved on. The link answered, so
                            // release the breaker (a probe must not
                            // stay consumed), and re-place.
                            shared.breakers.record(&worker, false, ANSWER, now);
                            gj.phase = Phase::Pending { not_before: None };
                        }
                        SubmitVerdict::Draining => {
                            // A prompt refusal is still a healthy link:
                            // release the breaker; the draining flag
                            // excludes the worker from placement.
                            shared.breakers.record(&worker, false, ANSWER, now);
                            shared.counters.worker_rejects.incr();
                            shared
                                .workers
                                .lock()
                                .entry(worker)
                                .or_insert_with(WorkerView::new)
                                .draining = true;
                            gj.phase = Phase::Pending { not_before: None };
                        }
                        SubmitVerdict::Rejected => {
                            shared.counters.worker_rejects.incr();
                            shared.breakers.record(&worker, true, ANSWER, now);
                            backoff_worker(shared, worker, now);
                            gj.last_reject = ack.reject.map(|r| (ack.origin, r));
                            if gj.dispatches >= shared.config.max_dispatches {
                                settle_rejected(shared, gj);
                            } else {
                                gj.phase = Phase::Pending {
                                    not_before: Some(now + shared.config.retry_backoff),
                                };
                            }
                        }
                    },
                    Some(Err(_)) => {
                        shared.counters.dispatch_failures.incr();
                        shared.breakers.record(&worker, true, ANSWER, now);
                        backoff_worker(shared, worker, now);
                        gj.phase = Phase::Pending {
                            not_before: Some(now + shared.config.retry_backoff),
                        };
                    }
                }
            }
        }
        // Pending, perhaps since the arm above: an orphaned or hedged
        // lease, a fenced or draining verdict is placed in this pass.
        let Phase::Pending { not_before } = gj.phase else {
            continue;
        };
        // Quorum degradation pauses the whole pending set: deadline-carrying
        // jobs shed now (they cannot afford to wait), deadline-less jobs
        // hold until the fleet is back above quorum.
        if degraded {
            if gj.job.deadline_ms > 0 {
                settle_shed(shared, gj);
            }
            continue;
        }
        if not_before.is_some_and(|t| now < t) {
            continue;
        }
        if gj.dispatches >= shared.config.max_dispatches {
            settle_rejected(shared, gj);
            continue;
        }
        let chosen = {
            let views = shared.workers.lock();
            place(shared, &alive, &views, now)
        };
        let worker = match chosen {
            Ok(worker) => worker,
            Err(ready) => {
                if let Some(at) = ready {
                    earliest(&mut due, at);
                }
                continue;
            }
        };
        if let BreakerDecision::Reject { retry_after } = shared.breakers.decide(&worker, now) {
            if let Some(at) = now.checked_add(retry_after) {
                earliest(&mut due, at);
            }
            continue;
        }
        gj.job.epoch += 1;
        gj.dispatches += 1;
        shared.counters.dispatches.incr();
        if gj.dispatches > 1 {
            shared.counters.redispatches.incr();
        }
        let ack: SharedFuture<SubmitAck> =
            shared.locality.async_remote(worker, ACTION_SUBMIT, &gj.job);
        kick_on_settle(shared, &ack);
        gj.phase = Phase::Dispatching {
            worker,
            ack,
            sent_at: now,
        };
    }
    // What stays live, and its earliest ack, lease or backoff deadline.
    live.retain(|key| {
        let Some(gj) = all.get(key) else {
            return false;
        };
        let at = match &gj.phase {
            Phase::Pending { not_before } => not_before.filter(|&at| at > now),
            Phase::Dispatching { sent_at, .. } => Some(*sent_at + shared.config.ack_timeout),
            Phase::Leased { since, .. } => shared.config.lease_timeout.map(|t| *since + t),
            Phase::Terminal => return false,
        };
        if let Some(at) = at {
            earliest(&mut due, at);
        }
        true
    });
    due
}

fn backoff_worker(shared: &GatewayShared, worker: usize, now: Instant) {
    shared
        .workers
        .lock()
        .entry(worker)
        .or_insert_with(WorkerView::new)
        .backoff_until = Some(now + shared.config.retry_backoff);
}

#[cfg(test)]
#[path = "../../runtime/tests/support/pace.rs"]
mod pace;

#[cfg(test)]
mod tests {
    use super::pace::pace;
    use super::*;

    fn stats(draining: bool) -> WorkerStats {
        WorkerStats {
            draining,
            pressure_level: 0,
            overhead: 0.0,
            queue_fill: 0.0,
            queued_jobs: 0,
            autotune_converged: true,
        }
    }

    /// A worker's push: `key` completed on locality 1.
    fn completed(key: u64) -> FleetOutcome {
        FleetOutcome {
            key,
            epoch: 0,
            origin: 1,
            state: JobState::Completed,
            tasks_completed: 1,
            tasks_spawned: 1,
            tasks_faulted: 0,
            exec_ns: 0,
            func_ns: 0,
            retries: 0,
            fault_msg: None,
            reject: None,
        }
    }

    #[test]
    fn a_stale_stats_reply_does_not_undrain_the_view() {
        let mut view = WorkerView::new();
        // `drain()` returned: the view is marked by the gateway itself.
        view.draining = true;
        // A reply the worker sent before it began to drain lands now.
        view.absorb_stats(Instant::now(), &stats(false));
        assert!(view.draining, "draining is one-way");
        assert!(view.stats.is_some(), "the rest of the reply is still used");

        // And a worker's own announcement marks a fresh view.
        let mut view = WorkerView::new();
        view.absorb_stats(Instant::now(), &stats(true));
        assert!(view.draining);
    }

    /// A settled key leaves the live set a pump pass walks, and the full
    /// record still fences: a late push for it is a counted duplicate.
    #[test]
    fn a_settled_key_leaves_the_live_set_and_its_late_push_is_a_duplicate() {
        let fabric = grain_net::bootstrap::Fabric::loopback(1, |_| {
            grain_runtime::RuntimeConfig::with_workers(1)
        });
        // No worker to place on: the job stays pending until the push.
        let gateway = FleetGateway::install(fabric.locality(0), FleetConfig::new(vec![]));
        let key = gateway.submit(FleetJobSpec::new("j", "t")).key();
        assert!(gateway.shared.jobs.lock().live.contains(&key));
        let push = || completed(key);
        assert_eq!(handle_complete(&gateway.shared, push()), 0, "recorded");
        {
            let jobs = gateway.shared.jobs.lock();
            assert!(jobs.live.is_empty(), "the settled key left the live set");
            assert!(jobs.all.contains_key(&key), "its record stays");
        }
        assert_eq!(handle_complete(&gateway.shared, push()), 1, "refused");
        let ledger = gateway.ledger();
        assert_eq!((ledger.completions, ledger.duplicates), (1, 1));
        assert!(ledger.conserved());
        drop(gateway);
        fabric.shutdown();
    }

    /// A job that only an open breaker keeps unplaced is placed when
    /// the breaker admits again: the pass that found it unplaced named
    /// that instant, so no tick and no kick is needed. Its passes are
    /// the submission's, that deadline's and the ack's, and one for each
    /// of the two stats polls they send (the stats are stale by then).
    #[test]
    fn a_job_an_open_breaker_holds_is_placed_when_it_readmits() {
        let fabric = grain_net::bootstrap::Fabric::loopback(2, |_| {
            grain_runtime::RuntimeConfig::with_workers(1)
        });
        let worker =
            crate::FleetWorker::install(fabric.locality(1), crate::FleetWorkerConfig::new(0, 1));
        let cooldown = Duration::from_millis(50);
        let config = FleetConfig {
            breaker_cooldown: cooldown,
            ..FleetConfig::new(vec![1])
        };
        let gateway = FleetGateway::install(fabric.locality(0), config);
        let opened = Instant::now();
        for _ in 0..gateway.shared.config.breaker_failures {
            gateway.shared.breakers.record(&1, true, ANSWER, opened);
        }
        assert_eq!(gateway.breaker_opens(1), 1);
        let outcome = gateway
            .submit(FleetJobSpec::new("held", "t").grain_iters(0))
            .wait_timeout(Duration::from_secs(5))
            .expect("placed once the breaker admits");
        assert_eq!(outcome.state, JobState::Completed);
        assert!(
            opened.elapsed() >= cooldown,
            "placed through an open breaker"
        );
        let passes = gateway.shared.counters.passes.get();
        assert!(passes <= 5, "{passes} passes for one held job");
        drop(gateway);
        drop(worker);
        fabric.shutdown();
    }

    /// A wait whose deadline would lie past the clock's range has none:
    /// it returns the outcome of a job settled later by another thread,
    /// and of one settled already.
    #[test]
    fn wait_timeout_past_the_clock_range_waits_for_the_outcome() {
        let fabric = grain_net::bootstrap::Fabric::loopback(1, |_| {
            grain_runtime::RuntimeConfig::with_workers(1)
        });
        // No worker to place on: the job stays pending until the push.
        let gateway = FleetGateway::install(fabric.locality(0), FleetConfig::new(vec![]));
        let handle = gateway.submit(FleetJobSpec::new("j", "t"));
        let (shared, key) = (Arc::clone(&gateway.shared), handle.key());
        let pusher = grain_counters::sync::spawn("pusher", move || {
            pace(Duration::from_millis(10));
            handle_complete(&shared, completed(key))
        })
        .unwrap();
        let state = |h: &FleetJobHandle| h.wait_timeout(Duration::MAX).map(|o| o.state);
        assert_eq!(state(&handle), Some(JobState::Completed), "settled later");
        assert_eq!(pusher.join().expect("pusher"), 0, "recorded");
        assert_eq!(state(&handle), Some(JobState::Completed), "settled already");
        drop(gateway);
        fabric.shutdown();
    }
}
