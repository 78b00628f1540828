//! The job service: submission, admission, deadlines, shutdown.
//!
//! A [`JobService`] owns a [`Runtime`] and a dispatcher thread. Clients
//! [`submit`](JobService::submit) jobs into per-tenant queues. Admission
//! — popping jobs in fair-share order while the task budget
//! allows, and handing each one's root task to the runtime inside the
//! job's [`grain_runtime::TaskGroup`] — runs on the threads that change
//! what can be admitted: the submitter, right after its push, and the
//! thread that settles a job (usually a worker, in the group's
//! quiescence hook), right after it releases the job's budget. So a job
//! reaches the runtime with no thread hop. The dispatcher, a [`Pump`],
//! sleeps until what a clock has to trigger: running deadlines, retry
//! backoff gates, and shedding and pressure sampling while jobs are
//! queued (a queued job past its deadline is shed) — with none, until
//! kicked. Nothing in the serving layer touches the runtime's hot
//! dispatch path — jobs meter themselves through their groups.
//!
//! Failure handling rides on the runtime's panic isolation: a faulted
//! task never kills a worker, it marks the job's group, and the job's
//! [`FailurePolicy`](crate::job::FailurePolicy) decides at settlement
//! whether the job fails fast, runs out its remaining tasks, or goes
//! back through admission for another attempt after a backoff.

use crate::admission::{AdmissionError, FairQueues};
use crate::breaker::{BreakerConfig, BreakerDecision, BreakerState, Breakers};
use crate::counters::{JobCounters, ServiceCounters};
use crate::job::{FailurePolicy, JobCore, JobHandle, JobId, JobOutcome, JobSpec, JobState};
use crate::pressure::{earliest, PressureController, PressureSignal, SAMPLE_EVERY};
use grain_counters::sync::{
    AtomicBool, AtomicU64, Condvar, Kick, Mutex, MutexGuard, Ordering, Pump,
};
use grain_counters::Registry;
use grain_runtime::{Runtime, RuntimeConfig, TaskContext};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::admission::AdmissionConfig;

/// A service policy callback: invoked once per queued job, after the job
/// reaches its terminal state with its bookkeeping fully settled. A
/// submission refused at [`JobService::submit`] never fires it.
///
/// The hook runs on the thread that ends the job — usually a runtime
/// worker inside the group's quiescence latch; for a queued job, the
/// thread that cancels, sheds or refuses it; never a thread inside
/// [`JobService::submit`] — with **no service locks held**. It must be
/// fast and non-blocking; feed an observer (the `grain-autotune`
/// controller is the canonical consumer) rather than doing work inline.
#[derive(Clone)]
pub struct PolicyHook(Arc<PolicyFn>);

/// The boxed callback type behind a [`PolicyHook`].
type PolicyFn = dyn Fn(&JobSpec, &JobOutcome) + Send + Sync;

impl PolicyHook {
    /// Wrap a callback as a service policy hook.
    pub fn new(f: impl Fn(&JobSpec, &JobOutcome) + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }

    /// Invoke the callback: how a hook that wraps another one passes
    /// the observation on.
    pub fn call(&self, spec: &JobSpec, outcome: &JobOutcome) {
        (self.0)(spec, outcome)
    }
}

impl std::fmt::Debug for PolicyHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PolicyHook(..)")
    }
}

/// Service configuration.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Configuration of the underlying task runtime.
    pub runtime: RuntimeConfig,
    /// Admission control parameters.
    pub admission: AdmissionConfig,
    /// Per-tenant circuit breakers.
    pub breaker: BreakerConfig,
    /// Post-settlement policy hook (see [`PolicyHook`]). `None` (the
    /// default) leaves the settlement path exactly as before.
    pub policy: Option<PolicyHook>,
}

impl ServiceConfig {
    /// Config with `workers` runtime workers and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            runtime: RuntimeConfig::with_workers(workers),
            ..Self::default()
        }
    }
}

/// What the queues mutex guards: the tenant queues, and the hand-shake
/// of who drains them.
struct Queues {
    fair: FairQueues,
    /// A thread is inside [`admit_queued`]'s drain loop.
    draining: bool,
    /// A push or a budget release came while a drain ran: the drainer
    /// looks again before it stops.
    rescan: bool,
}

pub(crate) struct Shared {
    runtime: Runtime,
    counters: ServiceCounters,
    queues: Mutex<Queues>,
    /// Wakes `wait_all` and a shutting-down drop: a settle, a queued
    /// job's end, the end of every admission drain.
    idle_cv: Condvar,
    /// Wakes the dispatcher for a timer earlier than the one it sleeps
    /// until.
    kick: Arc<Kick>,
    /// Sum of admitted (unfinished) jobs' costs. Only ever raised in the
    /// queues critical section that pops the job it charges.
    budget_in_use: AtomicU64,
    /// Jobs popped from the queues but not yet pushed into `running`.
    /// Incremented under the queues lock, so `wait_all` (which holds
    /// that lock) cannot observe a job in neither structure.
    admitting: AtomicU64,
    /// Jobs admitted and not yet terminal, for deadline scanning.
    running: Mutex<Vec<Arc<JobCore>>>,
    /// Overload control loop: pressure signal, AIMD budget, shed picks.
    pressure: Arc<PressureController>,
    /// Per-tenant circuit breakers gating submission and retry.
    breakers: Breakers<String, str>,
    ids: AtomicU64,
    shutdown: AtomicBool,
    config: ServiceConfig,
}

/// A multi-tenant job scheduler over one shared [`Runtime`]. See the
/// [crate docs](crate) for the lifecycle and an example.
pub struct JobService {
    shared: Arc<Shared>,
    dispatcher: Option<Pump>,
}

impl JobService {
    /// Start a service (and its runtime and dispatcher thread).
    pub fn new(config: ServiceConfig) -> Self {
        let runtime = Runtime::new(config.runtime.clone());
        // The service publishes into its runtime's registry, through
        // scopes it owns: `/service`, one per tenant breaker, one per job.
        let registry = Arc::clone(runtime.registry());
        let scope = registry.scope("service", None);
        let queues = Mutex::new(Queues {
            fair: FairQueues::new(),
            draining: false,
            rescan: false,
        });
        let pressure = Arc::new(PressureController::new(
            config.admission.max_in_flight_tasks,
        ));
        pressure
            .register_counters(&scope)
            .expect("a fresh runtime holds no /service counters");
        let breakers = Breakers::new(config.breaker.clone(), Some(registry));
        let shared = Arc::new_cyclic(|weak: &std::sync::Weak<Shared>| {
            let w1 = weak.clone();
            let w2 = weak.clone();
            let counters = ServiceCounters::register(
                scope,
                move || {
                    w1.upgrade()
                        .map_or(0.0, |s: Arc<Shared>| s.queues.lock().fair.len() as f64)
                },
                move || {
                    w2.upgrade().map_or(0.0, |s: Arc<Shared>| {
                        s.budget_in_use.load(Ordering::SeqCst) as f64
                    })
                },
            )
            .expect("a fresh runtime holds no /service counters");
            Shared {
                runtime,
                counters,
                queues,
                idle_cv: Condvar::new(),
                kick: Arc::default(),
                budget_in_use: AtomicU64::new(0),
                admitting: AtomicU64::new(0),
                running: Mutex::new(Vec::new()),
                pressure,
                breakers,
                ids: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                config,
            }
        });
        let dispatcher = Pump::spawn(
            "grain-service-dispatcher".into(),
            Arc::clone(&shared.kick),
            Arc::downgrade(&shared),
            tick,
        );
        Self {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Service with `workers` runtime workers and default settings.
    pub fn with_workers(workers: usize) -> Self {
        Self::new(ServiceConfig::with_workers(workers))
    }

    /// Submit a job. `body` runs as the job's root task; every task it
    /// spawns through its [`TaskContext`] joins the job. The returned
    /// handle is live immediately — a rejected submission comes back
    /// already in [`JobState::Rejected`] with
    /// [`JobHandle::rejection`] set.
    pub fn submit(
        &self,
        spec: JobSpec,
        body: impl FnMut(&mut TaskContext<'_>) + Send + 'static,
    ) -> JobHandle {
        let shared = &self.shared;
        let id = JobId(shared.ids.fetch_add(1, Ordering::Relaxed));
        shared.counters.submitted.incr();
        let instance = format!("{}#{}", spec.name, id.0);
        let group = grain_runtime::TaskGroup::new();
        // Each (name, id) instance is unique, so this cannot collide.
        let counters = JobCounters::register(shared.runtime.registry(), &instance, &group)
            .expect("unique job instance cannot collide");
        let core = Arc::new(JobCore::new(id, spec, group, counters, Box::new(body)));
        let handle = JobHandle {
            core: Arc::clone(&core),
            service: Arc::downgrade(shared),
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            self.reject(&core, AdmissionError::ShuttingDown);
            return handle;
        }
        let now = Instant::now();
        let probe = match shared.breakers.decide(&core.spec.tenant, now) {
            BreakerDecision::Reject { retry_after } => {
                self.reject(
                    &core,
                    AdmissionError::BreakerOpen {
                        tenant: core.spec.tenant.clone(),
                        retry_after,
                    },
                );
                return handle;
            }
            BreakerDecision::Admit { probe } => probe,
        };
        let mut queues = shared.queues.lock();
        if queues.fair.len() >= shared.config.admission.max_queued_jobs {
            // Entries that went terminal while waiting (handle-cancelled
            // or deadline-expired) are only reaped lazily; don't let
            // them cause a spurious QueueFull.
            queues.fair.reap_terminal();
        }
        let queued = queues.fair.len();
        if queued >= shared.config.admission.max_queued_jobs {
            drop(queues);
            if probe {
                // This submission never runs: only a queued one may hold
                // the probe slot, or the next would wait `probe_every`.
                shared.breakers.release_probe(&core.spec.tenant, now);
            }
            self.reject(
                &core,
                AdmissionError::QueueFull {
                    queued,
                    limit: shared.config.admission.max_queued_jobs,
                },
            );
            return handle;
        }
        if probe {
            core.probe.store(true, Ordering::SeqCst);
        }
        queues.fair.push(Arc::clone(&core));
        // Admission runs here, on the submitting thread, under the lock
        // the push already holds.
        drop(admit_queued(shared, queues));
        handle
    }

    fn reject(&self, core: &Arc<JobCore>, why: AdmissionError) {
        *core.rejection.lock() = Some(why);
        if core.finish(JobState::Rejected) {
            self.shared.counters.rejected.incr();
            core.notify_waiters();
        }
    }

    /// The service's one counter registry, its runtime's: the runtime's
    /// `/threads{…}`, `/service/...` and one `/jobs{name#id}/...`
    /// namespace per live job.
    pub fn registry(&self) -> &Arc<Registry> {
        self.shared.runtime.registry()
    }

    /// The service-level counters (raw handles and histograms).
    pub fn counters(&self) -> &ServiceCounters {
        &self.shared.counters
    }

    /// The underlying runtime, whose [`Runtime::registry`] is the
    /// service's.
    pub fn runtime(&self) -> &Runtime {
        &self.shared.runtime
    }

    /// Jobs waiting for admission right now.
    pub fn queue_len(&self) -> usize {
        self.shared.queues.lock().fair.len()
    }

    /// Jobs admitted and not yet finished.
    pub fn running_len(&self) -> usize {
        self.shared.running.lock().len()
    }

    /// The current smoothed overload-pressure snapshot.
    pub fn pressure_signal(&self) -> PressureSignal {
        self.shared.pressure.signal()
    }

    /// The state of `tenant`'s circuit breaker, or `None` before its
    /// first submission.
    pub fn breaker_state(&self, tenant: &str) -> Option<BreakerState> {
        self.shared.breakers.state_of(tenant)
    }

    /// How many times `tenant`'s breaker has tripped open.
    pub fn breaker_opens(&self, tenant: &str) -> u64 {
        self.shared.breakers.opens_of(tenant)
    }

    /// Submissions rejected by circuit breakers across all tenants.
    pub fn breaker_rejections(&self) -> u64 {
        self.shared.breakers.total_rejected()
    }

    /// Block until no job is queued or running. New submissions during
    /// the wait extend it.
    pub fn wait_all(&self) {
        wait_idle(&self.shared);
    }
}

/// [`JobService::wait_all`]; during shutdown it also refuses what is
/// queued, including a retry re-queued after an earlier refusal.
fn wait_idle(shared: &Shared) {
    // Holding the queues lock excludes admission's
    // pop+`admitting`-increment critical section, so a job in flight
    // between the queues and `running` is always visible through one of
    // the three checks.
    let mut queues = shared.queues.lock();
    let refusing =
        |queues: &Queues| shared.shutdown.load(Ordering::SeqCst) && queues.fair.len() > 0;
    loop {
        // Unbounded: every way a job leaves `running` or the queues ends
        // with a notify after passing through this lock: `settle`, a
        // drain, and `end_queued` for a job that ends while queued.
        shared.idle_cv.wait_until(&mut queues, None, |queues| {
            if refusing(queues) {
                return true;
            }
            // An entry that went terminal while queued (cancelled, shed)
            // waits for the next pop to reap it; none may come.
            queues.fair.reap_terminal();
            queues.fair.len() == 0
                && shared.admitting.load(Ordering::SeqCst) == 0
                && shared.running.lock().is_empty()
        });
        if !refusing(&queues) {
            return;
        }
        let drained = queues.fair.drain();
        drop(queues);
        refuse_queued(shared, drained);
        queues = shared.queues.lock();
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The dispatcher expires deadlines while the running jobs settle.
        wait_idle(&self.shared);
        drop(self.dispatcher.take());
        // Settlement hooks running on worker threads hold transient
        // `Arc<Shared>` clones (dropped as each group exits). If one of
        // those were the last reference, `Shared` — and the runtime
        // inside it — would be torn down *on a worker thread*, which
        // would then try to join itself. Wait the transients out so the
        // final drop always happens here.
        while Arc::strong_count(&self.shared) > 1 {
            std::thread::yield_now();
        }
        // Runtime drop then waits for any still-running tasks.
    }
}

/// One settlement of a quiescent job: decide the terminal state — or
/// send a faulted `RetryWithBackoff` job back through admission — meter
/// it, release the budget, and admit what the release lets in.
///
/// State priority: a deadline expiry beats an explicit cancel beats a
/// fault. `cancel_requested` (the client's flag) is what marks
/// `Cancelled`, *not* `group.is_cancelled()` — fail-fast cancels the
/// group internally on fault, and that must settle as `Failed`.
fn settle(shared: &Arc<Shared>, core: &Arc<JobCore>) {
    let now = Instant::now();
    let fault = core.group.first_fault();
    let state = if core.timed_out.load(Ordering::SeqCst) {
        JobState::TimedOut
    } else if core.cancel_requested.load(Ordering::SeqCst) {
        JobState::Cancelled
    } else if fault.is_some() {
        // Every faulted attempt is a breaker failure, whether or not it
        // earns a retry — backoff must not hide a flapping tenant.
        let reach = reach_of(core.probe.swap(false, Ordering::SeqCst));
        shared.breakers.record(&core.spec.tenant, true, reach, now);
        if try_requeue_for_retry(shared, core, now) {
            return; // not terminal: the job is queued for another attempt
        }
        JobState::Failed
    } else {
        JobState::Completed
    };
    if !core.finish(state) {
        return; // someone else settled it first
    }
    let reach = reach_of(core.probe.swap(false, Ordering::SeqCst));
    match state {
        JobState::Completed => {
            shared.counters.completed.incr();
            shared.breakers.record(&core.spec.tenant, false, reach, now);
            if let Some(at) = *core.admitted_at.lock() {
                // Admitted-to-finished time feeds the shed slack estimate.
                shared
                    .pressure
                    .observe_service_time(now.saturating_duration_since(at));
            }
        }
        // Cancellation says nothing about the tenant's health.
        JobState::Cancelled => shared.counters.cancelled.incr(),
        JobState::TimedOut => {
            shared.counters.timed_out.incr();
            shared.breakers.record(&core.spec.tenant, true, reach, now);
        }
        // The fault branch above already recorded this failure.
        JobState::Failed => shared.counters.failed.incr(),
        _ => unreachable!("settle only produces terminal run states"),
    }
    shared
        .counters
        .turnaround
        .record(core.turnaround().as_nanos() as u64);
    shared.budget_in_use.fetch_sub(core.cost, Ordering::SeqCst);
    shared.running.lock().retain(|c| !Arc::ptr_eq(c, core));
    {
        // The released budget may let a queued job in: admission runs
        // here, on the settling thread.
        let queues = admit_queued(shared, shared.queues.lock());
        sample_pressure(shared, &queues, now);
    }
    // `wait_all` checks `running` under the queues lock and waits on
    // `idle_cv`: passing through that lock after the removal orders this
    // notify after its check, so the wake is not lost (the rule on
    // `sync::Condvar`).
    shared.idle_cv.notify_all();
    // Policy observation with no locks held and every counter settled,
    // before waiters wake — a submitter unblocked by wait() already
    // sees any grain adjustment this outcome caused.
    if let Some(hook) = &shared.config.policy {
        hook.call(&core.spec, &core.outcome_now(state));
    }
    // Waiters wake only now, with every counter above already settled.
    core.notify_waiters();
}

/// How far a job's outcome reaches into its tenant's breaker: a probe's
/// decides a half-open breaker; any other job was admitted while it was
/// closed, so its outcome counts only while it still is.
fn reach_of(probe: bool) -> BreakerState {
    if probe {
        BreakerState::HalfOpen
    } else {
        BreakerState::Closed
    }
}

/// If the faulted job's policy allows another attempt, reset its fault
/// record, arm the backoff gate, and move it `Running → Queued` — budget
/// released so other jobs can use it while the backoff elapses. Returns
/// false when the job must fail instead (policy, attempts exhausted,
/// service shutdown, or the tenant's breaker is open).
fn try_requeue_for_retry(shared: &Arc<Shared>, core: &Arc<JobCore>, now: Instant) -> bool {
    let FailurePolicy::RetryWithBackoff {
        max_attempts,
        base,
        cap,
    } = core.spec.failure_policy
    else {
        return false;
    };
    let attempt = core.attempts.load(Ordering::SeqCst);
    if attempt >= u64::from(max_attempts.max(1)) || shared.shutdown.load(Ordering::SeqCst) {
        return false;
    }
    // An open breaker already cut this tenant off; its faulted jobs do
    // not get to keep spending retry budget while it cools down.
    if !shared.breakers.retry_allowed(&core.spec.tenant, now) {
        return false;
    }
    shared.counters.retried.incr();
    core.retried.fetch_add(1, Ordering::SeqCst);
    *core.not_before.lock() = Some(now + backoff_delay(base, cap, attempt));
    core.group.reset_faults();
    core.set_state(JobState::Queued);
    shared.budget_in_use.fetch_sub(core.cost, Ordering::SeqCst);
    // The move from `running` to the queues happens under the queues
    // lock, which `wait_all` and the shutdown drain read `running`
    // under: they see the job in one of the two.
    let mut queues = shared.queues.lock();
    shared.running.lock().retain(|c| !Arc::ptr_eq(c, core));
    queues.fair.push(Arc::clone(core));
    // The released budget may let another job in, and the backoff gate
    // is a timer the dispatcher must know about: the drain tells it.
    drop(admit_queued(shared, queues));
    true
}

/// Exponential backoff before attempt `attempt + 1`: `base · 2^(n−1)`
/// after the n-th faulted attempt, capped at `cap`.
fn backoff_delay(base: Duration, cap: Duration, attempt: u64) -> Duration {
    let doublings = u32::try_from(attempt.saturating_sub(1).min(16)).expect("bounded by min(16)");
    base.saturating_mul(1u32 << doublings).min(cap)
}

/// Shed one queued job picked by the pressure controller: terminal
/// `Rejected` with [`AdmissionError::Shed`], metered on the `shed`
/// counter (not `rejected` — the two are disjoint so the conservation
/// invariant `admitted + rejected + shed == submitted` stays exact).
fn shed_job(shared: &Shared, core: &Arc<JobCore>, now: Instant) {
    *core.rejection.lock() = Some(AdmissionError::Shed {
        queued_for: now.saturating_duration_since(core.submitted_at),
        deadline: core.spec.deadline,
    });
    if core.finish_if_queued(JobState::Rejected) {
        shared.counters.shed.incr();
        core.group.cancel();
        end_queued(shared, core, JobState::Rejected);
    } else {
        // Lost the race to a concurrent cancel or admission between the
        // pick and here; don't leave a stale reason behind.
        *core.rejection.lock() = None;
    }
}

/// Announce a queued job's end — a handle cancel, a shed, a shutdown
/// refusal — as `settle` announces a run's: `wait_all` wakes, the policy
/// hook runs, then the job's waiters. The caller won the transition.
pub(crate) fn end_queued(shared: &Shared, core: &JobCore, state: JobState) {
    // `wait_all` reaps terminal entries under the queues lock: passing
    // through it orders this notify after its check.
    drop(shared.queues.lock());
    shared.idle_cv.notify_all();
    if let Some(hook) = &shared.config.policy {
        hook.call(&core.spec, &core.outcome_now(state));
    }
    core.notify_waiters();
}

/// Admit queued jobs in stride order while the budget allows, starting
/// with `queues` held. Every thread that changes what can be admitted
/// calls this right after: a submitter after its push, a settle after
/// its budget release, and the dispatcher's tick after a backoff gate
/// opens or the pressure loop regrows the budget.
///
/// One thread drains at a time. Any other caller marks `rescan` and
/// returns, and the drainer looks again before it stops. So admission
/// never nests, and a caller that finds a drain running does not wait
/// for it. Returns the guard, still held, for the caller's bookkeeping.
fn admit_queued<'a>(
    shared: &'a Arc<Shared>,
    mut queues: MutexGuard<'a, Queues>,
) -> MutexGuard<'a, Queues> {
    if queues.draining {
        queues.rescan = true;
        return queues;
    }
    queues.draining = true;
    // The earliest deadline this drain admits: a timer for the dispatcher.
    let mut timer = None;
    loop {
        while let Some(core) = pop_admissible(shared, &mut queues) {
            drop(queues);
            if let Some(d) = core.spec.deadline {
                timer = earliest(timer, core.submitted_at + d);
            }
            admit(shared, core);
            shared.admitting.fetch_sub(1, Ordering::SeqCst);
            queues = shared.queues.lock();
        }
        if !std::mem::take(&mut queues.rescan) {
            break;
        }
    }
    queues.draining = false;
    // Under the lock `wait_idle` checks under: a popped job a cancel
    // ended first leaves `admitting` with no settle to announce it, and a
    // retry re-queued during shutdown must be refused.
    shared.idle_cv.notify_all();
    if queues.fair.len() > 0 {
        // The dispatcher samples pressure and sheds while a job waits.
        timer = earliest(timer, Instant::now() + SAMPLE_EVERY);
    }
    if let Some(at) = timer {
        shared.kick.kick_by(at);
    }
    queues
}

/// Pop the first admissible job in stride order and charge its cost to
/// the budget, in one critical section under the queues lock: with
/// budget checked and charged together, admitted costs never pass the
/// limit, whichever thread drains (one job is always admissible when
/// nothing is admitted, so an over-budget job cannot wedge the service).
fn pop_admissible(shared: &Shared, queues: &mut Queues) -> Option<Arc<JobCore>> {
    if queues.fair.len() == 0 || shared.shutdown.load(Ordering::SeqCst) {
        return None;
    }
    // The adaptive limit: the configured maximum while the pressure loop
    // is calm, shrunk under load. Releases only lower `in_use`
    // meanwhile, and the releaser then asks for a rescan.
    let max = shared.pressure.budget_limit();
    let in_use = shared.budget_in_use.load(Ordering::SeqCst);
    let mut now = None;
    let core = queues.fair.pop_next(|core| {
        // A retrying job stays queued until its backoff gate opens; its
        // tenant's FIFO order holds.
        if core
            .not_before
            .lock()
            .is_some_and(|t| t > *now.get_or_insert_with(Instant::now))
        {
            return false;
        }
        in_use == 0 || in_use + core.cost <= max
    })?;
    shared.budget_in_use.fetch_add(core.cost, Ordering::SeqCst);
    // Under the queues lock: wait_all must never see the job in neither
    // the queues nor `running`.
    shared.admitting.fetch_add(1, Ordering::SeqCst);
    Some(core)
}

/// Start a popped job whose cost is already charged: mark it running,
/// arm its settlement, and hand its root task to the runtime.
fn admit(shared: &Arc<Shared>, core: Arc<JobCore>) {
    // Queued → Admitted under the state mutex. Losing means the job went
    // terminal (handle-cancelled) between the pop and here: refund the
    // charge and start nothing — its waiters were already notified by
    // whoever finished it. The drain this runs in pops again anyway.
    if !core.try_admit() {
        shared.budget_in_use.fetch_sub(core.cost, Ordering::SeqCst);
        return;
    }
    let now = Instant::now();
    *core.admitted_at.lock() = Some(now);
    *core.not_before.lock() = None;
    if let Some(deadline) = core.spec.deadline {
        // Deadline propagation: the group sees the job's remaining
        // budget, and workers skip members at dispatch once it is gone.
        core.group.set_budget_deadline(core.submitted_at + deadline);
    }
    let attempt = core.attempts.fetch_add(1, Ordering::SeqCst) + 1;
    if attempt == 1 {
        shared
            .counters
            .admission_latency
            .record(now.duration_since(core.submitted_at).as_nanos() as u64);
        shared.counters.admitted.incr();
        if core.spec.failure_policy == FailurePolicy::FailFast {
            // First fault cancels the rest of the job; settle() then
            // reads the fault record and finishes it as Failed. Weak:
            // an unfired hook must not keep the group alive forever.
            let group = Arc::downgrade(&core.group);
            core.group.on_fault(move |_| {
                if let Some(g) = group.upgrade() {
                    g.cancel();
                }
            });
        }
    }
    core.set_state(JobState::Running);
    shared.running.lock().push(Arc::clone(&core));
    // Arm settlement before the root exists: the hook fires when the
    // group next drains, on the thread that retires its last member. It
    // never fires here, so a submitter or a drain never runs a settle —
    // or the policy hook — inline, however fast the job finishes.
    let hook_shared = Arc::clone(shared);
    let hook_core = Arc::clone(&core);
    core.group.on_quiescent(move || {
        settle(&hook_shared, &hook_core);
    });
    let body_core = Arc::clone(&core);
    shared.runtime.spawn_in(
        &core.group,
        core.spec.priority.task_priority(),
        // The body stays in the core so a retry can run it again; only
        // one attempt is in flight at a time, so the lock is free.
        move |ctx| (*body_core.body.lock())(ctx),
    );
}

/// Feed the pressure loop under the queues lock, which guards the queue
/// length and the drain mark it reads. A sample is due at the first
/// settle or dispatcher tick at least `SAMPLE_EVERY` after the last — the
/// dispatcher ticks that often while a job is queued — and the runtime's
/// counters are summed only then.
///
/// No sample is taken while a drain runs: the queue then holds jobs the
/// drain is about to admit, not jobs the budget holds back, and the loop
/// would cut a budget that binds nothing. The window's thread times are
/// cumulative, so the next sample still covers the drain.
fn sample_pressure(shared: &Shared, queues: &Queues, now: Instant) {
    if queues.draining {
        return;
    }
    shared.pressure.sample(
        now,
        || shared.runtime.counters().window(),
        queues.fair.len(),
        shared.config.admission.max_queued_jobs,
    );
}

/// Shutdown: every job still waiting ends here.
fn refuse_queued(shared: &Shared, drained: Vec<Arc<JobCore>>) {
    for core in drained {
        // A job queued for a retry attempt already ran and faulted;
        // shutdown ends it as Failed, not Rejected.
        if core.group.first_fault().is_some() {
            if core.finish(JobState::Failed) {
                shared.counters.failed.incr();
                end_queued(shared, &core, JobState::Failed);
            }
            continue;
        }
        *core.rejection.lock() = Some(AdmissionError::ShuttingDown);
        if core.finish(JobState::Rejected) {
            shared.counters.rejected.incr();
            end_queued(shared, &core, JobState::Rejected);
        }
    }
}

/// One dispatcher pass: expire deadlines, shed, sample pressure if due,
/// and admit only if a backoff gate opened or the budget regrew, so a
/// drain stays with the thread that freed the room. Returns the next
/// timer: the earliest running deadline and, while a job is queued, the
/// next sample, slack shed, backoff gate or CoDel interval's end.
fn tick(shared: &Arc<Shared>) -> Option<Instant> {
    shared.counters.dispatcher_wakes.incr();
    let now = Instant::now();
    let mut due = None;
    // Deadlines of admitted jobs. Collect first, cancel after dropping
    // the lock: cancel() can retire the group's last in-flight member,
    // running the quiescence hook — and thus settle(), which takes
    // `running` — inline on this thread.
    let mut expired = Vec::new();
    for core in shared.running.lock().iter() {
        match core.spec.deadline.map(|d| core.submitted_at + d) {
            Some(at) if now >= at => expired.push(Arc::clone(core)),
            Some(at) => due = earliest(due, at),
            None => {}
        }
    }
    for core in expired {
        if !core.timed_out.swap(true, Ordering::SeqCst) {
            core.group.cancel();
            // settle() runs from the group's quiescence hook.
        }
    }
    // Queued jobs: one whose sojourn (plus the estimated service time)
    // has eaten its deadline is shed, and under critical pressure CoDel
    // drops the oldest; the same scan finds the backoff gates. It runs on
    // a copy of the queue, so submitters and settles admit meanwhile: a
    // deep queue is scanned every millisecond.
    let queued: Vec<Arc<JobCore>> = shared.queues.lock().fair.iter().cloned().collect();
    let mut gate_opened = false;
    let gates = queued.iter().inspect(|core| match *core.not_before.lock() {
        Some(gate) if gate <= now => gate_opened = true,
        Some(gate) => due = earliest(due, gate),
        None => {}
    });
    let (sheds, next_shed) = shared.pressure.select_sheds(now, gates);
    if let Some(at) = next_shed {
        due = earliest(due, at);
    }
    for core in sheds {
        shed_job(shared, &core, now);
        // The queue entry is reaped as a terminal head later.
    }
    let mut queues = shared.queues.lock();
    let budget = shared.pressure.budget_limit();
    sample_pressure(shared, &queues, now);
    if gate_opened || shared.pressure.budget_limit() > budget {
        queues = admit_queued(shared, queues);
    }
    if queues.fair.len() > 0 {
        due = earliest(due, now + SAMPLE_EVERY);
    }
    due
}
