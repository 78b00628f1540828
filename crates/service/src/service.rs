//! The job service: submission, dispatch, deadlines, shutdown.
//!
//! A [`JobService`] owns a [`Runtime`] and a dispatcher thread. Clients
//! [`submit`](JobService::submit) jobs; the dispatcher admits them from
//! per-tenant queues in weighted fair-share order whenever the task
//! budget allows, hands each job's root task to the runtime inside the
//! job's [`grain_runtime::TaskGroup`], watches deadlines, and settles
//! terminal states from the group's quiescence latch. Nothing in the
//! serving layer touches the runtime's hot dispatch path — jobs meter
//! themselves through their groups.
//!
//! Failure handling rides on the runtime's panic isolation: a faulted
//! task never kills a worker, it marks the job's group, and the job's
//! [`FailurePolicy`](crate::job::FailurePolicy) decides at settlement
//! whether the job fails fast, runs out its remaining tasks, or goes
//! back through admission for another attempt after a backoff.

#![deny(clippy::unwrap_used)]

use crate::admission::{AdmissionError, FairQueues};
use crate::breaker::{BreakerConfig, BreakerDecision, BreakerSet, BreakerState};
use crate::counters::{JobCounters, ServiceCounters};
use crate::job::{FailurePolicy, JobCore, JobHandle, JobId, JobOutcome, JobSpec, JobState};
use crate::pressure::{PressureConfig, PressureController, PressureSignal};
use grain_counters::sync::{Condvar, Mutex};
use grain_counters::Registry;
use grain_runtime::{Runtime, RuntimeConfig, TaskContext};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::admission::AdmissionConfig;

/// A service policy callback: invoked once per job, after the job
/// reaches a terminal *run* state (`Completed`, `Cancelled`, `TimedOut`,
/// `Failed`) with its bookkeeping fully settled. Rejected submissions
/// never ran, so they do not fire the hook.
///
/// The hook runs on the thread that settles the job — usually a runtime
/// worker inside the group's quiescence latch — with **no service locks
/// held**. It must be fast and non-blocking; feed an observer (the
/// `grain-autotune` controller is the canonical consumer) rather than
/// doing work inline.
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
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Configuration of the underlying task runtime.
    pub runtime: RuntimeConfig,
    /// Admission control parameters.
    pub admission: AdmissionConfig,
    /// Overload-pressure control loop (adaptive budget + shedding).
    pub pressure: PressureConfig,
    /// Per-tenant circuit breakers.
    pub breaker: BreakerConfig,
    /// Dispatcher tick: the upper bound on how long admission or a
    /// deadline can lag the event that enabled it.
    pub poll_interval: Duration,
    /// Post-settlement policy hook (see [`PolicyHook`]). `None` (the
    /// default) leaves the settlement path exactly as before.
    pub policy: Option<PolicyHook>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            runtime: RuntimeConfig::default(),
            admission: AdmissionConfig::default(),
            pressure: PressureConfig::default(),
            breaker: BreakerConfig::default(),
            poll_interval: Duration::from_micros(500),
            policy: None,
        }
    }
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

struct Shared {
    runtime: Runtime,
    registry: Arc<Registry>,
    counters: ServiceCounters,
    queues: Mutex<FairQueues>,
    /// Wakes the dispatcher on submit, job completion, and shutdown.
    dispatch_cv: Condvar,
    /// Sum of admitted (unfinished) jobs' costs.
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
    breakers: BreakerSet,
    ids: AtomicU64,
    shutdown: AtomicBool,
    config: ServiceConfig,
}

/// A multi-tenant job scheduler over one shared [`Runtime`]. See the
/// [crate docs](crate) for the lifecycle and an example.
pub struct JobService {
    shared: Arc<Shared>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl JobService {
    /// Start a service (and its runtime and dispatcher thread).
    pub fn new(config: ServiceConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let runtime = Runtime::new(config.runtime.clone());
        let queues = Mutex::new(FairQueues::new());
        let pressure = Arc::new(PressureController::new(
            config.pressure.clone(),
            config.admission.max_in_flight_tasks,
        ));
        pressure
            .register_counters(&registry)
            .expect("fresh registry cannot collide");
        let breakers = BreakerSet::new(config.breaker.clone(), Arc::clone(&registry));
        let shared = Arc::new_cyclic(|weak: &std::sync::Weak<Shared>| {
            let w1 = weak.clone();
            let w2 = weak.clone();
            let counters = ServiceCounters::register(
                &registry,
                move || {
                    w1.upgrade()
                        .map_or(0.0, |s: Arc<Shared>| s.queues.lock().len() as f64)
                },
                move || {
                    w2.upgrade().map_or(0.0, |s: Arc<Shared>| {
                        s.budget_in_use.load(Ordering::SeqCst) as f64
                    })
                },
            )
            .expect("fresh registry cannot collide");
            Shared {
                runtime,
                registry: Arc::clone(&registry),
                counters,
                queues,
                dispatch_cv: Condvar::new(),
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
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("grain-service-dispatcher".into())
                .spawn(move || dispatcher_loop(shared))
                .expect("failed to spawn dispatcher thread")
        };
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
        let weight = shared.config.admission.weight_of(&spec.tenant);
        let group = grain_runtime::TaskGroup::new();
        // Each (name, id) instance is unique, so this cannot collide.
        let counters = JobCounters::register(&shared.registry, &instance, &group)
            .expect("unique job instance cannot collide");
        let core = Arc::new(JobCore::new(id, spec, group, counters, Box::new(body)));
        let handle = JobHandle {
            core: Arc::clone(&core),
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            self.reject(&core, AdmissionError::ShuttingDown);
            return handle;
        }
        match shared.breakers.decide(&core.spec.tenant, Instant::now()) {
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
            BreakerDecision::Admit { probe } => {
                if probe {
                    core.probe.store(true, Ordering::SeqCst);
                }
            }
        }
        let mut queues = shared.queues.lock();
        if queues.len() >= shared.config.admission.max_queued_jobs {
            // Entries that went terminal while waiting (handle-cancelled
            // or deadline-expired) are only reaped lazily; don't let
            // them cause a spurious QueueFull.
            queues.reap_terminal();
        }
        let queued = queues.len();
        if queued >= shared.config.admission.max_queued_jobs {
            drop(queues);
            self.reject(
                &core,
                AdmissionError::QueueFull {
                    queued,
                    limit: shared.config.admission.max_queued_jobs,
                },
            );
            return handle;
        }
        queues.push(Arc::clone(&core), weight);
        drop(queues);
        shared.dispatch_cv.notify_all();
        handle
    }

    fn reject(&self, core: &Arc<JobCore>, why: AdmissionError) {
        *core.rejection.lock() = Some(why);
        if core.finish(JobState::Rejected) {
            self.shared.counters.rejected.incr();
        }
    }

    /// The shared counter registry: `/service/...` plus one
    /// `/jobs{name#id}/...` namespace per live job.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// The service-level counters (raw handles and histograms).
    pub fn counters(&self) -> &ServiceCounters {
        &self.shared.counters
    }

    /// The underlying runtime (its own `/threads` counters live in
    /// [`Runtime::registry`]).
    pub fn runtime(&self) -> &Runtime {
        &self.shared.runtime
    }

    /// Jobs waiting for admission right now.
    pub fn queue_len(&self) -> usize {
        self.shared.queues.lock().len()
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
    /// first submission (or with breakers disabled).
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
        // Holding the queues lock excludes the dispatcher's
        // pop+`admitting`-increment critical section, so a job in flight
        // between the queues and `running` is always visible through one
        // of the three checks.
        let mut queues = self.shared.queues.lock();
        while !(queues.len() == 0
            && self.shared.admitting.load(Ordering::SeqCst) == 0
            && self.shared.running.lock().is_empty())
        {
            // `settle` wakes this. An entry that went terminal while
            // queued leaves with the dispatcher's next tick and no
            // notify, hence the timeout.
            self.shared
                .dispatch_cv
                .wait_for(&mut queues, self.shared.config.poll_interval);
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.dispatch_cv.notify_all();
        if let Some(t) = self.dispatcher.take() {
            let _ = t.join();
        }
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
/// it, release the budget, and wake the dispatcher.
///
/// State priority: a deadline expiry beats an explicit cancel beats a
/// fault. `cancel_requested` (the client's flag) is what marks
/// `Cancelled`, *not* `group.is_cancelled()` — fail-fast cancels the
/// group internally on fault, and that must settle as `Failed`.
fn settle(shared: &Shared, core: &Arc<JobCore>) {
    let now = Instant::now();
    let fault = core.group.first_fault();
    let state = if core.timed_out.load(Ordering::SeqCst) {
        JobState::TimedOut
    } else if core.cancel_requested.load(Ordering::SeqCst) {
        JobState::Cancelled
    } else if fault.is_some() {
        // Every faulted attempt is a breaker failure, whether or not it
        // earns a retry — backoff must not hide a flapping tenant.
        let probe = core.probe.swap(false, Ordering::SeqCst);
        shared.breakers.record(&core.spec.tenant, true, probe, now);
        if try_requeue_for_retry(shared, core, now) {
            return; // not terminal: the job is queued for another attempt
        }
        JobState::Failed
    } else {
        JobState::Completed
    };
    if !core.finish_quiet(state) {
        return; // someone else settled it first
    }
    let probe = core.probe.swap(false, Ordering::SeqCst);
    match state {
        JobState::Completed => {
            shared.counters.completed.incr();
            shared.breakers.record(&core.spec.tenant, false, probe, now);
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
            shared.breakers.record(&core.spec.tenant, true, probe, now);
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
    // `wait_all` checks `running` under the queues lock and waits on
    // `dispatch_cv`: passing through that lock after the removal orders
    // this notify after its check, so the wake is not lost (the rule on
    // `sync::Condvar`).
    drop(shared.queues.lock());
    shared.dispatch_cv.notify_all();
    // Policy observation with no locks held and every counter settled,
    // before waiters wake — a submitter unblocked by wait() already
    // sees any grain adjustment this outcome caused.
    if let Some(hook) = &shared.config.policy {
        hook.call(&core.spec, &core.outcome_now(state));
    }
    // Waiters wake only now, with every counter above already settled.
    core.notify_waiters();
}

/// If the faulted job's policy allows another attempt, reset its fault
/// record, arm the backoff gate, and move it `Running → Queued` — budget
/// released so other jobs can use it while the backoff elapses. Returns
/// false when the job must fail instead (policy, attempts exhausted,
/// service shutdown, or the tenant's breaker is open).
fn try_requeue_for_retry(shared: &Shared, core: &Arc<JobCore>, now: Instant) -> bool {
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
    // `admitting` bridges the running→queues handoff so `wait_all`
    // (which checks queues, admitting, running under the queues lock)
    // can never observe the job in neither structure.
    shared.admitting.fetch_add(1, Ordering::SeqCst);
    shared.running.lock().retain(|c| !Arc::ptr_eq(c, core));
    let weight = shared.config.admission.weight_of(&core.spec.tenant);
    shared.queues.lock().push(Arc::clone(core), weight);
    shared.admitting.fetch_sub(1, Ordering::SeqCst);
    shared.dispatch_cv.notify_all();
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
/// invariant `admitted + rejected + shed + … = submitted` stays exact).
fn shed_job(shared: &Shared, core: &Arc<JobCore>, now: Instant) {
    *core.rejection.lock() = Some(AdmissionError::Shed {
        queued_for: now.saturating_duration_since(core.submitted_at),
        deadline: core.spec.deadline,
    });
    if core.finish_if_queued(JobState::Rejected) {
        shared.counters.shed.incr();
        core.group.cancel();
        core.notify_waiters();
    } else {
        // Lost the race to a concurrent cancel or admission between the
        // pick and here; don't leave a stale reason behind.
        *core.rejection.lock() = None;
    }
}

fn dispatcher_loop(shared: Arc<Shared>) {
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        if shutting_down {
            // Refuse everything still waiting, then leave once the
            // admitted jobs have settled.
            let drained = shared.queues.lock().drain();
            for core in drained {
                // A job queued for a retry attempt already ran and
                // faulted; shutdown ends it as Failed, not Rejected.
                if core.group.first_fault().is_some() {
                    if core.finish(JobState::Failed) {
                        shared.counters.failed.incr();
                    }
                    continue;
                }
                *core.rejection.lock() = Some(AdmissionError::ShuttingDown);
                if core.finish(JobState::Rejected) {
                    shared.counters.rejected.incr();
                }
            }
            if shared.running.lock().is_empty() {
                break;
            }
        }

        // Pressure: feed the control loop the runtime's cumulative
        // thread times and the queue state once per tick (rate-limited
        // internally).
        let now = Instant::now();
        {
            let rc = shared.runtime.counters();
            let queue_len = shared.queues.lock().len();
            shared.pressure.sample(
                now,
                rc.func_ns.sum(),
                rc.exec_ns.sum(),
                queue_len,
                shared.config.admission.max_queued_jobs,
            );
        }

        // Deadlines: scan admitted jobs and queue heads.
        {
            // Collect first, cancel after dropping the lock: cancel()
            // can retire the group's last in-flight member, running the
            // quiescence hook — and thus settle(), which takes
            // `running` — inline on this thread.
            let expired: Vec<Arc<JobCore>> = {
                let running = shared.running.lock();
                running
                    .iter()
                    .filter(|c| {
                        c.spec
                            .deadline
                            .is_some_and(|d| now.duration_since(c.submitted_at) >= d)
                    })
                    .map(Arc::clone)
                    .collect()
            };
            for core in expired {
                if !core.timed_out.swap(true, Ordering::SeqCst) {
                    core.group.cancel();
                    // settle() runs from the group's quiescence hook.
                }
            }
        }
        if shared.pressure.enabled() {
            // Shedding subsumes the queued-deadline scan: a queued job
            // whose sojourn (plus the estimated service time) has eaten
            // its deadline is picked here, along with CoDel head drops
            // under critical pressure.
            let sheds = {
                let queues = shared.queues.lock();
                shared.pressure.select_sheds(now, queues.iter())
            };
            for core in sheds {
                shed_job(&shared, &core, now);
                // The queue entry is reaped as a terminal head later.
            }
        } else {
            let queues = shared.queues.lock();
            let expired: Vec<Arc<JobCore>> = queues
                .iter()
                .filter(|c| {
                    c.spec
                        .deadline
                        .is_some_and(|d| now.duration_since(c.submitted_at) >= d)
                })
                .map(Arc::clone)
                .collect();
            drop(queues);
            for core in expired {
                // Never admitted: no budget to release, no group to drain.
                core.timed_out.store(true, Ordering::SeqCst);
                core.group.cancel();
                if core.finish(JobState::TimedOut) {
                    shared.counters.timed_out.incr();
                }
                // The queue entry is reaped as a terminal head later.
            }
        }

        // Admission: drain as many fair-share picks as the budget allows.
        if !shutting_down {
            loop {
                // The adaptive limit: the configured maximum when the
                // pressure loop is disabled or calm, shrunk under load.
                let max = shared.pressure.budget_limit();
                let now = Instant::now();
                let candidate = {
                    let mut queues = shared.queues.lock();
                    let core = queues.pop_next(|core| {
                        // A retrying job stays queued until its backoff
                        // gate opens; its tenant's FIFO order holds.
                        if core.not_before.lock().is_some_and(|t| t > now) {
                            return false;
                        }
                        let in_use = shared.budget_in_use.load(Ordering::SeqCst);
                        in_use == 0 || in_use + core.cost <= max
                    });
                    if core.is_some() {
                        // Under the queues lock: wait_all must never see
                        // the job in neither the queues nor `running`.
                        shared.admitting.fetch_add(1, Ordering::SeqCst);
                    }
                    core
                };
                match candidate {
                    None => break,
                    Some(core) => {
                        admit(&shared, core);
                        shared.admitting.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        }

        // Sleep until something changes (submission, settlement,
        // shutdown) or the next tick is due for deadline scanning.
        let mut queues = shared.queues.lock();
        shared
            .dispatch_cv
            .wait_for(&mut queues, shared.config.poll_interval);
    }
}

/// Reserve budget, start the root task, and arm the settlement hook.
/// Only the dispatcher thread calls this.
fn admit(shared: &Arc<Shared>, core: Arc<JobCore>) {
    // Queued → Admitted under the state mutex. Losing means the job went
    // terminal (handle-cancelled) between pop_next and here: drop it
    // without charging budget or starting anything — its waiters were
    // already notified by whoever finished it.
    if !core.try_admit() {
        return;
    }
    let now = Instant::now();
    shared.budget_in_use.fetch_add(core.cost, Ordering::SeqCst);
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
    let body_core = Arc::clone(&core);
    shared.runtime.spawn_in(
        &core.group,
        core.spec.priority.task_priority(),
        // The body stays in the core so a retry can run it again; only
        // one attempt is in flight at a time, so the lock is free.
        move |ctx| (*body_core.body.lock())(ctx),
    );
    // Arm settlement after the root is in the group (in-flight ≥ 1 until
    // the root exits, so the hook cannot fire before the DAG exists; if
    // the whole job already finished, on_quiescent runs settle inline).
    let hook_shared = Arc::clone(shared);
    let hook_core = Arc::clone(&core);
    core.group.on_quiescent(move || {
        settle(&hook_shared, &hook_core);
    });
}
