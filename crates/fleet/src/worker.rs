//! The worker side of the fleet: a [`JobService`] behind a locality.
//!
//! A [`FleetWorker`] wraps one locality with a job service and
//! registers three actions:
//!
//! * `fleet/submit` — admit a routed [`FleetJob`]. Idempotent by key:
//!   a key already running is acknowledged without a second execution;
//!   a key already *finished* re-pushes its recorded outcome instead of
//!   re-running (the dying-gateway / duplicated-frame path). Epochs
//!   older than the newest seen for a key are fenced.
//! * `fleet/drain` — stop accepting, cancel every still-queued fleet
//!   job, and hand their keys back for gateway re-dispatch. Running
//!   jobs finish and push normally.
//! * `sys/stats` — the load report placement polls
//!   ([`crate::stats::register_sys_stats`]).
//!
//! Completions are *pushed*: the service's policy hook, which every job
//! that reached the service's queue fires once, kicks a pump thread
//! ([`Pump`]), and the pump calls the gateway's `fleet/complete` action
//! for every job gone terminal; a push's reply kicks it again. A push
//! that fails (severed link, partition) is retried with backoff until
//! acknowledged — the gateway fences duplicates and stale epochs, so
//! at-least-once pushing composes into exactly-once accounting.

use crate::stats::register_sys_stats;
use crate::wire::{
    family_of_code, DrainReport, FleetJob, FleetOutcome, SubmitAck, SubmitVerdict, WireReject,
    ACTION_COMPLETE, ACTION_DRAIN, ACTION_SUBMIT,
};
use grain_counters::sync::{deadline_after, Condvar, Kick, Mutex, Pump};
use grain_net::Locality;
use grain_runtime::{SharedFuture, TaskContext};
use grain_service::{JobHandle, JobService, JobSpec, JobState, PolicyHook, ServiceConfig};
use grain_taskbench::storm::{spawn_in_job, spec_for_event};
use grain_taskbench::work::busy_work;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Backoff before re-pushing a completion whose push failed.
const PUSH_RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Upper bound on how long a parked test body waits for release: a
/// harness that dies before `release_parked` must not pin a worker
/// thread forever.
const PARK_TIMEOUT: Duration = Duration::from_secs(30);

/// Worker tuning.
#[derive(Debug, Clone)]
pub struct FleetWorkerConfig {
    /// The wrapped job service's configuration (its runtime's
    /// `locality_id` is overwritten with the locality's id so counter
    /// paths name the true locality; its `policy` hook, if any, is
    /// called after the worker's own).
    pub service: ServiceConfig,
    /// The gateway locality completions are pushed to.
    pub gateway: usize,
}

impl FleetWorkerConfig {
    /// Defaults around a service with `workers` runtime workers,
    /// pushing to `gateway`.
    pub fn new(gateway: usize, workers: usize) -> Self {
        Self {
            service: ServiceConfig::with_workers(workers),
            gateway,
        }
    }
}

/// Worker-side fleet accounting (exactly-once bookkeeping, counted).
#[derive(Default)]
pub struct WorkerCounters {
    /// Fresh keys admitted into the service.
    pub accepted: AtomicU64,
    /// Duplicate submissions absorbed (key already running/done).
    pub deduped: AtomicU64,
    /// Stale-epoch submissions refused.
    pub fenced: AtomicU64,
    /// Submissions the service's own admission refused.
    pub rejected: AtomicU64,
    /// Queued jobs cancelled and handed back by a drain.
    pub handed_back: AtomicU64,
    /// Completion pushes sent (first sends and retries).
    pub pushes_sent: AtomicU64,
    /// Pushes the gateway acknowledged.
    pub pushes_acked: AtomicU64,
    /// Pushes that failed in transit and were re-armed.
    pub push_failures: AtomicU64,
}

enum PushState {
    /// Job not terminal yet, or push not started.
    Idle,
    /// A push call is in flight, stamped with the epoch it carried. A
    /// reply only settles the entry if that epoch is still current —
    /// if a re-submission adopted a newer epoch while this push was in
    /// the air, the gateway fenced it and the outcome must go again.
    InFlight(u64, SharedFuture<u8>),
    /// The gateway acknowledged under the current epoch — done.
    Acked,
}

struct WorkerEntry {
    /// Newest epoch seen for this key; pushes carry it.
    epoch: u64,
    handle: JobHandle,
    /// Recorded outcome once terminal (epoch field re-stamped per push).
    done: Option<FleetOutcome>,
    push: PushState,
    retry_at: Option<Instant>,
}

/// Every key the worker holds (for idempotent re-submission), and the keys
/// whose push is not yet acknowledged, which are all a pump pass walks.
#[derive(Default)]
struct Entries {
    all: HashMap<u64, WorkerEntry>,
    live: BTreeSet<u64>,
}

struct WorkerShared {
    locality: Locality,
    service: Arc<JobService>,
    gateway: usize,
    entries: Mutex<Entries>,
    draining: Arc<AtomicBool>,
    /// Parked test bodies wait here; `release_parked` opens it.
    park: Arc<(Mutex<bool>, Condvar)>,
    counters: WorkerCounters,
    /// Wakes the completion pump for a pass.
    kick: Arc<Kick>,
}

/// One fleet worker: a job service joined to a locality, serving the
/// fleet actions. Dropping the worker stops its pump thread; the
/// wrapped service shuts down with the last `Arc` to it.
pub struct FleetWorker {
    shared: Arc<WorkerShared>,
    _pump: Pump,
}

impl FleetWorker {
    /// Install a fleet worker on `locality`: starts the service,
    /// registers `fleet/submit`, `fleet/drain`, and `sys/stats`, and
    /// spawns the completion pump.
    pub fn install(locality: &Locality, mut config: FleetWorkerConfig) -> Self {
        config.service.runtime.locality_id = locality.id();
        let kick: Arc<Kick> = Arc::default();
        let callers_hook = config.service.policy.take();
        config.service.policy = Some(PolicyHook::new({
            let kick = Arc::clone(&kick);
            move |spec, outcome| {
                kick.kick();
                if let Some(hook) = &callers_hook {
                    hook.call(spec, outcome);
                }
            }
        }));
        let service = Arc::new(JobService::new(config.service));
        let draining = Arc::new(AtomicBool::new(false));
        register_sys_stats(locality, Arc::clone(&service), Arc::clone(&draining));
        let shared = Arc::new(WorkerShared {
            locality: locality.clone(),
            service,
            gateway: config.gateway,
            entries: Mutex::new(Entries::default()),
            draining,
            park: Arc::new((Mutex::new(false), Condvar::new())),
            counters: WorkerCounters::default(),
            kick,
        });
        {
            let w = Arc::downgrade(&shared);
            locality.register_action(ACTION_SUBMIT, move |job: FleetJob| match w.upgrade() {
                Some(shared) => handle_submit(&shared, job),
                None => SubmitAck {
                    origin: 0,
                    verdict: SubmitVerdict::Draining,
                    reject: Some(WireReject::of(grain_service::RejectReason::ShuttingDown)),
                },
            });
        }
        {
            let w = Arc::downgrade(&shared);
            let id = locality.id() as u64;
            locality.register_action(ACTION_DRAIN, move |(): ()| match w.upgrade() {
                Some(shared) => handle_drain(&shared),
                None => DrainReport {
                    origin: id,
                    handed_back: Vec::new(),
                },
            });
        }
        let pump = Pump::spawn(
            format!("grain-fleet-worker-{}", locality.id()),
            Arc::clone(&shared.kick),
            Arc::downgrade(&shared),
            pump_completions,
        );
        Self {
            shared,
            _pump: pump,
        }
    }

    /// The wrapped job service (counters, pressure signal, ...).
    pub fn service(&self) -> &Arc<JobService> {
        &self.shared.service
    }

    /// Worker-side fleet counters.
    pub fn counters(&self) -> &WorkerCounters {
        &self.shared.counters
    }

    /// Whether the worker has announced a drain.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Open the park latch: every parked body (test hook
    /// [`FleetJob::park`]) proceeds. Idempotent.
    pub fn release_parked(&self) {
        let (lock, cv) = &*self.shared.park;
        *lock.lock() = true;
        cv.notify_all();
    }

    /// Keys currently tracked (admitted or finished) — test visibility.
    pub fn tracked_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.shared.entries.lock().all.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}

impl Drop for FleetWorker {
    fn drop(&mut self) {
        self.release_parked();
    }
}

/// Build the job body a [`FleetJob`] describes. Declarative in, closure
/// out: panics for fault injection, parks on the worker latch for the
/// chaos tests, expands a taskbench graph for shaped families, or runs
/// the flat spawn loop.
fn spawn_body(
    job: &FleetJob,
    park: Arc<(Mutex<bool>, Condvar)>,
) -> impl FnMut(&mut TaskContext<'_>) + Send + 'static {
    let faulty = job.faulty;
    let do_park = job.park;
    let family = family_of_code(job.family);
    let tasks = job.tasks;
    let grain_iters = job.grain_iters;
    let payload = job.payload_bytes;
    let seed = job.seed;
    move |ctx| {
        if do_park {
            let (lock, cv) = &*park;
            cv.wait_until(&mut lock.lock(), deadline_after(PARK_TIMEOUT), |r| *r);
        }
        if faulty {
            panic!("fleet storm fault injection");
        }
        match spec_for_event(family, tasks, grain_iters, payload, seed) {
            Some(spec) => {
                let graph = Arc::new(spec.build());
                spawn_in_job(ctx, &graph);
            }
            None => {
                // Flat family: `tasks` independent children of the root.
                for t in 0..tasks {
                    let node_seed = seed ^ (t + 1);
                    ctx.spawn(move |_| {
                        std::hint::black_box(busy_work(node_seed, grain_iters));
                    });
                }
            }
        }
    }
}

fn handle_submit(shared: &Arc<WorkerShared>, job: FleetJob) -> SubmitAck {
    let origin = shared.locality.id() as u64;
    if shared.draining.load(Ordering::SeqCst) {
        return SubmitAck {
            origin,
            verdict: SubmitVerdict::Draining,
            reject: Some(WireReject::of(grain_service::RejectReason::ShuttingDown)),
        };
    }
    let mut guard = shared.entries.lock();
    let entries = &mut *guard;
    if let Some(entry) = entries.all.get_mut(&job.key) {
        if job.epoch < entry.epoch {
            shared.counters.fenced.fetch_add(1, Ordering::Relaxed);
            return SubmitAck {
                origin,
                verdict: SubmitVerdict::Fenced,
                reject: None,
            };
        }
        // Adopt the newer epoch: the (re-)push carries it past the
        // gateway's fence.
        entry.epoch = job.epoch;
        shared.counters.deduped.fetch_add(1, Ordering::Relaxed);
        let verdict = if entry.done.is_some() {
            // Re-arm the push under the new epoch so the recorded
            // outcome reaches the gateway even if the original push
            // was fenced or lost.
            if matches!(entry.push, PushState::Acked) {
                entry.push = PushState::Idle;
                entry.retry_at = None;
                entries.live.insert(job.key);
            }
            SubmitVerdict::AlreadyDone
        } else {
            SubmitVerdict::Accepted
        };
        drop(guard);
        if verdict == SubmitVerdict::AlreadyDone {
            shared.kick.kick();
        }
        return SubmitAck {
            origin,
            verdict,
            reject: None,
        };
    }
    // Fresh key: admit into the service.
    let mut spec = JobSpec::new(job.name.clone(), job.tenant.clone()).estimated_tasks(job.tasks);
    if let Some(d) = job.deadline() {
        spec = spec.deadline(d);
    }
    let body = spawn_body(&job, Arc::clone(&shared.park));
    let handle = shared.service.submit(spec, body);
    if handle.state() == JobState::Rejected {
        // Worker-side admission refused (queue full / breaker /
        // pressure): no entry — the gateway retries elsewhere.
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        let reject = handle
            .reject_reason()
            .map(WireReject::of)
            .unwrap_or(WireReject {
                code: 1,
                retry_after_ms: 0,
            });
        return SubmitAck {
            origin,
            verdict: SubmitVerdict::Rejected,
            reject: Some(reject),
        };
    }
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    entries.live.insert(job.key);
    entries.all.insert(
        job.key,
        WorkerEntry {
            epoch: job.epoch,
            handle,
            done: None,
            push: PushState::Idle,
            retry_at: None,
        },
    );
    SubmitAck {
        origin,
        verdict: SubmitVerdict::Accepted,
        reject: None,
    }
}

fn handle_drain(shared: &Arc<WorkerShared>) -> DrainReport {
    let origin = shared.locality.id() as u64;
    shared.draining.store(true, Ordering::SeqCst);
    let mut handed_back = Vec::new();
    let mut entries = shared.entries.lock();
    let queued: Vec<u64> = entries
        .all
        .iter()
        .filter(|(_, e)| e.done.is_none() && e.handle.state() == JobState::Queued)
        .map(|(k, _)| *k)
        .collect();
    for key in queued {
        let Some(entry) = entries.all.get(&key) else {
            continue;
        };
        entry.handle.cancel();
        // Hand back only if the cancel won while the job was still
        // queued: then it ended, published, before `cancel` returned. If
        // admission raced us and the job runs anyway, it completes
        // through the normal push path instead.
        let won = entry
            .handle
            .outcome()
            .is_some_and(|o| o.state == JobState::Cancelled && o.tasks_spawned == 0);
        if won {
            entries.all.remove(&key);
            entries.live.remove(&key);
            handed_back.push(key);
            shared.counters.handed_back.fetch_add(1, Ordering::Relaxed);
        }
    }
    handed_back.sort_unstable();
    DrainReport {
        origin,
        handed_back,
    }
}

/// One pump pass: record newly-terminal jobs and (re)push completions.
/// Returns the earliest push retry still to come.
fn pump_completions(shared: &Arc<WorkerShared>) -> Option<Instant> {
    let now = Instant::now();
    let mut due: Option<Instant> = None;
    // The policy hook that kicks this pass runs just before the service
    // publishes the outcome; a job caught in between needs another pass.
    let mut publishing = false;
    {
        let mut guard = shared.entries.lock();
        let Entries { all, live } = &mut *guard;
        live.retain(|key| {
            let Some(entry) = all.get_mut(key) else {
                return false;
            };
            if entry.done.is_none() {
                if let Some(outcome) = entry.handle.outcome() {
                    let fault_msg = outcome
                        .fault
                        .as_ref()
                        .map(|f| format!("{}", f.root_cause()));
                    entry.done = Some(FleetOutcome {
                        key: *key,
                        epoch: entry.epoch,
                        origin: shared.locality.id() as u64,
                        state: outcome.state,
                        tasks_completed: outcome.tasks_completed,
                        tasks_spawned: outcome.tasks_spawned,
                        tasks_faulted: outcome.tasks_faulted,
                        exec_ns: outcome.exec_ns,
                        func_ns: outcome.func_ns,
                        retries: outcome.retries,
                        fault_msg,
                        reject: outcome.reject_reason.map(WireReject::of),
                    });
                } else {
                    publishing |= entry.handle.state().is_terminal();
                    return true;
                }
            }
            match &entry.push {
                PushState::Acked => return false,
                PushState::Idle => {}
                PushState::InFlight(sent_epoch, fut) => match fut.try_get() {
                    None => return true,
                    Some(Ok(_)) if *sent_epoch == entry.epoch => {
                        entry.push = PushState::Acked;
                        shared.counters.pushes_acked.fetch_add(1, Ordering::Relaxed);
                        return false;
                    }
                    // The reply acknowledges a stale-epoch push the
                    // gateway fenced; the current epoch is still
                    // unaccounted there. Push again.
                    Some(Ok(_)) => {
                        entry.push = PushState::Idle;
                        entry.retry_at = None;
                    }
                    Some(Err(_)) => {
                        shared
                            .counters
                            .push_failures
                            .fetch_add(1, Ordering::Relaxed);
                        entry.push = PushState::Idle;
                        entry.retry_at = Some(now + PUSH_RETRY_BACKOFF);
                    }
                },
            }
            if let Some(at) = entry.retry_at.filter(|&at| now < at) {
                due = Some(due.map_or(at, |due| due.min(at)));
                return true;
            }
            let Some(done) = &entry.done else {
                return true;
            };
            let mut out = done.clone();
            out.epoch = entry.epoch;
            shared.counters.pushes_sent.fetch_add(1, Ordering::Relaxed);
            let fut: SharedFuture<u8> =
                shared
                    .locality
                    .async_remote(shared.gateway, ACTION_COMPLETE, &out);
            // The reply settles the push or re-arms it.
            let kick = Arc::clone(&shared.kick);
            fut.on_settled(move |_| kick.kick());
            entry.push = PushState::InFlight(out.epoch, fut);
            entry.retry_at = None;
            true
        });
    }
    if publishing {
        std::thread::yield_now();
        shared.kick.kick();
    }
    due
}
