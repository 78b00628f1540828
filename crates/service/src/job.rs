//! Jobs: first-class units of submitted work.
//!
//! A *job* wraps a whole task DAG — a stencil run, a `parallel_for`
//! sweep, an arbitrary dataflow graph — behind one identity with a
//! tenant, a priority, an optional deadline, and a lifecycle:
//!
//! ```text
//! Queued ──▶ Admitted ──▶ Running ──▶ Completed
//!    ▲                       ├──────▶ Cancelled   (JobHandle::cancel)
//!    │                       ├──────▶ TimedOut    (deadline expiry)
//!    │                       ├──────▶ Failed      (task fault, FailurePolicy)
//!    │                       └──╮
//!    ╰──────── retry ───────────╯                 (RetryWithBackoff)
//!    └──────────────────────────────▶ Rejected    (admission control:
//!                                      queue-full | shed | breaker-open |
//!                                      shutting-down — see RejectReason)
//! ```
//!
//! Every task the job's root spawns (directly or transitively, through
//! the [`grain_runtime::TaskContext`] API) joins the job's
//! [`grain_runtime::TaskGroup`], which is what makes `wait`, `cancel`
//! and deadlines work per job instead of per runtime.

use crate::admission::{AdmissionError, RejectReason};
use crate::counters::JobCounters;
use grain_counters::sync::{Condvar, Mutex};
use grain_counters::{CounterValue, RegistryError};
use grain_runtime::{Priority, TaskContext, TaskError, TaskGroup};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Unique job identifier, allocated at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Job scheduling class, mapped onto the runtime's Priority Local-FIFO
/// queues (§I-B of the paper: high-priority dual queues, per-worker
/// normal queues, one low-priority queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JobPriority {
    /// Latency-sensitive; tasks go to the high-priority dual queues.
    Interactive,
    /// Default throughput class; per-worker normal queues.
    #[default]
    Batch,
    /// Runs only when nothing else needs the cores; the low queue.
    BestEffort,
}

impl JobPriority {
    /// The runtime task priority this class maps to.
    pub fn task_priority(self) -> Priority {
        match self {
            JobPriority::Interactive => Priority::High,
            JobPriority::Batch => Priority::Normal,
            JobPriority::BestEffort => Priority::Low,
        }
    }
}

/// Job lifecycle states. Terminal states are `Completed`, `Cancelled`,
/// `TimedOut`, `Failed` and `Rejected`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Accepted into a tenant queue, waiting for admission (or, after a
    /// faulted attempt under `RetryWithBackoff`, for re-admission).
    Queued,
    /// Past admission control; budget reserved, about to start.
    Admitted,
    /// Root task handed to the runtime; the DAG is executing.
    Running,
    /// Every task of the job terminated normally.
    Completed,
    /// Cancelled by [`JobHandle::cancel`]; queued members were skipped.
    Cancelled,
    /// The deadline expired before the job finished.
    TimedOut,
    /// A task of the job faulted (panicked or inherited a dependency
    /// fault) and the job's [`FailurePolicy`] did not (or could no
    /// longer) retry. The first fault is in [`JobOutcome::fault`].
    Failed,
    /// Refused by admission control — backpressure, load shedding, an
    /// open circuit breaker, or shutdown. The *class* of refusal is in
    /// [`JobOutcome::reject_reason`] / [`JobHandle::rejection`]; these
    /// are distinct conditions and must not be conflated.
    Rejected,
}

impl JobState {
    /// True for the five states a job can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed
                | JobState::Cancelled
                | JobState::TimedOut
                | JobState::Failed
                | JobState::Rejected
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobState::Queued => "queued",
            JobState::Admitted => "admitted",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed-out",
            JobState::Failed => "failed",
            JobState::Rejected => "rejected",
        };
        f.write_str(s)
    }
}

/// What the service does when a task of a job faults — i.e. a task body
/// panics (contained by the runtime's panic isolation) or inherits a
/// dependency fault through a `dataflow`/`when_all` chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Cancel the rest of the job as soon as any task faults: queued
    /// tasks are skipped, dormant dataflow nodes released, and the job
    /// finishes as [`JobState::Failed`] once in-flight tasks drain.
    /// The default.
    #[default]
    FailFast,
    /// Let every remaining task run; the job still finishes as
    /// [`JobState::Failed`] with the first fault recorded. Use when
    /// partial results matter.
    ContinueRemaining,
    /// Re-run the job body from scratch, up to `max_attempts` total
    /// attempts. Before re-admission the job waits out an exponential
    /// backoff of `base · 2^(n−1)` after its n-th faulted attempt,
    /// capped at `cap`; retries re-pass admission control (budget is
    /// released in between). Exhausting the attempts finishes the job
    /// as [`JobState::Failed`].
    RetryWithBackoff {
        /// Total attempts, including the first (clamped to ≥ 1).
        max_attempts: u32,
        /// Backoff after the first faulted attempt.
        base: Duration,
        /// Upper bound on the backoff, whatever the attempt number.
        cap: Duration,
    },
}

/// The chunkable *work shape* of a job: how much total work it covers
/// and the grain (work units per task) this submission was chunked at.
///
/// A shape-carrying job tells the service "this is `units` units of
/// work currently cut into `ceil(units / grain)` tasks" instead of
/// hiding the partition inside its body. That is the seam the
/// `grain-autotune` controller drives: it observes the completed job's
/// counters through the service policy hook and re-chunks the tenant's
/// *next* submission by changing `grain`. The service itself treats the
/// shape as opaque metadata — admission and scheduling are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobShape {
    /// Total work units the job covers (elements, cells, or busy-work
    /// iterations — the unit is the submitter's).
    pub units: u64,
    /// Work units per task this submission was chunked at (≥ 1).
    pub grain: u64,
}

impl JobShape {
    /// A shape of `units` total work at `grain` units per task.
    pub fn new(units: u64, grain: u64) -> Self {
        Self {
            units,
            grain: grain.max(1),
        }
    }

    /// The task count this shape expands to: `ceil(units / grain)`,
    /// at least 1.
    pub fn tasks(&self) -> u64 {
        self.units.div_ceil(self.grain.max(1)).max(1)
    }
}

/// Everything a client declares about a job up front. Build with
/// [`JobSpec::new`] and the chainable setters.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable job name; combined with the id into the counter
    /// instance `name#id`, so names need not be unique.
    pub name: String,
    /// The tenant this job is accounted to (fair-share bucket).
    pub tenant: String,
    /// Scheduling class.
    pub priority: JobPriority,
    /// Wall-clock budget measured from submission; on expiry the job is
    /// cancelled and finishes as [`JobState::TimedOut`].
    pub deadline: Option<Duration>,
    /// The client's estimate of how many tasks the job will run,
    /// used by admission control as the job's budget cost (clamped to a
    /// minimum of 1). A bad estimate degrades fairness, not correctness.
    pub estimated_tasks: u64,
    /// What to do when a task of the job faults.
    pub failure_policy: FailurePolicy,
    /// The job's chunkable work shape, when the submitter exposes one.
    /// Read by service policies (e.g. the autotune grain controller);
    /// ignored by admission and scheduling.
    pub shape: Option<JobShape>,
}

impl JobSpec {
    /// A batch-priority spec with no deadline and a cost estimate of 1.
    pub fn new(name: impl Into<String>, tenant: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tenant: tenant.into(),
            priority: JobPriority::default(),
            deadline: None,
            estimated_tasks: 1,
            failure_policy: FailurePolicy::default(),
            shape: None,
        }
    }

    /// Set the scheduling class.
    #[must_use]
    pub fn priority(mut self, p: JobPriority) -> Self {
        self.priority = p;
        self
    }

    /// Set the deadline (measured from submission).
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the estimated task count used as the admission cost.
    #[must_use]
    pub fn estimated_tasks(mut self, n: u64) -> Self {
        self.estimated_tasks = n;
        self
    }

    /// Set the failure policy.
    #[must_use]
    pub fn failure_policy(mut self, p: FailurePolicy) -> Self {
        self.failure_policy = p;
        self
    }

    /// Declare the job's chunkable work shape (also folds the shape's
    /// task count into the admission estimate when the default estimate
    /// of 1 was never overridden).
    #[must_use]
    pub fn shape(mut self, shape: JobShape) -> Self {
        if self.estimated_tasks <= 1 {
            self.estimated_tasks = shape.tasks();
        }
        self.shape = Some(shape);
        self
    }

    /// Shorthand for [`FailurePolicy::RetryWithBackoff`] with a one-second
    /// backoff cap.
    #[must_use]
    pub fn retry(self, max_attempts: u32, base: Duration) -> Self {
        self.failure_policy(FailurePolicy::RetryWithBackoff {
            max_attempts,
            base,
            cap: Duration::from_secs(1),
        })
    }
}

/// The root closure of a job: runs as the job's first task; everything
/// it spawns through the context joins the job's group. `FnMut` rather
/// than `FnOnce` so a `RetryWithBackoff` job can re-run it from scratch
/// on each attempt.
pub type JobBody = Box<dyn FnMut(&mut TaskContext<'_>) + Send>;

/// A job's state plus whether its terminal state has been *published*.
///
/// The winner of a terminal transition does its bookkeeping (counters,
/// budget release, policy hook) between making the state terminal and
/// calling [`JobCore::notify_waiters`]. `published` flips only there, and
/// it — not `state.is_terminal()` — is what `wait*` and
/// [`JobHandle::outcome`] key on, so a waiter that *arrives* inside that
/// window blocks until every observer has counted the job.
/// [`JobHandle::state`] may already read terminal.
struct Lifecycle {
    state: JobState,
    published: bool,
}

/// Shared state of one job. Internal; clients hold a [`JobHandle`].
pub(crate) struct JobCore {
    pub(crate) id: JobId,
    pub(crate) spec: JobSpec,
    pub(crate) group: Arc<TaskGroup>,
    pub(crate) counters: JobCounters,
    /// Admission budget cost (`spec.estimated_tasks.max(1)`).
    pub(crate) cost: u64,
    state: Mutex<Lifecycle>,
    state_cv: Condvar,
    pub(crate) cancel_requested: AtomicBool,
    pub(crate) timed_out: AtomicBool,
    /// This admission was a half-open circuit-breaker probe; its outcome
    /// decides whether the tenant's breaker re-closes or re-opens.
    pub(crate) probe: AtomicBool,
    pub(crate) rejection: Mutex<Option<AdmissionError>>,
    pub(crate) submitted_at: Instant,
    pub(crate) admitted_at: Mutex<Option<Instant>>,
    pub(crate) finished_at: Mutex<Option<Instant>>,
    /// Attempts started (1 after the first admission).
    pub(crate) attempts: AtomicU64,
    /// Retries performed; shared with the `/jobs{...}/tasks/retried`
    /// counter surface.
    pub(crate) retried: Arc<AtomicU64>,
    /// Backoff gate: the dispatcher will not re-admit the job before
    /// this instant.
    pub(crate) not_before: Mutex<Option<Instant>>,
    /// The root closure; the dispatcher runs it once per attempt.
    pub(crate) body: Mutex<JobBody>,
}

impl JobCore {
    /// `group` must be the same group `counters` was registered against,
    /// or the job's counter surface will read someone else's tasks.
    pub(crate) fn new(
        id: JobId,
        spec: JobSpec,
        group: Arc<TaskGroup>,
        counters: JobCounters,
        body: JobBody,
    ) -> Self {
        let cost = spec.estimated_tasks.max(1);
        let retried = counters.retried_handle();
        Self {
            id,
            spec,
            group,
            counters,
            cost,
            state: Mutex::new(Lifecycle {
                state: JobState::Queued,
                published: false,
            }),
            state_cv: Condvar::new(),
            cancel_requested: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            probe: AtomicBool::new(false),
            rejection: Mutex::new(None),
            submitted_at: Instant::now(),
            admitted_at: Mutex::new(None),
            finished_at: Mutex::new(None),
            attempts: AtomicU64::new(0),
            retried,
            not_before: Mutex::new(None),
            body: Mutex::new(body),
        }
    }

    /// The counter instance this job registers under: `name#id`.
    pub(crate) fn instance(&self) -> String {
        format!("{}#{}", self.spec.name, self.id.0)
    }

    pub(crate) fn state(&self) -> JobState {
        self.state.lock().state
    }

    /// The terminal state, once published (see [`Lifecycle`]).
    pub(crate) fn published_state(&self) -> Option<JobState> {
        let g = self.state.lock();
        g.published.then_some(g.state)
    }

    /// Non-terminal transition; wakes waiters. A job that already
    /// reached a terminal state is left alone — waiters may have
    /// observed that state, and it can never be un-terminalized.
    pub(crate) fn set_state(&self, to: JobState) {
        let mut g = self.state.lock();
        if g.state.is_terminal() {
            return;
        }
        g.state = to;
        self.state_cv.notify_all();
    }

    /// `Queued → Admitted`, atomic with respect to the
    /// `Queued → Cancelled` path in [`JobHandle::cancel`] (both run
    /// under the state mutex). Returns false — and changes nothing — if
    /// the job already left `Queued` (cancelled or expired while it
    /// waited); such a job must not be started or charged any budget.
    pub(crate) fn try_admit(&self) -> bool {
        let mut g = self.state.lock();
        if g.state != JobState::Queued {
            return false;
        }
        g.state = JobState::Admitted;
        self.state_cv.notify_all();
        true
    }

    /// Terminal transition `Queued → to` iff the job is still `Queued`,
    /// atomic with respect to [`try_admit`](Self::try_admit). Does not
    /// wake waiters — the winner finishes its bookkeeping first, then
    /// calls [`notify_waiters`](Self::notify_waiters).
    pub(crate) fn finish_if_queued(&self, to: JobState) -> bool {
        debug_assert!(to.is_terminal());
        let mut g = self.state.lock();
        if g.state != JobState::Queued {
            return false;
        }
        g.state = to;
        *self.finished_at.lock() = Some(Instant::now());
        true
    }

    /// Transition to terminal state `to` unless already terminal. Returns
    /// true if this call performed the transition — the winner does the
    /// terminal bookkeeping (counters, budget release) exactly once.
    pub(crate) fn finish(&self, to: JobState) -> bool {
        let won = self.finish_quiet(to);
        if won {
            self.notify_waiters();
        }
        won
    }

    /// [`finish`](Self::finish) without waking waiters: the winner does
    /// its bookkeeping first and calls
    /// [`notify_waiters`](Self::notify_waiters) after, so a returning
    /// [`JobHandle::wait`] always observes fully settled counters.
    pub(crate) fn finish_quiet(&self, to: JobState) -> bool {
        debug_assert!(to.is_terminal());
        let mut g = self.state.lock();
        if g.state.is_terminal() {
            return false;
        }
        g.state = to;
        *self.finished_at.lock() = Some(Instant::now());
        true
    }

    /// Publish the terminal state and wake everyone blocked in
    /// `wait_terminal*`. Every terminal transition ends here.
    pub(crate) fn notify_waiters(&self) {
        let mut g = self.state.lock();
        debug_assert!(g.state.is_terminal());
        g.published = true;
        self.state_cv.notify_all();
    }

    pub(crate) fn wait_terminal(&self) -> JobState {
        let mut g = self.state.lock();
        while !g.published {
            self.state_cv.wait(&mut g);
        }
        g.state
    }

    pub(crate) fn wait_terminal_timeout(&self, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut g = self.state.lock();
        while !g.published {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.state_cv.wait_for(&mut g, deadline - now);
        }
        Some(g.state)
    }

    /// Submission-to-finish latency (up to now for non-terminal jobs).
    pub(crate) fn turnaround(&self) -> Duration {
        self.finished_at
            .lock()
            .map_or_else(|| self.submitted_at.elapsed(), |t| t - self.submitted_at)
    }

    pub(crate) fn outcome_now(&self, state: JobState) -> JobOutcome {
        JobOutcome {
            state,
            tasks_completed: self.group.completed(),
            tasks_skipped: self.group.skipped(),
            tasks_budget_skipped: self.group.budget_skipped(),
            tasks_spawned: self.group.spawned(),
            tasks_faulted: self.group.faulted(),
            exec_ns: self.group.exec_ns(),
            turnaround: self.turnaround(),
            fault: self.group.first_fault(),
            retries: self.retried.load(Ordering::SeqCst),
            // Gated on the state: a shed attempt that lost its race to a
            // concurrent cancel clears `rejection` after the fact, and a
            // non-rejected outcome must never surface a reject reason.
            reject_reason: if state == JobState::Rejected {
                self.rejection.lock().as_ref().map(AdmissionError::reason)
            } else {
                None
            },
            origin_locality: None,
        }
    }
}

/// Final report of a finished job. Task counts are cumulative across
/// retry attempts (a job that faulted once and then succeeded reports
/// the tasks of both attempts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// The terminal state.
    pub state: JobState,
    /// Tasks that ran to completion.
    pub tasks_completed: u64,
    /// Tasks skipped by cancellation (queued members never executed and
    /// dataflow nodes released before spawning).
    pub tasks_skipped: u64,
    /// The subset of `tasks_skipped` dropped at dispatch because the
    /// job's deadline budget was already exhausted (deadline
    /// propagation, [`grain_runtime::TaskGroup::budget_exhausted`]).
    pub tasks_budget_skipped: u64,
    /// Total tasks ever entered into the job's group.
    pub tasks_spawned: u64,
    /// Tasks that faulted in the job's *last* attempt (the count is
    /// reset when a retry starts; a successful retry reports 0).
    pub tasks_faulted: u64,
    /// Cumulative execution time over the job's task phases.
    pub exec_ns: u64,
    /// Submission-to-finish wall-clock time.
    pub turnaround: Duration,
    /// The first fault of the last attempt, if any — a `Failed` job's
    /// reason; trace a mid-DAG panic with [`TaskError::root_cause`].
    pub fault: Option<TaskError>,
    /// Retries performed (attempts − 1 for admitted jobs).
    pub retries: u64,
    /// For [`JobState::Rejected`] jobs, the class of refusal
    /// (backpressure, shed, breaker, shutdown); `None` otherwise. The
    /// full detail is in [`JobHandle::rejection`].
    pub reject_reason: Option<RejectReason>,
    /// The locality the job actually ran on (or was refused by), when it
    /// was executed remotely via a fleet gateway. `None` for jobs that
    /// ran in the local service. Remote rejections carry the
    /// *originating* worker's id here rather than folding it into an
    /// error string.
    pub origin_locality: Option<usize>,
}

/// Client-side handle to a submitted job. Cheap to clone; the job's
/// counters stay registered as long as any handle (or the service's own
/// reference, while the job is live) exists.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) core: Arc<JobCore>,
}

impl JobHandle {
    /// The job's id.
    pub fn id(&self) -> JobId {
        self.core.id
    }

    /// The job's name as submitted.
    pub fn name(&self) -> &str {
        &self.core.spec.name
    }

    /// The tenant the job is accounted to.
    pub fn tenant(&self) -> &str {
        &self.core.spec.tenant
    }

    /// The counter instance (`name#id`) under `/jobs{...}`.
    pub fn instance(&self) -> String {
        self.core.instance()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.core.state()
    }

    /// Why admission refused the job, if it was rejected.
    pub fn rejection(&self) -> Option<AdmissionError> {
        self.core.rejection.lock().clone()
    }

    /// The coarse class of the refusal (queue-full vs shed vs
    /// breaker-open vs shutdown), if the job was rejected.
    pub fn reject_reason(&self) -> Option<RejectReason> {
        self.core
            .rejection
            .lock()
            .as_ref()
            .map(AdmissionError::reason)
    }

    /// The first fault of the job's current/last attempt, if any.
    pub fn fault(&self) -> Option<TaskError> {
        self.core.group.first_fault()
    }

    /// Retries performed so far.
    pub fn retries(&self) -> u64 {
        self.core.retried.load(Ordering::SeqCst)
    }

    /// Request cooperative cancellation. Queued jobs finish as
    /// [`JobState::Cancelled`] immediately; running jobs stop at the next
    /// scheduling point (queued tasks are skipped, dormant dataflow nodes
    /// released, active phases run to their end). Idempotent; has no
    /// effect on jobs already in a terminal state.
    pub fn cancel(&self) {
        self.core.cancel_requested.store(true, Ordering::SeqCst);
        // `Queued → Cancelled` and admission exclude each other under the
        // state mutex: either this wins and the dispatcher's `try_admit`
        // later skips the job (no budget charged, entry reaped as a
        // terminal head), or admission won and the cooperative path
        // below applies.
        if self.core.finish_if_queued(JobState::Cancelled) {
            // Not yet started: no tasks to drain; settle it here. Mark
            // the group before waking waiters so the outcome they read
            // is fully settled.
            self.core.group.cancel();
            self.core.notify_waiters();
            return;
        }
        if !self.core.state().is_terminal() {
            self.core.group.cancel();
        }
    }

    /// Block until the job reaches a terminal state; returns the outcome.
    pub fn wait(&self) -> JobOutcome {
        let state = self.core.wait_terminal();
        self.core.outcome_now(state)
    }

    /// [`wait`](Self::wait) with a timeout; `None` if still running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        self.core
            .wait_terminal_timeout(timeout)
            .map(|s| self.core.outcome_now(s))
    }

    /// The outcome if the job already finished, else `None`.
    pub fn outcome(&self) -> Option<JobOutcome> {
        self.core
            .published_state()
            .map(|state| self.core.outcome_now(state))
    }

    /// Full registry paths of this job's counters
    /// (`/jobs{name#id}/threads/...`).
    pub fn counter_paths(&self) -> Vec<String> {
        self.core.counters.paths()
    }

    /// Sample one of this job's counters by short name, e.g.
    /// `threads/count/cumulative`.
    pub fn query_counter(&self, name: &str) -> Result<CounterValue, RegistryError> {
        self.core.counters.query(name)
    }
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.core.id)
            .field("name", &self.core.spec.name)
            .field("tenant", &self.core.spec.tenant)
            .field("state", &self.core.state())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_map_onto_runtime_queues() {
        assert_eq!(JobPriority::Interactive.task_priority(), Priority::High);
        assert_eq!(JobPriority::Batch.task_priority(), Priority::Normal);
        assert_eq!(JobPriority::BestEffort.task_priority(), Priority::Low);
        assert_eq!(JobPriority::default(), JobPriority::Batch);
    }

    #[test]
    fn terminal_states() {
        for s in [
            JobState::Completed,
            JobState::Cancelled,
            JobState::TimedOut,
            JobState::Failed,
            JobState::Rejected,
        ] {
            assert!(s.is_terminal(), "{s}");
        }
        for s in [JobState::Queued, JobState::Admitted, JobState::Running] {
            assert!(!s.is_terminal(), "{s}");
        }
    }

    #[test]
    fn spec_builder_chains() {
        let spec = JobSpec::new("render", "tenant-a")
            .priority(JobPriority::Interactive)
            .deadline(Duration::from_secs(1))
            .estimated_tasks(64);
        assert_eq!(spec.name, "render");
        assert_eq!(spec.tenant, "tenant-a");
        assert_eq!(spec.priority, JobPriority::Interactive);
        assert_eq!(spec.deadline, Some(Duration::from_secs(1)));
        assert_eq!(spec.estimated_tasks, 64);
    }

    #[test]
    fn shape_sets_estimate_without_clobbering_an_explicit_one() {
        let spec = JobSpec::new("sweep", "a").shape(JobShape::new(1000, 100));
        assert_eq!(spec.shape, Some(JobShape::new(1000, 100)));
        assert_eq!(spec.estimated_tasks, 10, "derived from the shape");
        let spec = JobSpec::new("sweep", "a")
            .estimated_tasks(64)
            .shape(JobShape::new(1000, 100));
        assert_eq!(spec.estimated_tasks, 64, "explicit estimate wins");
        // Degenerate shapes stay sane.
        assert_eq!(JobShape::new(0, 0).tasks(), 1);
        assert_eq!(JobShape::new(7, 2).tasks(), 4);
    }

    #[test]
    fn finish_is_single_shot() {
        let reg = Arc::new(grain_counters::Registry::new());
        let group = TaskGroup::new();
        let counters = JobCounters::register(&reg, "t#0", &group).unwrap();
        let core = JobCore::new(
            JobId(0),
            JobSpec::new("t", "a"),
            group,
            counters,
            Box::new(|_| {}),
        );
        assert!(core.finish(JobState::Cancelled));
        assert!(!core.finish(JobState::Completed), "already terminal");
        assert_eq!(core.state(), JobState::Cancelled);
    }
}
