//! The runtime: worker pool, spawn paths, task context, termination.

use crate::fault::{TaskError, WatchdogConfig};
use crate::future::{self, Countdown, Shared, SharedFuture, Tail, Waiter};
use crate::group::{CancelToken, TaskGroup};
use crate::scheduler::{Scheduler, SchedulerKind};
use crate::task::{Poll, Priority, Runnable, StagedTask, Task, TaskId, TaskIdAllocator, TaskState};
use grain_counters::sync::{Condvar, Mutex};
use grain_counters::threads::ThreadCounters;
use grain_counters::{FaultPlan, RawCounter, Registry, Unit};
use grain_topology::host;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Runtime configuration. Start from [`RuntimeConfig::default`] (all host
/// cores, the paper's Priority Local-FIFO policy) and override fields.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker OS threads ("one static OS thread per core" by
    /// default; oversubscription is allowed and functionally sound).
    pub workers: usize,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Number of high-priority dual queues (§I-B: "a specified number of
    /// high priority dual queues").
    pub high_queues: usize,
    /// Failed full search rounds before a worker parks.
    pub spin_rounds: u32,
    /// Upper bound on one parking nap (re-checks for work after).
    pub park_timeout: Duration,
    /// Record per-worker task-event timelines (see [`crate::trace`]).
    /// Off by default: tracing costs one buffer append per phase.
    pub trace: bool,
    /// Deterministic fault-injection plan. `None` (default) injects
    /// nothing. Only consulted when the crate is built with the
    /// `fault-inject` feature — release builds without it compile the
    /// injection hooks out entirely.
    pub fault_plan: Option<FaultPlan>,
    /// Stall watchdog. `None` (default) runs no monitor thread; `Some`
    /// starts one that samples progress every `interval` and reports
    /// stalls (see [`WatchdogConfig`] and `/runtime/watchdog/*`).
    pub watchdog: Option<WatchdogConfig>,
    /// Id of the locality this runtime represents (default 0, the root).
    /// Parameterizes every registered counter path — a runtime on
    /// locality 3 exposes `/threads{locality#3/total}/…` — so a
    /// multi-locality deployment gets a disjoint counter namespace per
    /// process/locality (the namespace HPX's distributed monitoring
    /// queries).
    pub locality_id: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: host::available_cores(),
            scheduler: SchedulerKind::PriorityLocalFifo,
            high_queues: 1,
            spin_rounds: 8,
            park_timeout: Duration::from_micros(200),
            trace: false,
            fault_plan: None,
            watchdog: None,
            locality_id: 0,
        }
    }
}

impl RuntimeConfig {
    /// Config with an explicit worker count and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }
}

/// Eventcount-style parking spot.
///
/// `generation` closes the classic lost-wakeup window between a worker's
/// final empty work search and its decision to sleep: a worker snapshots
/// the generation *before* searching ([`Inner::park_ticket`]); every
/// [`Inner::wake`] bumps it (whether or not anyone is asleep yet). At
/// park time a stale ticket proves work may have arrived after the search
/// started, so the worker aborts the park and searches again — checked
/// both before and after taking the lock, so a wake that lands between
/// "announce sleep" and "actually wait" can never be missed.
struct Parker {
    lock: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
    generation: AtomicUsize,
}

struct IdleGate {
    lock: Mutex<()>,
    cv: Condvar,
}

/// Watchdog event counters, registered as `/runtime{...}/watchdog/*`.
pub(crate) struct WatchdogCounters {
    /// Progress samples taken.
    pub(crate) checks: Arc<RawCounter>,
    /// Stall episodes detected (no progress for `stall_after` while work
    /// existed).
    pub(crate) stalls: Arc<RawCounter>,
    /// Diagnostic dumps emitted (one per stall episode).
    pub(crate) dumps: Arc<RawCounter>,
}

/// Shared state of a runtime: queues, counters, lifecycle flags.
pub(crate) struct Inner {
    pub(crate) scheduler: Scheduler,
    pub(crate) counters: ThreadCounters,
    pub(crate) registry: Registry,
    pub(crate) ids: TaskIdAllocator,
    pub(crate) in_flight: AtomicUsize,
    pub(crate) shutdown: AtomicBool,
    /// Workers with index ≥ this limit are throttled (parked without
    /// taking work) — the Porterfield-style thread-throttling actuator
    /// the paper's §V/§VI discuss driving with these counters.
    pub(crate) active_limit: AtomicUsize,
    pub(crate) tracer: crate::trace::Tracer,
    pub(crate) config: RuntimeConfig,
    /// Dormant dataflow reservations: nodes whose dependencies have not
    /// settled yet. Not part of `in_flight` (no task exists yet), but
    /// still "work the runtime owes" — the watchdog counts them when
    /// judging whether a flat progress signature is a stall (a dependency
    /// cycle is exactly `in_flight == 0 && dormant > 0`, forever).
    pub(crate) dormant: AtomicUsize,
    /// Worker threads that died from an uncontained panic (e.g. a
    /// runtime-internal bug). Non-zero turns indefinite waits into loud
    /// failures instead of hangs.
    pub(crate) dead_workers: AtomicUsize,
    pub(crate) watchdog: WatchdogCounters,
    parker: Parker,
    idle: IdleGate,
    /// Wakes the watchdog thread early (shutdown).
    monitor: Parker,
}

thread_local! {
    /// (address of the runtime's Inner, worker index) when the current
    /// thread is a worker.
    static CURRENT_WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Where the settle that is the last act of a worker's phase — the
/// output of the task node it has just run — leaves the dependents it
/// readies: converted on the spot and collected here, for the worker to
/// queue on its own side when the phase is over. Nothing runs on the
/// worker in between but continuations, so nothing waits unseen behind a
/// body. Every other settle (a `Promise::set` in the middle of a body,
/// an external thread's) has no hand-off and stages what it readies.
pub(crate) struct Handoff<'a> {
    inner: &'a Inner,
    worker: usize,
    released: &'a mut Vec<Task>,
}

impl Inner {
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    /// Worker index if the calling thread is one of this runtime's workers.
    pub(crate) fn current_worker(&self) -> Option<usize> {
        CURRENT_WORKER.with(|c| match c.get() {
            Some((addr, w)) if addr == self.addr() => Some(w),
            _ => None,
        })
    }

    pub(crate) fn bind_worker(&self, w: usize) {
        let addr = self.addr();
        CURRENT_WORKER.with(|c| c.set(Some((addr, w))));
    }

    pub(crate) fn unbind_worker(&self) {
        CURRENT_WORKER.with(|c| c.set(None));
    }

    /// Make the task in worker `w`'s next slot, if any, visible to the
    /// other workers. Called by `w` itself wherever it is about to stop
    /// looking for work.
    pub(crate) fn publish_next(&self, w: usize) {
        if self.scheduler.queues.flush_next(w) {
            self.wake();
        }
    }

    /// Queue what the phase worker `w` has just finished handed off: the
    /// first task in its next slot, where its coming search finds it
    /// with no queue in between and nobody needs waking; any others on
    /// its pending queue, announced with one wake.
    pub(crate) fn place_released(&self, w: usize, released: &mut Vec<Task>) {
        let queues = &self.scheduler.queues;
        let mut tasks = released.drain(..);
        let turned_away = tasks.next().and_then(|t| queues.offer_next(w, t).err());
        let mut published = false;
        for task in turned_away.into_iter().chain(tasks) {
            queues.push_pending(w, task);
            published = true;
        }
        if published {
            self.wake();
        }
    }

    /// Core spawn path: route a staged task to its queue and wake a
    /// sleeper.
    pub(crate) fn spawn_staged(&self, staged: StagedTask) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let here = self.current_worker();
        let w = here.unwrap_or_else(|| self.scheduler.queues.next_rr());
        self.counters.spawned.incr(w);
        match staged.priority {
            Priority::High => self.scheduler.queues.push_high(staged),
            Priority::Normal => self.scheduler.queues.push_staged(w, staged),
            Priority::Low => self.scheduler.queues.push_low(staged),
        }
        self.wake();
    }

    /// Spawn a one-phase closure with a priority; returns the task id.
    pub(crate) fn spawn_once(
        self: &Arc<Self>,
        priority: Priority,
        f: impl FnOnce(&mut TaskContext<'_>) + Send + 'static,
    ) -> TaskId {
        self.spawn_once_in(None, priority, f)
    }

    /// Spawn a one-phase closure as a member of `group` (None: ungrouped).
    /// Enters the group before the task becomes visible to the scheduler,
    /// so the group can never look quiescent while the task is queued.
    pub(crate) fn spawn_once_in(
        self: &Arc<Self>,
        group: Option<Arc<TaskGroup>>,
        priority: Priority,
        f: impl FnOnce(&mut TaskContext<'_>) + Send + 'static,
    ) -> TaskId {
        if let Some(g) = &group {
            g.enter();
        }
        let id = self.ids.allocate();
        self.spawn_staged(StagedTask::once(id, priority, f).with_group(group));
        id
    }

    /// Spawn a multi-phase body.
    pub(crate) fn spawn_phased(
        self: &Arc<Self>,
        priority: Priority,
        body: impl FnMut(&mut TaskContext<'_>) -> Poll + Send + 'static,
    ) -> TaskId {
        let id = self.ids.allocate();
        self.spawn_staged(StagedTask::phased(id, priority, body));
        id
    }

    /// `hpx::async`: run `f` as a task, return a future for its result.
    pub(crate) fn async_call<R: Send + Sync + 'static>(
        self: &Arc<Self>,
        priority: Priority,
        f: impl FnOnce(&mut TaskContext<'_>) -> R + Send + 'static,
    ) -> SharedFuture<R> {
        self.async_call_in(None, priority, f)
    }

    /// Grouped `hpx::async`: a task node with no inputs. If the group is
    /// cancelled before dispatch the body never runs and the future
    /// faults with [`TaskError::Cancelled`].
    pub(crate) fn async_call_in<R: Send + Sync + 'static>(
        self: &Arc<Self>,
        group: Option<Arc<TaskGroup>>,
        priority: Priority,
        f: impl FnOnce(&mut TaskContext<'_>) -> R + Send + 'static,
    ) -> SharedFuture<R> {
        self.dataflow_in::<(), R>(group, priority, &[], move |ctx, _| f(ctx))
    }

    /// `hpx::dataflow`: when every dependency is ready, spawn a task that
    /// consumes their values; return the future of its result. The task is
    /// not queued until the inputs are ready — dependencies hold only a
    /// reference to the node, matching HPX's staging economy.
    pub(crate) fn dataflow<T, R>(
        self: &Arc<Self>,
        priority: Priority,
        deps: &[SharedFuture<T>],
        f: impl FnOnce(&mut TaskContext<'_>, Vec<Arc<T>>) -> R + Send + 'static,
    ) -> SharedFuture<R>
    where
        T: Send + Sync + 'static,
        R: Send + Sync + 'static,
    {
        self.dataflow_in(None, priority, deps, f)
    }

    /// `hpx::dataflow`, grouped or not: one [`TaskNode`] that registers
    /// on every input and, once they are all ready, is itself the task
    /// that consumes their values. A faulted input faults the output at
    /// once (one [`TaskError::Dependency`] wrap per hop) and nothing runs.
    ///
    /// A grouped node is accounted into its group *immediately* as a
    /// reservation — before its inputs are ready — so the group cannot
    /// look quiescent while part of its DAG is still dormant. The
    /// reservation is retired exactly once: readiness hands it to the
    /// task, a fault or a cancellation exits the group without running.
    pub(crate) fn dataflow_in<T, R>(
        self: &Arc<Self>,
        group: Option<Arc<TaskGroup>>,
        priority: Priority,
        deps: &[SharedFuture<T>],
        f: impl FnOnce(&mut TaskContext<'_>, Vec<Arc<T>>) -> R + Send + 'static,
    ) -> SharedFuture<R>
    where
        T: Send + Sync + 'static,
        R: Send + Sync + 'static,
    {
        let waits = !deps.is_empty();
        if waits {
            self.dormant.fetch_add(1, Ordering::SeqCst);
        }
        if let Some(g) = &group {
            g.enter();
        }
        let member_of = group.clone();
        let node = Arc::new(Shared::pending(TaskNode {
            count: Countdown::new(deps.len()),
            inner: Arc::clone(self),
            priority,
            waits,
            grouped: group.is_some(),
            armed: Mutex::new(Some(Armed {
                deps: deps.to_vec(),
                f,
                group,
            })),
        }));
        for dep in deps {
            dep.subscribe(&node);
        }
        if node.tail.count.input_ready() {
            Arc::clone(&node).fire(Some(self), None);
        }
        // A node still waiting must be within reach of `cancel`; one
        // that fired while it was built has retired its reservation.
        if let Some(g) = member_of {
            if node.tail.count.is_dormant()
                && !g.register_dormant(Arc::downgrade(&node) as Weak<dyn Waiter>)
            {
                node.cancel();
            }
        }
        SharedFuture::of(node)
    }

    /// Called when a task reaches `Terminated`.
    pub(crate) fn task_done(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _g = self.idle.lock.lock();
            self.idle.cv.notify_all();
        }
    }

    /// Resume a previously suspended task.
    pub(crate) fn resume(self: &Arc<Self>, mut task: Task) {
        task.transition(TaskState::Pending);
        let w = self
            .current_worker()
            .unwrap_or_else(|| self.scheduler.queues.next_rr());
        self.scheduler.queues.push_pending(w, task);
        self.wake();
    }

    /// Snapshot the wake generation. Taken at the top of a worker-loop
    /// iteration, *before* the work search, so any spawn/resume/shutdown
    /// that lands during or after the search invalidates the ticket and
    /// turns the subsequent [`park`](Self::park) into a no-op re-probe.
    pub(crate) fn park_ticket(&self) -> usize {
        self.parker.generation.load(Ordering::SeqCst)
    }

    /// Wake sleeping workers. Always advances the generation first so a
    /// worker between its final empty search and its park observes the
    /// event through its stale ticket even though it is not asleep yet.
    pub(crate) fn wake(&self) {
        self.parker.generation.fetch_add(1, Ordering::SeqCst);
        if self.parker.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.parker.lock.lock();
            self.parker.cv.notify_all();
        }
    }

    /// Park the calling worker until woken or timed out — but only if no
    /// wake happened since `ticket` was taken, the queues still look
    /// empty, and shutdown has not begun.
    pub(crate) fn park(&self, ticket: usize) {
        self.park_if(ticket, || self.scheduler.queues.total_len() == 0)
    }

    /// Park a *throttled* worker: same protocol, but queued work does not
    /// keep it awake (it must not take any) — only a wake (generation
    /// bump, e.g. from [`Runtime::set_active_workers`] or shutdown) or
    /// the timeout gets it back up to re-check the throttle limit.
    pub(crate) fn park_throttled(&self, ticket: usize) {
        self.park_if(ticket, || true)
    }

    fn park_if(&self, ticket: usize, quiet: impl Fn() -> bool) {
        self.parker.sleepers.fetch_add(1, Ordering::SeqCst);
        // Re-check after announcing sleep: a stale ticket means a wake
        // fired after our search started — the work it signalled may be
        // work we already failed to find, so re-search instead of
        // sleeping on it.
        if self.parker.generation.load(Ordering::SeqCst) != ticket
            || !quiet()
            || self.shutdown.load(Ordering::SeqCst)
        {
            self.parker.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let mut g = self.parker.lock.lock();
        // Final check under the lock: `wake` bumps the generation before
        // taking this lock to notify, so a bump observed here happened
        // strictly before our wait — and one we don't observe will take
        // the lock after us and its notify_all reaches our wait.
        if self.parker.generation.load(Ordering::SeqCst) == ticket {
            self.parker.cv.wait_for(&mut g, self.config.park_timeout);
        }
        drop(g);
        self.parker.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Block until no task is in flight (staged, pending, active or
    /// suspended).
    ///
    /// # Panics
    /// Panics — instead of hanging forever — if a worker thread has died
    /// and the remaining workers make no progress on the in-flight tasks.
    pub(crate) fn wait_idle(&self) {
        if !self.try_wait_idle() {
            panic!(
                "Runtime::wait_idle would hang: {} worker thread(s) died and {} task(s) \
                 are stranded without progress",
                self.dead_workers.load(Ordering::SeqCst),
                self.in_flight.load(Ordering::SeqCst),
            );
        }
    }

    /// [`wait_idle`](Self::wait_idle) that reports strandedness instead of
    /// panicking: returns `false` if a worker died and the in-flight count
    /// stopped moving (the wait would otherwise never finish).
    pub(crate) fn try_wait_idle(&self) -> bool {
        const STRANDED_AFTER: Duration = Duration::from_millis(200);
        let mut g = self.idle.lock.lock();
        let mut last_sig = (0u64, 0usize);
        let mut flat_since = Instant::now();
        while self.in_flight.load(Ordering::SeqCst) != 0 {
            self.idle.cv.wait_for(&mut g, Duration::from_millis(1));
            if self.dead_workers.load(Ordering::SeqCst) > 0 {
                let sig = (
                    self.counters.phases.sum(),
                    self.in_flight.load(Ordering::SeqCst),
                );
                if sig != last_sig {
                    last_sig = sig;
                    flat_since = Instant::now();
                } else if flat_since.elapsed() >= STRANDED_AFTER {
                    return false;
                }
            }
        }
        true
    }
}

/// What a task node holds until it runs or is released.
struct Armed<T, F> {
    deps: Vec<SharedFuture<T>>,
    f: F,
    /// Taken by the fire that queues the node: the task carries it then.
    group: Option<Arc<TaskGroup>>,
}

/// The tail of the future `async_call` and `dataflow` return: the task
/// that produces its value. One allocation is the output future, the
/// waiter counting down on every pending input, and — once those are
/// ready — the task's entry in a queue. The worker that runs it settles
/// the output: with the closure's result as the last act of the phase,
/// with [`TaskError::Panicked`] if the closure unwinds, with
/// [`TaskError::Cancelled`] if the task is skipped at dispatch.
struct TaskNode<T, F> {
    count: Countdown,
    inner: Arc<Inner>,
    priority: Priority,
    /// Has inputs, so counts as dormant until it fires or is released.
    waits: bool,
    /// `armed` holds a group for the fire to take.
    grouped: bool,
    armed: Mutex<Option<Armed<T, F>>>,
}

impl<T: Send + Sync, F: Send> Tail for TaskNode<T, F> {}

impl<T, R, F> Shared<R, TaskNode<T, F>>
where
    T: Send + Sync + 'static,
    R: Send + Sync + 'static,
    F: FnOnce(&mut TaskContext<'_>, Vec<Arc<T>>) -> R + Send + 'static,
{
    /// Every input is ready: the node becomes a task. Taking `self` it
    /// takes the reference the queue entry will be. `rt` is the node's
    /// runtime where the caller has it at hand: the node's own reference
    /// to it is inside what is about to be queued.
    fn fire(self: Arc<Self>, rt: Option<&Inner>, handoff: Option<&mut Handoff<'_>>) {
        let node = &self.tail;
        let inner = &*node.inner;
        if node.waits {
            inner.dormant.fetch_sub(1, Ordering::SeqCst);
        }
        let group = match node.grouped {
            true => node.armed.lock().as_mut().and_then(|a| a.group.take()),
            false => None,
        };
        if let Some(g) = group.as_ref().filter(|g| g.is_cancelled()) {
            // A tripped token wins even where `cancel` has not reached
            // this node yet: nothing of a cancelled group is queued.
            node.armed.lock().take();
            g.exit_skipped();
            self.settle(Err(TaskError::Cancelled), None);
            return;
        }
        let id = inner.ids.allocate();
        let priority = node.priority;
        // Readied by the output a worker of this runtime is settling as
        // the last act of a phase? Then the node is converted here and
        // queued by that worker when the phase is over, never staged. Any
        // other fire — from an external thread, from a `Promise::set` in
        // the middle of a body, at another priority — takes the staged
        // path, where idle workers find the task while this thread
        // carries on.
        let handoff = handoff
            .filter(|h| priority == Priority::Normal && std::ptr::eq::<Inner>(h.inner, inner));
        if let Some(handoff) = handoff {
            let w = handoff.worker;
            inner.in_flight.fetch_add(1, Ordering::SeqCst);
            inner.counters.spawned.incr(w);
            inner.counters.converted.incr(w);
            let task = Task::convert(StagedTask::node(id, priority, self, group));
            handoff.released.push(task);
            return;
        }
        let own;
        let rt = match rt {
            Some(rt) => rt,
            None => {
                own = Arc::clone(&node.inner);
                &own
            }
        };
        rt.spawn_staged(StagedTask::node(id, priority, self, group));
    }

    /// A fault or a cancellation claimed the node (`Countdown::release`):
    /// it never runs. Its group records `fault`, or else a skip, and the
    /// output carries `error` onward.
    fn release(&self, error: TaskError, fault: bool) {
        if self.tail.waits {
            self.tail.inner.dormant.fetch_sub(1, Ordering::SeqCst);
        }
        let armed = self.tail.armed.lock().take();
        if let Some(g) = armed.and_then(|a| a.group) {
            if fault {
                g.exit_faulted(error.clone());
            } else {
                g.exit_skipped();
            }
        }
        self.settle(Err(error), None);
    }
}

impl<T, R, F> Waiter for Shared<R, TaskNode<T, F>>
where
    T: Send + Sync + 'static,
    R: Send + Sync + 'static,
    F: FnOnce(&mut TaskContext<'_>, Vec<Arc<T>>) -> R + Send + 'static,
{
    fn input_settled(
        self: Arc<Self>,
        fault: Option<&TaskError>,
        handoff: Option<&mut Handoff<'_>>,
    ) {
        if let Some(e) = fault {
            if self.tail.count.release() {
                let cause = Arc::new(e.clone());
                self.release(TaskError::Dependency { cause }, true);
            }
        } else if self.tail.count.input_ready() {
            self.fire(None, handoff);
        }
    }

    fn cancel(&self) {
        if self.tail.count.release() {
            self.release(TaskError::Cancelled, false);
        }
    }
}

impl<T, R, F> Runnable for Shared<R, TaskNode<T, F>>
where
    T: Send + Sync + 'static,
    R: Send + Sync + 'static,
    F: FnOnce(&mut TaskContext<'_>, Vec<Arc<T>>) -> R + Send + 'static,
{
    fn run(&self, ctx: &mut TaskContext<'_>) {
        let armed = self.tail.armed.lock().take();
        let Armed { deps, f, .. } = armed.expect("a task node runs once");
        let value = Arc::new(f(ctx, future::values(deps)));
        let mut handoff = Handoff {
            inner: ctx.inner,
            worker: ctx.worker,
            released: ctx.released,
        };
        self.settle(Ok(value), Some(&mut handoff));
    }

    fn fail(&self, error: TaskError) {
        self.tail.armed.lock().take();
        self.try_settle(Err(error), None);
    }
}

/// Handle passed to every task phase: identifies the task and worker, and
/// exposes the spawn/dataflow API so tasks can create more work (the
/// execution tree of §I-C is "generated at runtime").
pub struct TaskContext<'a> {
    pub(crate) inner: &'a Arc<Inner>,
    /// Index of the worker executing this phase.
    pub worker: usize,
    /// Id of the running task.
    pub task_id: TaskId,
    /// Zero-based phase number of this activation.
    pub phase: u64,
    pub(crate) suspend_registration: Option<Box<dyn FnOnce(Resumer) + Send>>,
    pub(crate) group: Option<Arc<TaskGroup>>,
    /// Task nodes that this phase's last act readied (see [`Handoff`]).
    pub(crate) released: &'a mut Vec<Task>,
}

impl TaskContext<'_> {
    /// Spawn a one-phase child task at normal priority. The child joins
    /// this task's group, if any.
    pub fn spawn(&self, f: impl FnOnce(&mut TaskContext<'_>) + Send + 'static) -> TaskId {
        self.inner
            .spawn_once_in(self.group.clone(), Priority::Normal, f)
    }

    /// Spawn a one-phase child task with an explicit priority. The child
    /// joins this task's group, if any.
    pub fn spawn_with(
        &self,
        priority: Priority,
        f: impl FnOnce(&mut TaskContext<'_>) + Send + 'static,
    ) -> TaskId {
        self.inner.spawn_once_in(self.group.clone(), priority, f)
    }

    /// `hpx::async` from inside a task. The child joins this task's
    /// group, if any.
    pub fn async_call<R: Send + Sync + 'static>(
        &self,
        f: impl FnOnce(&mut TaskContext<'_>) -> R + Send + 'static,
    ) -> SharedFuture<R> {
        self.inner
            .async_call_in(self.group.clone(), Priority::Normal, f)
    }

    /// `hpx::dataflow` from inside a task. The node joins this task's
    /// group, if any (reserved immediately — see
    /// [`Runtime::dataflow_in`]).
    pub fn dataflow<T, R>(
        &self,
        deps: &[SharedFuture<T>],
        f: impl FnOnce(&mut TaskContext<'_>, Vec<Arc<T>>) -> R + Send + 'static,
    ) -> SharedFuture<R>
    where
        T: Send + Sync + 'static,
        R: Send + Sync + 'static,
    {
        self.inner
            .dataflow_in(self.group.clone(), Priority::Normal, deps, f)
    }

    /// Has this task's group been cancelled? Long-running bodies should
    /// poll this and return early — cancellation is cooperative; nothing
    /// preempts an active phase. Always `false` for ungrouped tasks.
    pub fn is_cancelled(&self) -> bool {
        self.group.as_deref().is_some_and(TaskGroup::is_cancelled)
    }

    /// A clone of the ambient cancellation token (None for ungrouped
    /// tasks) — pass it into nested closures or foreign threads that need
    /// to observe cancellation.
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.group.as_deref().map(TaskGroup::token)
    }

    /// The group this task belongs to, if any.
    pub fn group(&self) -> Option<&Arc<TaskGroup>> {
        self.group.as_ref()
    }

    /// Time left in the ambient deadline budget
    /// ([`TaskGroup::remaining_budget`]), or `None` when the task is
    /// ungrouped or its group has no budget installed. Long-running bodies
    /// can use this to right-size their next slice of work — the dispatch
    /// path already skips whole tasks once the budget is spent, but only a
    /// running body can cut *itself* short.
    pub fn remaining_budget(&self) -> Option<Duration> {
        self.group.as_deref().and_then(TaskGroup::remaining_budget)
    }

    /// Arrange for this task to be resumed when `future` becomes ready,
    /// then return [`Poll::Suspend`] from the body. The task enters the
    /// *suspended* state and its next activation is a new thread phase.
    ///
    /// ```ignore
    /// move |ctx| {
    ///     if !input.is_ready() {
    ///         ctx.suspend_until(&input);
    ///         return Poll::Suspend;
    ///     }
    ///     consume(&input.try_get().unwrap());
    ///     Poll::Complete
    /// }
    /// ```
    pub fn suspend_until<T: Send + Sync + 'static>(&mut self, future: &SharedFuture<T>) {
        let future = future.clone();
        self.suspend_registration = Some(Box::new(move |resumer: Resumer| {
            // Resume on *settle*, not just on value: a faulted dependency
            // must wake the task (which then observes the error via
            // `try_get`) rather than strand it suspended forever.
            future.on_settled(move |_| resumer.resume());
        }));
    }

    /// Number of workers in this runtime.
    pub fn num_workers(&self) -> usize {
        self.inner.counters.workers()
    }
}

/// Token that re-enqueues a suspended task when invoked. Created by the
/// worker when a body returns [`Poll::Suspend`]; consumed by the future's
/// continuation.
pub struct Resumer {
    pub(crate) inner: Arc<Inner>,
    pub(crate) task: Option<Task>,
}

impl Resumer {
    /// Put the suspended task back into a pending queue.
    pub fn resume(mut self) {
        let task = self.task.take().expect("resumer consumed twice");
        self.inner.resume(task);
    }
}

impl Drop for Resumer {
    fn drop(&mut self) {
        // A dropped resumer would strand its task forever; surface that
        // loudly in debug builds (release: the task leaks, in_flight never
        // reaches zero and wait_idle hangs — still detectable).
        debug_assert!(
            self.task.is_none(),
            "Resumer dropped without resuming its task"
        );
    }
}

/// The task runtime: an M:N cooperative scheduler in the mould of HPX's
/// thread manager, with first-class performance counters.
///
/// ```
/// use grain_runtime::{Runtime, RuntimeConfig};
///
/// let rt = Runtime::new(RuntimeConfig::with_workers(2));
/// let doubled = rt.async_call(|_ctx| 21 * 2);
/// assert_eq!(*doubled.get(), 42);
/// rt.wait_idle();
/// assert!(rt.counters().tasks.sum() >= 1);
/// ```
pub struct Runtime {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    watchdog_thread: Option<std::thread::JoinHandle<()>>,
}

/// Reports a worker thread that dies from an uncontained panic (a
/// runtime-internal bug — task panics are caught in the worker loop and
/// never reach this). Arms loud failure of `wait_idle`/`Drop` instead of
/// a silent hang, and wakes current waiters so they notice immediately.
struct WorkerDeathSentinel {
    inner: Arc<Inner>,
    worker: usize,
}

impl Drop for WorkerDeathSentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.inner.dead_workers.fetch_add(1, Ordering::SeqCst);
            eprintln!(
                "grain-runtime: worker {} died from an uncontained panic; \
                 {} task(s) in flight",
                self.worker,
                self.inner.in_flight.load(Ordering::SeqCst),
            );
            self.inner.wake();
            let _g = self.inner.idle.lock.lock();
            self.inner.idle.cv.notify_all();
        }
    }
}

/// The stall-watchdog loop: samples a progress signature every
/// `cfg.interval`; if work exists (tasks in flight or dormant dataflow
/// reservations) but the signature stays flat for `cfg.stall_after`,
/// records a stall and emits one diagnostic dump for the episode.
fn watchdog_loop(inner: Arc<Inner>, cfg: WatchdogConfig) {
    let mut last_sig = (u64::MAX, u64::MAX, usize::MAX, usize::MAX);
    let mut flat_since = Instant::now();
    let mut dumped = false;
    loop {
        {
            let mut g = inner.monitor.lock.lock();
            if inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            inner.monitor.cv.wait_for(&mut g, cfg.interval);
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        inner.watchdog.checks.incr();
        let sig = (
            inner.counters.phases.sum(),
            inner.counters.tasks.sum(),
            inner.in_flight.load(Ordering::SeqCst),
            inner.dormant.load(Ordering::SeqCst),
        );
        // A flat signature is only suspicious if the runtime could have
        // made progress: there must be work (tasks in flight or dormant
        // dataflow reservations) *and* at least one active worker. A
        // runtime throttled to zero workers (`set_active_workers(0)` — a
        // paused/idle service) is expected to sit still; counting that as
        // a stall would page on every quiet period.
        let paused = inner.active_limit.load(Ordering::SeqCst) == 0;
        let work_exists = (sig.2 > 0 || sig.3 > 0) && !paused;
        if sig != last_sig {
            last_sig = sig;
            flat_since = Instant::now();
            dumped = false;
            continue;
        }
        if !work_exists {
            flat_since = Instant::now();
            dumped = false;
            continue;
        }
        let stall_age = flat_since.elapsed();
        if stall_age >= cfg.stall_after && !dumped {
            dumped = true;
            inner.watchdog.stalls.incr();
            inner.watchdog.dumps.incr();
            watchdog_dump(&inner, stall_age);
        }
    }
}

/// One diagnostic dump: global progress state plus per-worker queue
/// depths, so a stalled run tells you *where* the work is stuck.
fn watchdog_dump(inner: &Inner, stall_age: Duration) {
    let q = &inner.scheduler.queues;
    eprintln!(
        "grain-runtime watchdog: no progress for {:?} — in-flight {}, dormant dataflow \
         reservations {}, sleepers {}, dead workers {}, phases {}, tasks {}",
        stall_age,
        inner.in_flight.load(Ordering::SeqCst),
        inner.dormant.load(Ordering::SeqCst),
        inner.parker.sleepers.load(Ordering::SeqCst),
        inner.dead_workers.load(Ordering::SeqCst),
        inner.counters.phases.sum(),
        inner.counters.tasks.sum(),
    );
    for (w, d) in q.workers.iter().enumerate() {
        let staged = d.staged.len();
        let pending = d.pending.len();
        let next = d.next_id();
        if staged > 0 || pending > 0 || next.is_some() {
            let next = next.map_or_else(|| "empty".to_string(), |id| id.to_string());
            eprintln!("  worker {w}: staged {staged}, pending {pending}, next slot {next}");
        }
    }
    if inner.dormant.load(Ordering::SeqCst) > 0 && inner.in_flight.load(Ordering::SeqCst) == 0 {
        eprintln!(
            "  likely cause: a dependency cycle or an unfulfilled external promise — \
             dataflow nodes are waiting on futures nothing will ever settle"
        );
    }
}

impl Runtime {
    /// Start a runtime with the given configuration. Worker threads are
    /// created immediately (HPX: static OS threads at startup).
    pub fn new(config: RuntimeConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        // Panic isolation needs the message-capturing hook (process-wide,
        // installed once, chains to the previous hook for non-task panics).
        crate::fault::install_panic_hook();
        // Workers are split over the host's detected NUMA domains.
        let numa = host::host_topology(config.workers);
        let scheduler = Scheduler::new(numa, config.scheduler, config.high_queues);
        let counters = ThreadCounters::new(config.workers);
        let registry = Registry::new();
        // Every counter path is parameterized by the configured locality
        // id so non-root localities expose a correct, disjoint namespace.
        let t = grain_counters::CounterPath::total_instance_for(config.locality_id);
        counters
            .register_at(&registry, config.locality_id)
            .expect("fresh registry cannot have duplicates");
        // Instantaneous queue-length counters (not in the paper's list but
        // part of HPX's monitoring surface; useful for load introspection).
        {
            use grain_counters::{derived::DerivedCounter, Unit};
            let q = std::sync::Arc::clone(&scheduler.queues);
            registry
                .register(
                    &format!("/threads{{{t}}}/count/staged-queue-length"),
                    DerivedCounter::new(Unit::Count, move || {
                        q.workers.iter().map(|d| d.staged.len()).sum::<usize>() as f64
                    }),
                )
                .expect("fresh registry");
            let q = std::sync::Arc::clone(&scheduler.queues);
            registry
                .register(
                    &format!("/threads{{{t}}}/count/pending-queue-length"),
                    DerivedCounter::new(Unit::Count, move || {
                        q.workers.iter().map(|d| d.pending.len()).sum::<usize>() as f64
                    }),
                )
                .expect("fresh registry");
        }
        // Queue-contention counters: aggregated over every queue in the
        // set (see `queue::QueueStats`). Lost head/tail CAS races and
        // segment allocations are the lock-free queue's analogue of lock
        // contention — flat curves here under fine grain are exactly what
        // the mutex queue could not deliver.
        {
            use grain_counters::registry::RawView;
            let stats = scheduler.queues.stats();
            registry
                .register(
                    &format!("/threads{{{t}}}/queue/cas-retries"),
                    RawView::new(Arc::clone(&stats.cas_retries), Unit::Count),
                )
                .expect("fresh registry");
            registry
                .register(
                    &format!("/threads{{{t}}}/queue/segment-allocations"),
                    RawView::new(Arc::clone(&stats.segment_allocs), Unit::Count),
                )
                .expect("fresh registry");
        }
        let watchdog = WatchdogCounters {
            checks: Arc::new(RawCounter::new()),
            stalls: Arc::new(RawCounter::new()),
            dumps: Arc::new(RawCounter::new()),
        };
        {
            use grain_counters::registry::RawView;
            for (name, c) in [
                ("checks", &watchdog.checks),
                ("stalls", &watchdog.stalls),
                ("dumps", &watchdog.dumps),
            ] {
                registry
                    .register(
                        &format!("/runtime{{{t}}}/watchdog/{name}"),
                        RawView::new(Arc::clone(c), Unit::Count),
                    )
                    .expect("fresh registry");
            }
        }
        let inner = Arc::new(Inner {
            scheduler,
            counters,
            registry,
            ids: TaskIdAllocator::new(),
            in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            active_limit: AtomicUsize::new(config.workers),
            tracer: crate::trace::Tracer::new(config.workers, config.trace),
            config: config.clone(),
            dormant: AtomicUsize::new(0),
            dead_workers: AtomicUsize::new(0),
            watchdog,
            parker: Parker {
                lock: Mutex::new(()),
                cv: Condvar::new(),
                sleepers: AtomicUsize::new(0),
                generation: AtomicUsize::new(0),
            },
            idle: IdleGate {
                lock: Mutex::new(()),
                cv: Condvar::new(),
            },
            monitor: Parker {
                lock: Mutex::new(()),
                cv: Condvar::new(),
                sleepers: AtomicUsize::new(0),
                generation: AtomicUsize::new(0),
            },
        });
        let threads = (0..config.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("grain-worker-{w}"))
                    .spawn(move || {
                        let _sentinel = WorkerDeathSentinel {
                            inner: Arc::clone(&inner),
                            worker: w,
                        };
                        crate::worker::worker_loop(inner, w);
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        let watchdog_thread = config.watchdog.clone().map(|cfg| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("grain-watchdog".to_string())
                .spawn(move || watchdog_loop(inner, cfg))
                .expect("failed to spawn watchdog thread")
        });
        Self {
            inner,
            threads,
            watchdog_thread,
        }
    }

    /// Runtime with `workers` workers and default settings.
    pub fn with_workers(workers: usize) -> Self {
        Self::new(RuntimeConfig::with_workers(workers))
    }

    /// Spawn a one-phase task at normal priority.
    pub fn spawn(&self, f: impl FnOnce(&mut TaskContext<'_>) + Send + 'static) -> TaskId {
        self.inner.spawn_once(Priority::Normal, f)
    }

    /// Spawn a one-phase task with an explicit priority.
    pub fn spawn_with(
        &self,
        priority: Priority,
        f: impl FnOnce(&mut TaskContext<'_>) + Send + 'static,
    ) -> TaskId {
        self.inner.spawn_once(priority, f)
    }

    /// Spawn a multi-phase task (may yield and suspend between phases).
    pub fn spawn_phased(
        &self,
        priority: Priority,
        body: impl FnMut(&mut TaskContext<'_>) -> Poll + Send + 'static,
    ) -> TaskId {
        self.inner.spawn_phased(priority, body)
    }

    /// `hpx::async`: run `f` as a task; get a future for its result.
    pub fn async_call<R: Send + Sync + 'static>(
        &self,
        f: impl FnOnce(&mut TaskContext<'_>) -> R + Send + 'static,
    ) -> SharedFuture<R> {
        self.inner.async_call(Priority::Normal, f)
    }

    /// `hpx::dataflow`: spawn `f` when all `deps` are ready.
    pub fn dataflow<T, R>(
        &self,
        deps: &[SharedFuture<T>],
        f: impl FnOnce(&mut TaskContext<'_>, Vec<Arc<T>>) -> R + Send + 'static,
    ) -> SharedFuture<R>
    where
        T: Send + Sync + 'static,
        R: Send + Sync + 'static,
    {
        self.inner.dataflow(Priority::Normal, deps, f)
    }

    /// Spawn a one-phase task at `priority` as a member of `group`.
    /// Children spawned from inside the task inherit the group; join the
    /// whole tree with [`TaskGroup::wait`] and cancel it with
    /// [`TaskGroup::cancel`].
    pub fn spawn_in(
        &self,
        group: &Arc<TaskGroup>,
        priority: Priority,
        f: impl FnOnce(&mut TaskContext<'_>) + Send + 'static,
    ) -> TaskId {
        self.inner
            .spawn_once_in(Some(Arc::clone(group)), priority, f)
    }

    /// `hpx::async` as a member of `group`. If the group is cancelled
    /// before the task runs, the returned future never becomes ready —
    /// join grouped work through the group latch rather than by blocking
    /// on its futures.
    pub fn async_in<R: Send + Sync + 'static>(
        &self,
        group: &Arc<TaskGroup>,
        priority: Priority,
        f: impl FnOnce(&mut TaskContext<'_>) -> R + Send + 'static,
    ) -> SharedFuture<R> {
        self.inner
            .async_call_in(Some(Arc::clone(group)), priority, f)
    }

    /// `hpx::dataflow` as a member of `group`: the node is reserved in the
    /// group immediately (even while dormant) and released — unspawned —
    /// if the group is cancelled first.
    pub fn dataflow_in<T, R>(
        &self,
        group: &Arc<TaskGroup>,
        priority: Priority,
        deps: &[SharedFuture<T>],
        f: impl FnOnce(&mut TaskContext<'_>, Vec<Arc<T>>) -> R + Send + 'static,
    ) -> SharedFuture<R>
    where
        T: Send + Sync + 'static,
        R: Send + Sync + 'static,
    {
        self.inner
            .dataflow_in(Some(Arc::clone(group)), priority, deps, f)
    }

    /// Block until every spawned task has terminated.
    pub fn wait_idle(&self) {
        self.inner.wait_idle();
    }

    /// The runtime's raw counters.
    pub fn counters(&self) -> &ThreadCounters {
        &self.inner.counters
    }

    /// The performance-counter registry (query by symbolic path).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.inner.counters.workers()
    }

    /// Id of the locality this runtime represents (see
    /// [`RuntimeConfig::locality_id`]).
    pub fn locality_id(&self) -> usize {
        self.inner.config.locality_id
    }

    /// Tasks currently in flight (staged + pending + active + suspended).
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::SeqCst)
    }

    /// Reset all counters (start of a measurement epoch).
    pub fn reset_counters(&self) {
        self.inner.registry.reset_all();
    }

    /// Throttle the pool: only workers `0..n` take work; the rest park
    /// until the limit is raised again. Clamped to `1..=num_workers()`.
    /// Queued work on throttled workers' queues remains stealable (do not
    /// combine throttling with [`SchedulerKind::NoSteal`] unless stranded
    /// queues are acceptable).
    ///
    /// This is the actuator the paper's related work (§V, Porterfield et
    /// al.) exposes; combined with the counters it enables core-count
    /// adaptation alongside grain-size adaptation.
    pub fn set_active_workers(&self, n: usize) {
        let n = n.clamp(1, self.num_workers());
        self.inner.active_limit.store(n, Ordering::SeqCst);
        self.inner.wake();
    }

    /// Current throttle limit (= `num_workers()` when unthrottled).
    pub fn active_workers(&self) -> usize {
        self.inner.active_limit.load(Ordering::SeqCst)
    }

    /// Drain the captured task-event timeline (empty unless
    /// [`RuntimeConfig::trace`] was set). Draining is destructive; call
    /// once per measurement window.
    pub fn take_trace(&self) -> crate::trace::Trace {
        self.inner.tracer.take()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Let in-flight work finish, then stop the workers. Never panic
        // in drop: if a dead worker stranded tasks, report and force
        // shutdown instead of waiting forever (or aborting).
        if !self.inner.try_wait_idle() {
            eprintln!(
                "grain-runtime: shutting down with {} stranded task(s) ({} dead worker(s))",
                self.inner.in_flight.load(Ordering::SeqCst),
                self.inner.dead_workers.load(Ordering::SeqCst),
            );
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Wake everyone repeatedly until all workers observed the flag.
        for t in self.threads.drain(..) {
            self.inner.wake();
            let _ = t.join();
        }
        // Stranded tasks (a dead worker) are dropped now, not whenever the
        // last future lets go of the runtime: a task node dropped unrun
        // fails its output, so nobody is left waiting on it.
        self.inner.scheduler.queues.clear();
        if let Some(t) = self.watchdog_thread.take() {
            let _g = self.inner.monitor.lock.lock();
            self.inner.monitor.cv.notify_all();
            drop(_g);
            let _ = t.join();
        }
    }
}
