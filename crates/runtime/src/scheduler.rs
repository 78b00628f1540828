//! The Priority Local-FIFO scheduler, the one policy the paper measures
//! and the only one the runtime and the simulator run.
//!
//! Direct implementation of §I-B and Fig. 1 of the paper:
//!
//! * every worker owns a *dual queue* — one staged, one pending — both
//!   lock-free FIFOs;
//! * *high-priority* dual queues run before any normal work — the runtime
//!   has one, the simulator none;
//! * one *low-priority* queue runs only when everything else is empty;
//! * work search order (Fig. 1):
//!   1. local pending queue — ahead of it the worker's *next* slot, where
//!      a task that finishes leaves the first dependent its completion
//!      made ready (see [`SearchState`])
//!   2. local staged queue (convert → run)
//!   3. staged queues of other workers in the local NUMA domain
//!   4. pending queues of other workers in the local NUMA domain
//!   5. staged queues in remote NUMA domains
//!   6. pending queues in remote NUMA domains
//!
//! Every probe bumps the access counter of the probed queue family and the
//! miss counter when it comes back empty — including low-priority probes,
//! which count against the staged family (the low queue holds staged
//! descriptions) — those are the
//! `/threads/count/pending-accesses`/`-misses` counters of §II-A, shown in
//! Figs. 9 and 10 to be a timestamp-free granularity signal.
//!
//! Steal accounting happens at **dispatch** time, keyed off the
//! provenance that survives the conversion round-trip (a converted task
//! carries its origin on [`Task::origin`]): a staged steal that is
//! converted, parked in the converter's pending queue, and then raided by
//! a third worker counts as exactly one steal — the raid — not two.

use crate::queue::{MpmcQueue, QueueStats};
use crate::task::{StagedTask, Task};
use grain_counters::sync::{AtomicUsize, Ordering};
use grain_counters::threads::ThreadCounters;
use grain_topology::NumaTopology;

/// One worker's dual queue.
#[derive(Debug, Default)]
pub struct DualQueue {
    /// Staged task descriptions (cheap, not yet converted).
    pub staged: MpmcQueue<StagedTask>,
    /// Converted, runnable tasks.
    pub pending: MpmcQueue<Task>,
}

/// Dispatches in a row from a worker's next slot before one search takes
/// the slot's task round by the back of the pending queue, and looks at
/// the staged queue on the way: a chain in which every task readies the
/// next would otherwise run ahead of everything in the worker's own
/// queues — a yielded task, a fresh spawn — for as long as the chain is,
/// which on a one-worker runtime nobody else can take either.
const NEXT_SLOT_STREAK: u32 = 32;

/// What one worker's search keeps from pass to pass: a local of its
/// loop, passed to [`Scheduler::find_work`] by `&mut`, so nothing in it
/// is shared and nothing is locked. Callers outside the runtime pass an
/// empty one.
#[derive(Debug, Default)]
pub struct SearchState {
    /// The *next* slot: one converted task that the phase the worker has
    /// just finished left for its coming search, dispatched ahead of the
    /// pending queue. Nobody else can see it, so nobody steals from it:
    /// the worker publishes it wherever it stops searching.
    pub(crate) next: Option<Task>,
    /// Slot dispatches, modulo `NEXT_SLOT_STREAK + 1`.
    streak: u32,
    /// The coming pass looks at the local staged queue before the local
    /// pending queue: set when the streak is up, and after a
    /// `Poll::Yield`, whose task at the back of the pending queue would
    /// otherwise be found again, on a one-worker runtime for as long as
    /// it yields, ahead of everything staged.
    pub(crate) staged_first: bool,
}

impl SearchState {
    /// Leave `task` in the next slot for the coming search, or hand it
    /// back if the slot is taken. Only as the last act of a phase: a task
    /// left there while a body runs on would be work hidden from idle
    /// workers.
    pub(crate) fn put(&mut self, task: Task) -> Result<(), Task> {
        match self.next {
            Some(_) => Err(task),
            None => {
                self.next = Some(task);
                Ok(())
            }
        }
    }
}

impl DualQueue {
    fn new(stats: &std::sync::Arc<QueueStats>) -> Self {
        Self {
            staged: MpmcQueue::with_stats(std::sync::Arc::clone(stats)),
            pending: MpmcQueue::with_stats(std::sync::Arc::clone(stats)),
        }
    }

    /// Tasks currently queued (racy, for load introspection).
    pub fn len(&self) -> usize {
        self.staged.len() + self.pending.len()
    }

    /// True when both queues are (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The complete queue system of a runtime.
#[derive(Debug)]
pub struct QueueSet {
    /// One dual queue per worker.
    pub workers: Vec<DualQueue>,
    /// High-priority dual queues (shared; probed before everything): the
    /// runtime's one, or none.
    high: Vec<DualQueue>,
    /// The single low-priority queue.
    low: MpmcQueue<StagedTask>,
    /// Round-robin cursor for spawns from external threads.
    rr: AtomicUsize,
    /// Contention statistics shared by every queue in the set.
    stats: std::sync::Arc<QueueStats>,
}

impl QueueSet {
    /// Build queues for `workers` workers and `high_queues` high-priority
    /// dual queues: the runtime's one, or none for the simulator, whose
    /// model spawns no high-priority work.
    pub fn new(workers: usize, high_queues: usize) -> Self {
        assert!(workers > 0);
        let stats = std::sync::Arc::new(QueueStats::default());
        Self {
            workers: (0..workers).map(|_| DualQueue::new(&stats)).collect(),
            high: (0..high_queues).map(|_| DualQueue::new(&stats)).collect(),
            low: MpmcQueue::with_stats(std::sync::Arc::clone(&stats)),
            rr: AtomicUsize::new(0),
            stats,
        }
    }

    /// The contention statistics (CAS retries, segment allocations)
    /// aggregated over every queue in the set.
    pub fn stats(&self) -> &std::sync::Arc<QueueStats> {
        &self.stats
    }

    /// Enqueue a normal-priority staged task on `worker`'s queue.
    pub fn push_staged(&self, worker: usize, task: StagedTask) {
        self.workers[worker].staged.push(task);
    }

    /// Enqueue a converted (pending) task on `worker`'s queue.
    pub fn push_pending(&self, worker: usize, task: Task) {
        self.workers[worker].pending.push(task);
    }

    /// Drop every queued task. A task node dropped unrun fails its
    /// output future, and nodes hold their runtime: a runtime shutting
    /// down with tasks stranded (a dead worker) empties its queues
    /// rather than leave consumers waiting on a cycle.
    pub(crate) fn clear(&self) {
        for d in self.workers.iter().chain(&self.high) {
            while d.staged.pop().is_some() {}
            while d.pending.pop().is_some() {}
        }
        while self.low.pop().is_some() {}
    }

    /// Enqueue a high-priority staged task on the first high-priority
    /// queue (panics on a set built with none).
    pub fn push_high(&self, task: StagedTask) {
        self.high[0].staged.push(task);
    }

    /// Enqueue a low-priority staged task.
    pub fn push_low(&self, task: StagedTask) {
        self.low.push(task);
    }

    /// Pick a target worker for a spawn from an external thread.
    pub fn next_rr(&self) -> usize {
        self.rr.fetch_add(1, Ordering::Relaxed) % self.workers.len()
    }

    /// Total queued tasks across all queues (racy).
    pub fn total_len(&self) -> usize {
        self.workers.iter().map(DualQueue::len).sum::<usize>()
            + self.high.iter().map(DualQueue::len).sum::<usize>()
            + self.low.len()
    }
}

/// The work-finding engine: owns the queues and the NUMA map that orders
/// the search. One instance per runtime, shared by all workers.
#[derive(Debug)]
pub struct Scheduler {
    /// Queue system (shared so instantaneous queue-length counters can
    /// observe it).
    pub queues: std::sync::Arc<QueueSet>,
    /// NUMA topology used for search ordering.
    pub numa: NumaTopology,
}

/// Where a found task came from — used by the worker to bump the right
/// counters and by tests to assert the search order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// High-priority queue (own or any).
    HighPriority,
    /// The worker's own pending queue.
    LocalPending,
    /// The worker's own staged queue (converted on the spot).
    LocalStaged,
    /// Stolen: staged queue of a same-NUMA peer.
    NumaStaged(usize),
    /// Stolen: pending queue of a same-NUMA peer.
    NumaPending(usize),
    /// Stolen: staged queue of a remote-NUMA peer.
    RemoteStaged(usize),
    /// Stolen: pending queue of a remote-NUMA peer.
    RemotePending(usize),
    /// The low-priority queue.
    LowPriority,
}

/// Outcome of a single pass of the Fig. 1 search
/// ([`Scheduler::search_step`]).
#[derive(Debug)]
pub enum SearchStep {
    /// A runnable task is being handed to the worker, with the provenance
    /// of the queue it was actually dispatched from.
    Dispatched(Task, Provenance),
    /// A staged description was converted and parked in a pending queue;
    /// the caller should search again (the converted task is normally
    /// picked up by step 1 of the next pass — unless someone else got
    /// there first, which is legal).
    Converted,
    /// Every probed queue was empty this pass.
    Empty,
}

impl Provenance {
    /// The peer whose queue the task was taken from, if it was a steal.
    pub fn victim(&self) -> Option<usize> {
        match *self {
            Provenance::NumaStaged(p)
            | Provenance::NumaPending(p)
            | Provenance::RemoteStaged(p)
            | Provenance::RemotePending(p) => Some(p),
            _ => None,
        }
    }

    /// True if this required taking work from another worker's queue.
    pub fn is_steal(&self) -> bool {
        self.victim().is_some()
    }
}

impl Scheduler {
    /// Build a scheduler.
    pub fn new(numa: NumaTopology, high_queues: usize) -> Self {
        let workers = numa.workers();
        Self {
            queues: std::sync::Arc::new(QueueSet::new(workers, high_queues)),
            numa,
        }
    }

    /// One full search round for worker `w`, in Fig. 1's order.
    /// Returns a runnable task and where it came from, or `None` if every
    /// probed queue was empty. Counter updates (accesses/misses/converted/
    /// stolen) are recorded against worker `w` in `counters`, so only
    /// one thread may search as `w` (the [`grain_counters::raw`]
    /// contract); `state` is `w`'s.
    ///
    /// This simply loops [`Scheduler::search_step`] until a pass either
    /// dispatches a task or comes up empty.
    pub fn find_work(
        &self,
        w: usize,
        counters: &ThreadCounters,
        state: &mut SearchState,
    ) -> Option<(Task, Provenance)> {
        loop {
            match self.search_step(w, counters, state) {
                SearchStep::Dispatched(t, prov) => return Some((t, prov)),
                SearchStep::Converted => continue,
                SearchStep::Empty => return None,
            }
        }
    }

    /// A single pass of the Fig. 1 search for worker `w`.
    ///
    /// Conversion follows the HPX dual-queue flow: a staged description is
    /// converted and *placed in a pending queue* (the worker's own one for
    /// normal/low priority, the same high-priority queue for high
    /// priority), and the pass ends with [`SearchStep::Converted`] — the
    /// converted task is normally dispatched from the pending queue on
    /// the caller's next pass. The provenance note rides on
    /// [`Task::origin`] (not on this frame's stack) because between
    /// conversion and re-dispatch the pending queue is live: a third
    /// worker may legitimately raid it, in which case the raider discards
    /// the note and reports (and is charged for) the pending steal it
    /// actually performed.
    ///
    /// `counters.stolen` is bumped only here, at dispatch, keyed off the
    /// final provenance — so one task stolen while staged and again while
    /// pending charges exactly one steal, to the worker that got it.
    ///
    /// Separate from `find_work` so tests can freeze the search
    /// mid-conversion and exercise the round-trip races deterministically.
    fn search_step(
        &self,
        w: usize,
        counters: &ThreadCounters,
        state: &mut SearchState,
    ) -> SearchStep {
        // High-priority queues always come first (pending before staged
        // inside each).
        for q in &self.queues.high {
            if let Some(mut t) = self.pop_pending(q, w, counters) {
                t.origin = None;
                return Self::dispatch(t, Provenance::HighPriority, w, counters);
            }
            if let Some(t) = self.pop_staged(q, w, counters, None) {
                q.pending.push(t);
                return SearchStep::Converted;
            }
        }

        // 1. Local pending, the next slot ahead of the queue: a pending
        // access that cannot miss. A task is there only if the phase
        // this worker has just finished left it.
        let own = &self.queues.workers[w];
        if let Some(t) = state.next.take() {
            state.streak = (state.streak + 1) % (NEXT_SLOT_STREAK + 1);
            if state.streak != 0 {
                counters.pending_accesses.incr(w);
                return Self::dispatch(t, Provenance::LocalPending, w, counters);
            }
            // The streak is up: the task queues behind whatever is
            // pending. Nobody is woken for it: this worker searches on
            // and cannot strand it, and an idle peer looks again within
            // one starving nap (the task is in flight, so every parked
            // peer is napping).
            self.queues.push_pending(w, t);
            state.staged_first = true;
        }
        if std::mem::take(&mut state.staged_first) {
            if let Some(t) = self.pop_staged(own, w, counters, Some(Provenance::LocalStaged)) {
                self.queues.push_pending(w, t);
                return SearchStep::Converted;
            }
        }
        // The only pop that honours a surviving origin note — the
        // converting worker reclaiming its own conversion.
        if let Some(mut t) = self.pop_pending(own, w, counters) {
            let prov = t.origin.take().unwrap_or(Provenance::LocalPending);
            return Self::dispatch(t, prov, w, counters);
        }
        // 2. Local staged (convert → own pending → caller redoes the search).
        if let Some(t) = self.pop_staged(own, w, counters, Some(Provenance::LocalStaged)) {
            self.queues.push_pending(w, t);
            return SearchStep::Converted;
        }

        // 3. Same-NUMA staged.
        for p in self.numa.same_domain_peers(w) {
            let origin = Some(Provenance::NumaStaged(p));
            if let Some(t) = self.pop_staged(&self.queues.workers[p], w, counters, origin) {
                self.queues.push_pending(w, t);
                return SearchStep::Converted;
            }
        }
        // 4. Same-NUMA pending.
        for p in self.numa.same_domain_peers(w) {
            if let Some(mut t) = self.pop_pending(&self.queues.workers[p], w, counters) {
                t.origin = None;
                return Self::dispatch(t, Provenance::NumaPending(p), w, counters);
            }
        }
        // 5. Remote-NUMA staged.
        for p in self.numa.remote_domain_peers(w) {
            let origin = Some(Provenance::RemoteStaged(p));
            if let Some(t) = self.pop_staged(&self.queues.workers[p], w, counters, origin) {
                self.queues.push_pending(w, t);
                return SearchStep::Converted;
            }
        }
        // 6. Remote-NUMA pending.
        for p in self.numa.remote_domain_peers(w) {
            if let Some(mut t) = self.pop_pending(&self.queues.workers[p], w, counters) {
                t.origin = None;
                return Self::dispatch(t, Provenance::RemotePending(p), w, counters);
            }
        }

        // Low-priority queue: only when all other work is exhausted. It
        // holds staged descriptions, so the probe counts against the
        // staged access/miss family like every other staged probe.
        counters.staged_accesses.incr(w);
        if let Some(staged) = probe(&self.queues.low) {
            counters.converted.incr(w);
            let mut t = Task::convert(staged);
            t.origin = Some(Provenance::LowPriority);
            self.queues.push_pending(w, t);
            return SearchStep::Converted;
        }
        counters.staged_misses.incr(w);
        SearchStep::Empty
    }

    /// Final hand-off of a found task: charge the steal (if the final
    /// provenance is one) to the dispatching worker, exactly once.
    fn dispatch(task: Task, prov: Provenance, w: usize, counters: &ThreadCounters) -> SearchStep {
        if prov.is_steal() {
            counters.stolen.incr(w);
        }
        SearchStep::Dispatched(task, prov)
    }

    fn pop_pending(&self, q: &DualQueue, w: usize, counters: &ThreadCounters) -> Option<Task> {
        counters.pending_accesses.incr(w);
        let found = probe(&q.pending);
        if found.is_none() {
            counters.pending_misses.incr(w);
        }
        found
    }

    /// Probe a staged queue; on a hit, convert and stamp the task's
    /// origin note (where worker `w` found the description).
    fn pop_staged(
        &self,
        q: &DualQueue,
        w: usize,
        counters: &ThreadCounters,
        origin: Option<Provenance>,
    ) -> Option<Task> {
        counters.staged_accesses.incr(w);
        match probe(&q.staged) {
            Some(staged) => {
                counters.converted.incr(w);
                let mut t = Task::convert(staged);
                t.origin = origin;
                Some(t)
            }
            None => {
                counters.staged_misses.incr(w);
                None
            }
        }
    }
}

/// Pop `q` — or, when a snapshot of its two cursors shows it empty, miss
/// without `pop`'s fence. A snapshot that predates a concurrent push
/// costs one more search pass, never a task: every push that another
/// worker is meant to find is followed by a wake, which voids the park
/// the missed search would otherwise end in (DESIGN.md §4, "Queue
/// implementation & memory ordering").
fn probe<T>(q: &MpmcQueue<T>) -> Option<T> {
    if q.is_empty() {
        None
    } else {
        q.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Priority, StagedTask, TaskId};

    fn staged(id: u64) -> StagedTask {
        StagedTask::once(TaskId(id), Priority::Normal, |_| {})
    }

    fn sched(workers: usize, domains: usize) -> (Scheduler, ThreadCounters) {
        let numa = NumaTopology::block(workers, domains);
        (Scheduler::new(numa, 1), ThreadCounters::new(workers))
    }

    /// A search by a worker whose slot is empty.
    fn find(s: &Scheduler, w: usize, c: &ThreadCounters) -> Option<(Task, Provenance)> {
        s.find_work(w, c, &mut SearchState::default())
    }

    #[test]
    fn local_pending_beats_local_staged() {
        let (s, c) = sched(2, 1);
        s.queues.push_staged(0, staged(1));
        s.queues.push_pending(0, Task::convert(staged(2)));
        let (t, prov) = find(&s, 0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        assert_eq!(prov, Provenance::LocalPending);
    }

    #[test]
    fn local_staged_beats_stealing() {
        let (s, c) = sched(2, 1);
        s.queues.push_staged(1, staged(1)); // peer's
        s.queues.push_staged(0, staged(2)); // own
        let (t, prov) = find(&s, 0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        assert_eq!(prov, Provenance::LocalStaged);
        assert_eq!(c.converted.sum(), 1);
    }

    #[test]
    fn steals_numa_staged_before_numa_pending() {
        let (s, c) = sched(2, 1);
        s.queues.push_pending(1, Task::convert(staged(1)));
        s.queues.push_staged(1, staged(2));
        let (t, prov) = find(&s, 0, &c).unwrap();
        assert_eq!(t.id, TaskId(2), "staged steals first (Fig. 1 step 3)");
        assert_eq!(prov, Provenance::NumaStaged(1));
        assert_eq!(c.stolen.sum(), 1);
    }

    #[test]
    fn local_numa_beats_remote_numa() {
        // 4 workers, 2 domains: {0,1} and {2,3}.
        let (s, c) = sched(4, 2);
        s.queues.push_staged(2, staged(1)); // remote for worker 0
        s.queues.push_staged(1, staged(2)); // local domain
        let (t, prov) = find(&s, 0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        assert_eq!(prov, Provenance::NumaStaged(1));
    }

    #[test]
    fn remote_staged_beats_remote_pending() {
        let (s, c) = sched(4, 2);
        s.queues.push_pending(2, Task::convert(staged(1)));
        s.queues.push_staged(3, staged(2));
        let (t, prov) = find(&s, 0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        assert_eq!(prov, Provenance::RemoteStaged(3));
    }

    #[test]
    fn full_order_matches_fig1() {
        // Seed every tier and drain from worker 0; provenance must follow
        // the six-step order.
        let (s, c) = sched(4, 2);
        s.queues.push_pending(0, Task::convert(staged(10)));
        s.queues.push_staged(0, staged(11));
        s.queues.push_staged(1, staged(12));
        s.queues.push_pending(1, Task::convert(staged(13)));
        s.queues.push_staged(2, staged(14));
        s.queues.push_pending(3, Task::convert(staged(15)));
        s.queues.push_low(staged(16));

        let mut got = Vec::new();
        while let Some((t, prov)) = find(&s, 0, &c) {
            got.push((t.id.0, prov));
        }
        assert_eq!(
            got,
            vec![
                (10, Provenance::LocalPending),
                (11, Provenance::LocalStaged),
                (12, Provenance::NumaStaged(1)),
                (13, Provenance::NumaPending(1)),
                (14, Provenance::RemoteStaged(2)),
                (15, Provenance::RemotePending(3)),
                (16, Provenance::LowPriority),
            ]
        );
    }

    #[test]
    fn high_priority_preempts_everything_queued() {
        let (s, c) = sched(2, 1);
        s.queues.push_pending(0, Task::convert(staged(1)));
        s.queues.push_high(staged(2));
        let (t, prov) = find(&s, 0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        assert_eq!(prov, Provenance::HighPriority);
    }

    #[test]
    fn low_priority_runs_only_when_drained() {
        let (s, c) = sched(1, 1);
        s.queues.push_low(staged(1));
        s.queues.push_staged(0, staged(2));
        let (t, _) = find(&s, 0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        let (t, prov) = find(&s, 0, &c).unwrap();
        assert_eq!(t.id, TaskId(1));
        assert_eq!(prov, Provenance::LowPriority);
    }

    #[test]
    fn counters_track_accesses_and_misses() {
        let (s, c) = sched(2, 1);
        assert!(find(&s, 0, &c).is_none());
        // hp pending+staged, own pending+staged, peer staged+pending, low:
        // pending probes: hp(1) + own(1) + peer(1) = 3, all misses;
        // staged probes: hp(1) + own(1) + peer(1) + low(1) = 4, all misses.
        assert_eq!(c.pending_accesses.sum(), 3);
        assert_eq!(c.pending_misses.sum(), 3);
        assert_eq!(c.staged_accesses.sum(), 4);
        assert_eq!(c.staged_misses.sum(), 4);

        s.queues.push_pending(0, Task::convert(staged(1)));
        assert!(find(&s, 0, &c).is_some());
        // hp pending(miss), hp staged(miss), own pending(hit).
        assert_eq!(c.pending_accesses.sum(), 5);
        assert_eq!(c.pending_misses.sum(), 4);
        assert_eq!(c.staged_accesses.sum(), 5);
        assert_eq!(c.staged_misses.sum(), 5);
    }

    #[test]
    fn low_priority_probes_bump_staged_counters() {
        // Regression: the low-queue probe used to bypass the staged
        // access/miss counters entirely, contradicting the module doc.
        let (s, c) = sched(1, 1);
        s.queues.push_low(staged(1));
        let (t, prov) = find(&s, 0, &c).unwrap();
        assert_eq!(t.id, TaskId(1));
        assert_eq!(prov, Provenance::LowPriority);
        // Pass 1: hp staged miss, own staged miss, low HIT (access only);
        // pass 2 reaches hp staged (miss) before the own-pending hit.
        assert_eq!(c.staged_accesses.sum(), 4, "low probe must count");
        assert_eq!(c.staged_misses.sum(), 3, "a low hit is not a miss");
        assert_eq!(c.converted.sum(), 1);

        // And an unsuccessful probe is a counted miss.
        assert!(find(&s, 0, &c).is_none());
        assert_eq!(c.staged_accesses.sum(), 7);
        assert_eq!(c.staged_misses.sum(), 6);
    }

    #[test]
    fn raided_conversion_counts_one_steal_for_the_raider() {
        // Regression: worker 0 steals a staged description from peer 1,
        // converts it, and parks it in its own pending queue. Before it
        // can reloop, worker 2 (remote domain) raids that pending queue.
        // The old code charged worker 0 a steal at conversion time and
        // worker 2 another at the raid — double-counting one task and
        // attributing a steal to a worker that never dispatched anything.
        let (s, c) = sched(4, 2);
        s.queues.push_staged(1, staged(7));

        // Freeze worker 0 mid-round-trip: exactly one search pass.
        assert!(matches!(
            s.search_step(0, &c, &mut SearchState::default()),
            SearchStep::Converted
        ));
        assert_eq!(c.stolen.sum(), 0, "no dispatch yet, so no steal");
        assert_eq!(c.converted.sum(), 1);
        assert_eq!(s.queues.workers[0].pending.len(), 1);

        // Worker 2 raids worker 0's pending queue (Fig. 1 step 6 for it).
        let (t, prov) = find(&s, 2, &c).unwrap();
        assert_eq!(t.id, TaskId(7));
        assert_eq!(prov, Provenance::RemotePending(0), "true final source");
        assert_eq!(c.stolen.sum(), 1, "exactly one steal: the raid");
        assert_eq!(c.stolen.get(2), 1, "charged to the raider");

        // Worker 0 reloops and finds nothing; the count must not move.
        assert!(find(&s, 0, &c).is_none());
        assert_eq!(c.stolen.sum(), 1);
    }

    #[test]
    fn conversion_provenance_survives_own_roundtrip() {
        // The flip side: when the converting worker does win the reloop,
        // dispatch reports the original staged-steal provenance and
        // charges the (single) steal to the converter.
        let (s, c) = sched(2, 1);
        s.queues.push_staged(1, staged(9));
        let (t, prov) = find(&s, 0, &c).unwrap();
        assert_eq!(t.id, TaskId(9));
        assert_eq!(prov, Provenance::NumaStaged(1));
        assert_eq!(c.stolen.sum(), 1);
        assert_eq!(c.stolen.get(0), 1);
    }

    #[test]
    fn next_slot_is_a_pending_hit_ahead_of_the_pending_queue() {
        let (s, c) = sched(2, 1);
        let mut own = SearchState::default();
        s.queues.push_pending(0, Task::convert(staged(1)));
        assert!(own.put(Task::convert(staged(2))).is_ok());
        assert_eq!(own.next.as_ref().map(|t| t.id), Some(TaskId(2)));
        // Taken: the owner hands the task back instead of losing either.
        let back = own.put(Task::convert(staged(3)));
        assert_eq!(back.map_err(|t| t.id), Err(TaskId(3)));
        // Nobody steals from a slot.
        let (t, prov) = find(&s, 1, &c).unwrap();
        assert_eq!((t.id, prov), (TaskId(1), Provenance::NumaPending(0)));

        let before = (c.pending_accesses.sum(), c.pending_misses.sum());
        let (t, prov) = s.find_work(0, &c, &mut own).unwrap();
        assert_eq!((t.id, prov), (TaskId(2), Provenance::LocalPending));
        // The high-priority probe missed; the slot is an access that hit.
        assert_eq!(c.pending_accesses.sum() - before.0, 2);
        assert_eq!(c.pending_misses.sum() - before.1, 1);
        assert!(own.next.is_none());
    }

    #[test]
    fn high_priority_precedes_the_next_slot() {
        let (s, c) = sched(1, 1);
        let mut own = SearchState::default();
        assert!(own.put(Task::convert(staged(1))).is_ok());
        s.queues.push_high(staged(2));
        let (t, prov) = s.find_work(0, &c, &mut own).unwrap();
        assert_eq!((t.id, prov), (TaskId(2), Provenance::HighPriority));
        // The worker publishes what the search stopped short of.
        let held = own.next.take().unwrap();
        assert_eq!(held.id, TaskId(1));
        s.queues.push_pending(0, held);
        assert!(own.next.is_none());
        assert_eq!(s.queues.workers[0].pending.len(), 1);
        assert_eq!(s.queues.total_len(), 1);
    }

    #[test]
    fn a_streak_of_slot_dispatches_gives_way_to_the_own_queues() {
        let (s, c) = sched(1, 1);
        let mut own = SearchState::default();
        s.queues.push_pending(0, Task::convert(staged(100)));
        s.queues.push_staged(0, staged(101));
        for id in 0..u64::from(NEXT_SLOT_STREAK) {
            assert!(own.put(Task::convert(staged(id))).is_ok());
            let (t, _) = s.find_work(0, &c, &mut own).unwrap();
            assert_eq!(t.id, TaskId(id), "the slot runs ahead of the queues");
        }
        // The next hand-off goes round by the back of the pending queue,
        // and the staged task is converted in behind it.
        assert!(own.put(Task::convert(staged(50))).is_ok());
        let order: Vec<_> = std::iter::from_fn(|| s.find_work(0, &c, &mut own))
            .map(|(t, prov)| (t.id.0, prov))
            .collect();
        assert_eq!(
            order,
            vec![
                (100, Provenance::LocalPending),
                (50, Provenance::LocalPending),
                (101, Provenance::LocalStaged),
            ]
        );
        // And the count starts afresh.
        assert!(own.put(Task::convert(staged(51))).is_ok());
        s.queues.push_pending(0, Task::convert(staged(102)));
        assert_eq!(s.find_work(0, &c, &mut own).unwrap().0.id, TaskId(51));
    }

    /// A task node that only counts how it was failed.
    struct Stranded(grain_counters::sync::Mutex<Vec<crate::fault::TaskError>>);

    impl crate::task::Runnable for Stranded {
        fn run(&self, _ctx: &mut crate::runtime::TaskContext<'_>) {}
        fn fail(&self, error: crate::fault::TaskError) {
            self.0.lock().push(error);
        }
    }

    #[test]
    fn clearing_the_queues_fails_every_task_node_still_in_them() {
        use crate::fault::TaskError;
        let q = QueueSet::new(1, 1);
        let node = std::sync::Arc::new(Stranded(Default::default()));
        let entry = |id| StagedTask::node(TaskId(id), Priority::Normal, node.clone(), None);
        q.push_staged(0, entry(1));
        q.push_pending(0, Task::convert(entry(2)));
        q.push_pending(0, Task::convert(entry(3)));
        q.push_high(entry(4));
        q.push_low(entry(5));
        assert_eq!(q.total_len(), 5);
        q.clear();
        assert_eq!(q.total_len(), 0);
        assert_eq!(*node.0.lock(), vec![TaskError::BrokenPromise; 5]);
    }

    #[test]
    fn provenance_steal_classification() {
        assert_eq!(Provenance::NumaStaged(1).victim(), Some(1));
        assert!(Provenance::RemotePending(2).is_steal());
        assert!(!Provenance::LocalPending.is_steal());
        assert!(!Provenance::HighPriority.is_steal());
        assert!(!Provenance::LowPriority.is_steal());
    }

    #[test]
    fn queueset_total_len_counts_everything() {
        let q = QueueSet::new(2, 1);
        q.push_staged(0, staged(1));
        q.push_pending(1, Task::convert(staged(2)));
        q.push_high(staged(3));
        q.push_low(staged(4));
        assert_eq!(q.total_len(), 4);
    }
}
