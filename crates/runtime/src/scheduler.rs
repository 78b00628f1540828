//! The Priority Local-FIFO scheduler.
//!
//! Direct implementation of §I-B and Fig. 1 of the paper:
//!
//! * every worker owns a *dual queue* — one staged, one pending — both
//!   lock-free FIFOs;
//! * a configurable number of *high-priority* dual queues run before any
//!   normal work;
//! * one *low-priority* queue runs only when everything else is empty;
//! * work search order (Fig. 1):
//!   1. local pending queue — its head is the worker's *next* slot, where
//!      a task that finishes leaves the first dependent its completion
//!      made ready (see [`QueueSet::offer_next`])
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

#![deny(clippy::unwrap_used)]

use crate::queue::{MpmcQueue, QueueStats};
use crate::task::{StagedTask, Task, TaskId};
use grain_counters::sync::Mutex;
use grain_counters::threads::ThreadCounters;
use grain_topology::NumaTopology;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Scheduling policy variants. The paper measures Priority Local-FIFO;
/// the other two exist for the ablation study (DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The paper's policy: NUMA-aware six-step search (Fig. 1).
    #[default]
    PriorityLocalFifo,
    /// No stealing: a worker only ever runs what lands in its own queues
    /// (plus the shared high/low-priority queues).
    NoSteal,
    /// Stealing ignores NUMA domains: steps 3+5 and 4+6 collapse into
    /// flat staged-then-pending sweeps over all workers.
    NumaBlind,
}

/// One worker's dual queue.
#[derive(Debug, Default)]
pub struct DualQueue {
    /// Staged task descriptions (cheap, not yet converted).
    pub staged: MpmcQueue<StagedTask>,
    /// Converted, runnable tasks.
    pub pending: MpmcQueue<Task>,
    /// The *next* slot: one converted task, private to the owning worker
    /// (nobody steals from it), dispatched ahead of `pending`.
    next: NextSlot,
}

/// Dispatches in a row from a worker's next slot before one search takes
/// the slot's task round by the back of the pending queue, and looks at
/// the staged queue on the way: a chain in which every task readies the
/// next would otherwise run ahead of everything in the worker's own
/// queues — a yielded task, a fresh spawn — for as long as the chain is,
/// which on a one-worker runtime nobody else can take either.
const NEXT_SLOT_STREAK: u32 = 32;

/// Only the owning worker puts and takes; the watchdog looks, hence the
/// lock.
#[derive(Debug, Default)]
struct NextSlot {
    /// Mirrors `held.task.is_some()`, written under the lock, so that the
    /// owner's search of an empty slot — most searches of a workload that
    /// hands nothing off — is one load. `put` releases, `take` acquires.
    occupied: AtomicBool,
    held: Mutex<Held>,
}

#[derive(Debug, Default)]
struct Held {
    task: Option<Task>,
    /// Tasks taken, modulo `NEXT_SLOT_STREAK + 1`.
    taken: u32,
}

impl NextSlot {
    fn put(&self, task: Task) -> Result<(), Task> {
        let mut held = self.held.lock();
        if held.task.is_some() {
            return Err(task);
        }
        held.task = Some(task);
        self.occupied.store(true, Ordering::Release);
        Ok(())
    }

    /// The task, and whether it may be dispatched at once: not every
    /// `NEXT_SLOT_STREAK + 1`-th, which goes round by the queue.
    fn take(&self) -> Option<(Task, bool)> {
        if !self.occupied.load(Ordering::Acquire) {
            return None;
        }
        let mut held = self.held.lock();
        self.occupied.store(false, Ordering::Release);
        let task = held.task.take()?;
        held.taken = (held.taken + 1) % (NEXT_SLOT_STREAK + 1);
        Some((task, held.taken != 0))
    }
}

impl DualQueue {
    fn new(stats: &std::sync::Arc<QueueStats>) -> Self {
        Self {
            staged: MpmcQueue::with_stats(std::sync::Arc::clone(stats)),
            pending: MpmcQueue::with_stats(std::sync::Arc::clone(stats)),
            next: NextSlot::default(),
        }
    }

    /// Tasks currently queued, the next slot included (racy, for load
    /// introspection).
    pub fn len(&self) -> usize {
        let next = self.next.occupied.load(Ordering::Acquire);
        self.staged.len() + self.pending.len() + usize::from(next)
    }

    /// True when both queues and the next slot are (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The task in the next slot, if one is.
    pub fn next_id(&self) -> Option<TaskId> {
        self.next.held.lock().task.as_ref().map(|t| t.id)
    }
}

/// The complete queue system of a runtime.
#[derive(Debug)]
pub struct QueueSet {
    /// One dual queue per worker.
    pub workers: Vec<DualQueue>,
    /// High-priority dual queues (shared; probed before everything).
    pub high: Vec<DualQueue>,
    /// The single low-priority queue.
    pub low: MpmcQueue<StagedTask>,
    /// Round-robin cursor for spawns from external threads.
    rr: AtomicUsize,
    /// Round-robin cursor for high-priority spawns.
    rr_high: AtomicUsize,
    /// Contention statistics shared by every queue in the set.
    stats: std::sync::Arc<QueueStats>,
}

impl QueueSet {
    /// Build queues for `workers` workers and `high_queues` high-priority
    /// dual queues (≥ 1).
    pub fn new(workers: usize, high_queues: usize) -> Self {
        assert!(workers > 0);
        let stats = std::sync::Arc::new(QueueStats::default());
        Self {
            workers: (0..workers).map(|_| DualQueue::new(&stats)).collect(),
            high: (0..high_queues.max(1))
                .map(|_| DualQueue::new(&stats))
                .collect(),
            low: MpmcQueue::with_stats(std::sync::Arc::clone(&stats)),
            rr: AtomicUsize::new(0),
            rr_high: AtomicUsize::new(0),
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

    /// Leave a converted task in `worker`'s next slot, for that worker's
    /// next search to dispatch ahead of its pending queue. Only `worker`
    /// itself may call this, and only as the last act of a phase: the
    /// slot is invisible to thieves, so a task left there while a body
    /// runs on would be work hidden from idle workers. Hands the task
    /// back if the slot is taken.
    pub(crate) fn offer_next(&self, worker: usize, task: Task) -> Result<(), Task> {
        self.workers[worker].next.put(task)
    }

    /// Move the task in `worker`'s next slot, if any, to the back of its
    /// pending queue, where other workers can find it. `true` if there
    /// was one: the caller owes a wake.
    pub(crate) fn flush_next(&self, worker: usize) -> bool {
        let task = self.workers[worker].next.take();
        task.map(|(t, _)| self.push_pending(worker, t)).is_some()
    }

    /// Drop every queued task. A task node dropped unrun fails its
    /// output future, and nodes hold their runtime: a runtime shutting
    /// down with tasks stranded (a dead worker) empties its queues
    /// rather than leave consumers waiting on a cycle.
    pub(crate) fn clear(&self) {
        for d in self.workers.iter().chain(&self.high) {
            while d.staged.pop().is_some() {}
            while d.pending.pop().is_some() {}
            drop(d.next.take());
        }
        while self.low.pop().is_some() {}
    }

    /// Enqueue a high-priority staged task (round-robin over the
    /// high-priority queues).
    pub fn push_high(&self, task: StagedTask) {
        let i = self.rr_high.fetch_add(1, Ordering::Relaxed) % self.high.len();
        self.high[i].staged.push(task);
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

/// The work-finding engine: owns the policy, the NUMA map and the counter
/// hooks. One instance per runtime, shared by all workers.
#[derive(Debug)]
pub struct Scheduler {
    /// Queue system (shared so instantaneous queue-length counters can
    /// observe it).
    pub queues: std::sync::Arc<QueueSet>,
    /// NUMA topology used for search ordering.
    pub numa: NumaTopology,
    /// Policy variant.
    pub kind: SchedulerKind,
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
    /// True if this required taking work from another worker's queue.
    pub fn is_steal(&self) -> bool {
        matches!(
            self,
            Provenance::NumaStaged(_)
                | Provenance::NumaPending(_)
                | Provenance::RemoteStaged(_)
                | Provenance::RemotePending(_)
        )
    }
}

impl Scheduler {
    /// Build a scheduler.
    pub fn new(numa: NumaTopology, kind: SchedulerKind, high_queues: usize) -> Self {
        let workers = numa.workers();
        Self {
            queues: std::sync::Arc::new(QueueSet::new(workers, high_queues)),
            numa,
            kind,
        }
    }

    /// One full search round for worker `w`, following the policy's order.
    /// Returns a runnable task and where it came from, or `None` if every
    /// probed queue was empty. Counter updates (accesses/misses/converted/
    /// stolen) are recorded against worker `w` in `counters`.
    ///
    /// This simply loops [`Scheduler::search_step`] until a pass either
    /// dispatches a task or comes up empty.
    pub fn find_work(&self, w: usize, counters: &ThreadCounters) -> Option<(Task, Provenance)> {
        loop {
            match self.search_step(w, counters) {
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
    /// Exposed (not just `find_work`) so tests can freeze the search
    /// mid-conversion and exercise the round-trip races deterministically.
    pub fn search_step(&self, w: usize, counters: &ThreadCounters) -> SearchStep {
        // High-priority queues always come first: own-indexed one,
        // then the rest (pending before staged inside each).
        let nh = self.queues.high.len();
        for off in 0..nh {
            let q = &self.queues.high[(w + off) % nh];
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
        match own.next.take() {
            Some((t, true)) => {
                counters.pending_accesses.incr(w);
                return Self::dispatch(t, Provenance::LocalPending, w, counters);
            }
            Some((t, false)) => {
                // The streak is up: the task queues behind whatever is
                // pending, and the staged queue gets this pass's first
                // look. Nobody is woken for it: this worker searches on
                // and cannot strand it, and an idle peer looks again
                // within one park timeout.
                self.queues.push_pending(w, t);
                if let Some(t) = self.pop_staged(own, w, counters, Some(Provenance::LocalStaged)) {
                    self.queues.push_pending(w, t);
                    return SearchStep::Converted;
                }
            }
            None => {}
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

        match self.kind {
            SchedulerKind::NoSteal => {}
            SchedulerKind::PriorityLocalFifo => {
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
            }
            SchedulerKind::NumaBlind => {
                // Blind to domains for *ordering* only: provenance still
                // reports the victim's true domain relative to `w`.
                let peers: Vec<usize> = {
                    let mut v = self.numa.same_domain_peers(w);
                    v.extend(self.numa.remote_domain_peers(w));
                    v.sort_unstable_by_key(|&p| {
                        (p + self.numa.workers() - w) % self.numa.workers()
                    });
                    v
                };
                for &p in &peers {
                    let origin = Some(if self.numa.same_domain(w, p) {
                        Provenance::NumaStaged(p)
                    } else {
                        Provenance::RemoteStaged(p)
                    });
                    if let Some(t) = self.pop_staged(&self.queues.workers[p], w, counters, origin) {
                        self.queues.push_pending(w, t);
                        return SearchStep::Converted;
                    }
                }
                for &p in &peers {
                    if let Some(mut t) = self.pop_pending(&self.queues.workers[p], w, counters) {
                        t.origin = None;
                        let prov = if self.numa.same_domain(w, p) {
                            Provenance::NumaPending(p)
                        } else {
                            Provenance::RemotePending(p)
                        };
                        return Self::dispatch(t, prov, w, counters);
                    }
                }
            }
        }

        // Low-priority queue: only when all other work is exhausted. It
        // holds staged descriptions, so the probe counts against the
        // staged access/miss family like every other staged probe.
        counters.staged_accesses.incr(w);
        if let Some(staged) = self.queues.low.pop() {
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
        match q.pending.pop() {
            Some(t) => Some(t),
            None => {
                counters.pending_misses.incr(w);
                None
            }
        }
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
        match q.staged.pop() {
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::task::{Priority, StagedTask, TaskId};

    fn staged(id: u64) -> StagedTask {
        StagedTask::once(TaskId(id), Priority::Normal, |_| {})
    }

    fn sched(workers: usize, domains: usize, kind: SchedulerKind) -> (Scheduler, ThreadCounters) {
        let numa = NumaTopology::block(workers, domains);
        (Scheduler::new(numa, kind, 1), ThreadCounters::new(workers))
    }

    #[test]
    fn local_pending_beats_local_staged() {
        let (s, c) = sched(2, 1, SchedulerKind::PriorityLocalFifo);
        s.queues.push_staged(0, staged(1));
        s.queues.push_pending(0, Task::convert(staged(2)));
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        assert_eq!(prov, Provenance::LocalPending);
    }

    #[test]
    fn local_staged_beats_stealing() {
        let (s, c) = sched(2, 1, SchedulerKind::PriorityLocalFifo);
        s.queues.push_staged(1, staged(1)); // peer's
        s.queues.push_staged(0, staged(2)); // own
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        assert_eq!(prov, Provenance::LocalStaged);
        assert_eq!(c.converted.sum(), 1);
    }

    #[test]
    fn steals_numa_staged_before_numa_pending() {
        let (s, c) = sched(2, 1, SchedulerKind::PriorityLocalFifo);
        s.queues.push_pending(1, Task::convert(staged(1)));
        s.queues.push_staged(1, staged(2));
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(t.id, TaskId(2), "staged steals first (Fig. 1 step 3)");
        assert_eq!(prov, Provenance::NumaStaged(1));
        assert_eq!(c.stolen.sum(), 1);
    }

    #[test]
    fn local_numa_beats_remote_numa() {
        // 4 workers, 2 domains: {0,1} and {2,3}.
        let (s, c) = sched(4, 2, SchedulerKind::PriorityLocalFifo);
        s.queues.push_staged(2, staged(1)); // remote for worker 0
        s.queues.push_staged(1, staged(2)); // local domain
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        assert_eq!(prov, Provenance::NumaStaged(1));
    }

    #[test]
    fn remote_staged_beats_remote_pending() {
        let (s, c) = sched(4, 2, SchedulerKind::PriorityLocalFifo);
        s.queues.push_pending(2, Task::convert(staged(1)));
        s.queues.push_staged(3, staged(2));
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        assert_eq!(prov, Provenance::RemoteStaged(3));
    }

    #[test]
    fn full_order_matches_fig1() {
        // Seed every tier and drain from worker 0; provenance must follow
        // the six-step order.
        let (s, c) = sched(4, 2, SchedulerKind::PriorityLocalFifo);
        s.queues.push_pending(0, Task::convert(staged(10)));
        s.queues.push_staged(0, staged(11));
        s.queues.push_staged(1, staged(12));
        s.queues.push_pending(1, Task::convert(staged(13)));
        s.queues.push_staged(2, staged(14));
        s.queues.push_pending(3, Task::convert(staged(15)));
        s.queues.push_low(staged(16));

        let mut got = Vec::new();
        while let Some((t, prov)) = s.find_work(0, &c) {
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
        let (s, c) = sched(2, 1, SchedulerKind::PriorityLocalFifo);
        s.queues.push_pending(0, Task::convert(staged(1)));
        s.queues.push_high(staged(2));
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        assert_eq!(prov, Provenance::HighPriority);
    }

    #[test]
    fn low_priority_runs_only_when_drained() {
        let (s, c) = sched(1, 1, SchedulerKind::PriorityLocalFifo);
        s.queues.push_low(staged(1));
        s.queues.push_staged(0, staged(2));
        let (t, _) = s.find_work(0, &c).unwrap();
        assert_eq!(t.id, TaskId(2));
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(t.id, TaskId(1));
        assert_eq!(prov, Provenance::LowPriority);
    }

    #[test]
    fn nosteal_never_touches_peers() {
        let (s, c) = sched(2, 1, SchedulerKind::NoSteal);
        s.queues.push_staged(1, staged(1));
        s.queues.push_pending(1, Task::convert(staged(2)));
        assert!(s.find_work(0, &c).is_none());
        assert_eq!(c.stolen.sum(), 0);
        // Worker 1 still gets its own work.
        assert!(s.find_work(1, &c).is_some());
    }

    #[test]
    fn numa_blind_still_steals() {
        let (s, c) = sched(4, 2, SchedulerKind::NumaBlind);
        s.queues.push_staged(3, staged(1));
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(t.id, TaskId(1));
        assert_eq!(c.stolen.sum(), 1);
        // Worker 3 lives in the other domain; the blind policy may steal
        // from it out of order but must not mislabel where it was.
        assert_eq!(prov, Provenance::RemoteStaged(3));
    }

    #[test]
    fn numa_blind_reports_true_domain() {
        // Regression: NumaBlind used to stamp every steal NumaStaged/
        // NumaPending even for remote-domain victims. 4 workers, 2
        // domains: {0,1} and {2,3}.
        let (s, c) = sched(4, 2, SchedulerKind::NumaBlind);
        s.queues.push_staged(1, staged(1)); // same-domain victim
        let (_, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(prov, Provenance::NumaStaged(1));

        s.queues.push_pending(3, Task::convert(staged(2))); // remote victim
        let (_, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(prov, Provenance::RemotePending(3));

        s.queues.push_pending(1, Task::convert(staged(3))); // same-domain
        let (_, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(prov, Provenance::NumaPending(1));
    }

    #[test]
    fn counters_track_accesses_and_misses() {
        let (s, c) = sched(2, 1, SchedulerKind::PriorityLocalFifo);
        assert!(s.find_work(0, &c).is_none());
        // hp pending+staged, own pending+staged, peer staged+pending, low:
        // pending probes: hp(1) + own(1) + peer(1) = 3, all misses;
        // staged probes: hp(1) + own(1) + peer(1) + low(1) = 4, all misses.
        assert_eq!(c.pending_accesses.sum(), 3);
        assert_eq!(c.pending_misses.sum(), 3);
        assert_eq!(c.staged_accesses.sum(), 4);
        assert_eq!(c.staged_misses.sum(), 4);

        s.queues.push_pending(0, Task::convert(staged(1)));
        assert!(s.find_work(0, &c).is_some());
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
        let (s, c) = sched(1, 1, SchedulerKind::PriorityLocalFifo);
        s.queues.push_low(staged(1));
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(t.id, TaskId(1));
        assert_eq!(prov, Provenance::LowPriority);
        // Pass 1: hp staged miss, own staged miss, low HIT (access only);
        // pass 2 reaches hp staged (miss) before the own-pending hit.
        assert_eq!(c.staged_accesses.sum(), 4, "low probe must count");
        assert_eq!(c.staged_misses.sum(), 3, "a low hit is not a miss");
        assert_eq!(c.converted.sum(), 1);

        // And an unsuccessful probe is a counted miss.
        assert!(s.find_work(0, &c).is_none());
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
        let (s, c) = sched(4, 2, SchedulerKind::PriorityLocalFifo);
        s.queues.push_staged(1, staged(7));

        // Freeze worker 0 mid-round-trip: exactly one search pass.
        assert!(matches!(s.search_step(0, &c), SearchStep::Converted));
        assert_eq!(c.stolen.sum(), 0, "no dispatch yet, so no steal");
        assert_eq!(c.converted.sum(), 1);
        assert_eq!(s.queues.workers[0].pending.len(), 1);

        // Worker 2 raids worker 0's pending queue (Fig. 1 step 6 for it).
        let (t, prov) = s.find_work(2, &c).unwrap();
        assert_eq!(t.id, TaskId(7));
        assert_eq!(prov, Provenance::RemotePending(0), "true final source");
        assert_eq!(c.stolen.sum(), 1, "exactly one steal: the raid");
        assert_eq!(c.stolen.get(2), 1, "charged to the raider");

        // Worker 0 reloops and finds nothing; the count must not move.
        assert!(s.find_work(0, &c).is_none());
        assert_eq!(c.stolen.sum(), 1);
    }

    #[test]
    fn conversion_provenance_survives_own_roundtrip() {
        // The flip side: when the converting worker does win the reloop,
        // dispatch reports the original staged-steal provenance and
        // charges the (single) steal to the converter.
        let (s, c) = sched(2, 1, SchedulerKind::PriorityLocalFifo);
        s.queues.push_staged(1, staged(9));
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!(t.id, TaskId(9));
        assert_eq!(prov, Provenance::NumaStaged(1));
        assert_eq!(c.stolen.sum(), 1);
        assert_eq!(c.stolen.get(0), 1);
    }

    #[test]
    fn next_slot_is_a_pending_hit_ahead_of_the_pending_queue() {
        let (s, c) = sched(2, 1, SchedulerKind::PriorityLocalFifo);
        s.queues.push_pending(0, Task::convert(staged(1)));
        assert!(s.queues.offer_next(0, Task::convert(staged(2))).is_ok());
        assert_eq!(s.queues.workers[0].next_id(), Some(TaskId(2)));
        // Taken: the owner hands the task back instead of losing either.
        let back = s.queues.offer_next(0, Task::convert(staged(3)));
        assert_eq!(back.map_err(|t| t.id), Err(TaskId(3)));
        // Nobody steals from a slot.
        let (t, prov) = s.find_work(1, &c).unwrap();
        assert_eq!((t.id, prov), (TaskId(1), Provenance::NumaPending(0)));

        let before = (c.pending_accesses.sum(), c.pending_misses.sum());
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!((t.id, prov), (TaskId(2), Provenance::LocalPending));
        // The high-priority probe missed; the slot is an access that hit.
        assert_eq!(c.pending_accesses.sum() - before.0, 2);
        assert_eq!(c.pending_misses.sum() - before.1, 1);
        assert_eq!(s.queues.workers[0].next_id(), None);
    }

    #[test]
    fn high_priority_precedes_the_next_slot() {
        let (s, c) = sched(1, 1, SchedulerKind::PriorityLocalFifo);
        assert!(s.queues.offer_next(0, Task::convert(staged(1))).is_ok());
        s.queues.push_high(staged(2));
        let (t, prov) = s.find_work(0, &c).unwrap();
        assert_eq!((t.id, prov), (TaskId(2), Provenance::HighPriority));
        // The worker publishes what the search stopped short of.
        assert!(s.queues.flush_next(0));
        assert!(!s.queues.flush_next(0));
        assert_eq!(s.queues.workers[0].pending.len(), 1);
        assert_eq!(s.queues.total_len(), 1);
    }

    #[test]
    fn a_streak_of_slot_dispatches_gives_way_to_the_own_queues() {
        let (s, c) = sched(1, 1, SchedulerKind::PriorityLocalFifo);
        s.queues.push_pending(0, Task::convert(staged(100)));
        s.queues.push_staged(0, staged(101));
        for id in 0..u64::from(NEXT_SLOT_STREAK) {
            assert!(s.queues.offer_next(0, Task::convert(staged(id))).is_ok());
            let (t, _) = s.find_work(0, &c).unwrap();
            assert_eq!(t.id, TaskId(id), "the slot runs ahead of the queues");
        }
        // The next hand-off goes round by the back of the pending queue,
        // and the staged task is converted in behind it.
        assert!(s.queues.offer_next(0, Task::convert(staged(50))).is_ok());
        let order: Vec<_> = std::iter::from_fn(|| s.find_work(0, &c))
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
        assert!(s.queues.offer_next(0, Task::convert(staged(51))).is_ok());
        s.queues.push_pending(0, Task::convert(staged(102)));
        assert_eq!(s.find_work(0, &c).unwrap().0.id, TaskId(51));
    }

    /// A task node that only counts how it was failed.
    struct Stranded(std::sync::Mutex<Vec<crate::fault::TaskError>>);

    impl crate::task::Runnable for Stranded {
        fn run(&self, _ctx: &mut crate::runtime::TaskContext<'_>) {}
        fn fail(&self, error: crate::fault::TaskError) {
            self.0.lock().unwrap().push(error);
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
        assert!(q.offer_next(0, Task::convert(entry(3))).is_ok());
        q.push_high(entry(4));
        q.push_low(entry(5));
        assert_eq!(q.total_len(), 5);
        q.clear();
        assert_eq!(q.total_len(), 0);
        assert_eq!(*node.0.lock().unwrap(), vec![TaskError::BrokenPromise; 5]);
    }

    #[test]
    fn provenance_steal_classification() {
        assert!(Provenance::NumaStaged(1).is_steal());
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
