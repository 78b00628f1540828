//! Task groups and cooperative cancellation.
//!
//! A [`TaskGroup`] collects a set of related tasks (typically: every task
//! of one submitted *job*) and tracks them as a unit:
//!
//! * **in-flight accounting** — `enter`/`exit` pairs count members from
//!   the moment they are promised (spawned, or reserved by a grouped
//!   dataflow node whose inputs are not ready yet) until they terminate;
//! * **a completion latch** — [`TaskGroup::wait`] and
//!   [`TaskGroup::on_quiescent`] fire when the count reaches zero, so a
//!   caller can join *one job* without draining the whole runtime;
//! * **cooperative cancellation** — [`TaskGroup::cancel`] trips a shared
//!   [`CancelToken`]; queued members are skipped at dispatch (their
//!   bodies never run), reserved dataflow nodes are released without
//!   spawning, and running tasks can poll
//!   [`crate::runtime::TaskContext::is_cancelled`] to bail out early.
//!   Nothing is preempted — cancellation is a request, honoured at the
//!   next scheduling point, which is exactly the guarantee a cooperative
//!   M:N runtime can make.
//!
//! Membership is inherited: a task spawned from inside a grouped task
//! (via the [`crate::runtime::TaskContext`] spawn/async/dataflow API)
//! joins its parent's group automatically, so a whole DAG spawned from a
//! grouped root is covered by the root's group.

use crate::fault::TaskError;
use crate::future::Dormant;
use grain_counters::sync::{
    deadline_after, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering,
};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A cheaply clonable cooperative cancellation flag.
///
/// Tokens are shared: every clone observes the same flag. Task bodies
/// receive the ambient token through
/// [`crate::runtime::TaskContext::is_cancelled`] /
/// [`crate::runtime::TaskContext::cancel_token`]; standalone tokens can
/// be created for ad-hoc use.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the flag. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has [`cancel`](Self::cancel) been called (on any clone)?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

type FaultHook = Box<dyn FnOnce(&TaskError) + Send>;

#[derive(Default)]
struct Hooks {
    /// Callbacks to run when the group next becomes quiescent.
    quiescent: Vec<Box<dyn FnOnce() + Send>>,
    /// Grouped dataflow nodes that may still be dormant, for
    /// [`TaskGroup::cancel`] to release. Weak, because a node holds its
    /// group: a strong entry would be a cycle that only `cancel` breaks,
    /// and a node is dead weight here from the moment it fires.
    dormant: Vec<Weak<dyn Dormant>>,
    /// Callbacks to run when the group's first fault is recorded (used by
    /// the job service's fail-fast policy).
    fault: Vec<FaultHook>,
}

/// Sentinel for "no budget installed" in [`TaskGroup::budget_ns`].
const NO_BUDGET: u64 = u64::MAX;

/// A group of related tasks with in-flight accounting, a completion
/// latch, cooperative cancellation, and an optional *deadline budget*.
/// See the [module docs](self).
pub struct TaskGroup {
    token: CancelToken,
    in_flight: AtomicUsize,
    spawned: AtomicU64,
    completed: AtomicU64,
    skipped: AtomicU64,
    faulted: AtomicU64,
    exec_ns: AtomicU64,
    func_ns: AtomicU64,
    /// Time anchor for the deadline budget: `budget_ns` is measured from
    /// here so the hot-path check is a single atomic load plus a
    /// monotonic clock read (no locked `Instant` needed).
    created_at: Instant,
    /// Absolute budget deadline as nanoseconds since `created_at`;
    /// [`NO_BUDGET`] means no budget is installed.
    budget_ns: AtomicU64,
    /// Members skipped at dispatch specifically because the budget was
    /// exhausted (a subset of `skipped`).
    budget_skipped: AtomicU64,
    first_fault: Mutex<Option<TaskError>>,
    hooks: Mutex<Hooks>,
    cv: Condvar,
}

impl Default for TaskGroup {
    fn default() -> Self {
        Self {
            token: CancelToken::new(),
            in_flight: AtomicUsize::new(0),
            spawned: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
            exec_ns: AtomicU64::new(0),
            func_ns: AtomicU64::new(0),
            created_at: Instant::now(),
            budget_ns: AtomicU64::new(NO_BUDGET),
            budget_skipped: AtomicU64::new(0),
            first_fault: Mutex::new(None),
            hooks: Mutex::new(Hooks::default()),
            cv: Condvar::new(),
        }
    }
}

impl TaskGroup {
    /// A fresh, empty (hence quiescent), un-cancelled group.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A clone of the group's cancellation token.
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Request cancellation: trips the token and releases every dormant
    /// dataflow reservation. Idempotent; already-running members finish
    /// their current phase.
    pub fn cancel(&self) {
        self.token.cancel();
        let dormant = std::mem::take(&mut self.hooks.lock().dormant);
        for node in dormant.iter().filter_map(Weak::upgrade) {
            node.cancel();
        }
    }

    /// Has the group been cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// Members currently in flight (spawned or reserved, not yet
    /// terminated).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Total members ever entered into the group.
    pub fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::SeqCst)
    }

    /// Members that ran to completion.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }

    /// Members skipped (never executed) because the group was cancelled.
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::SeqCst)
    }

    /// Members whose body panicked (isolated) or inherited a dependency
    /// fault.
    pub fn faulted(&self) -> u64 {
        self.faulted.load(Ordering::SeqCst)
    }

    /// The first fault recorded since the last
    /// [`reset_faults`](Self::reset_faults), if any.
    pub fn first_fault(&self) -> Option<TaskError> {
        self.first_fault.lock().clone()
    }

    /// Total execution nanoseconds accumulated by the group's phases
    /// (Σt_exec). Read it before [`func_ns`](Self::func_ns): a phase's
    /// func time is published before its exec time, so the pair read in
    /// that order never shows more exec than func.
    pub fn exec_ns(&self) -> u64 {
        self.exec_ns.load(Ordering::SeqCst)
    }

    /// Total thread nanoseconds of the group's phases (Σt_func): each
    /// phase's exec time plus the worker's search and dispatch before it.
    pub fn func_ns(&self) -> u64 {
        self.func_ns.load(Ordering::SeqCst)
    }

    /// Install a deadline budget: after `deadline`, members of this group
    /// are cancelled at dispatch (their bodies never run) instead of
    /// executed-then-discarded. The job service calls this with the job's
    /// absolute deadline so a job that has already lost its race does not
    /// keep burning worker time on tasks nobody will collect. Idempotent;
    /// the latest call wins.
    pub fn set_budget_deadline(&self, deadline: Instant) {
        let ns = deadline
            .saturating_duration_since(self.created_at)
            .as_nanos()
            .min(u128::from(NO_BUDGET - 1)) as u64;
        self.budget_ns.store(ns, Ordering::SeqCst);
    }

    /// Time remaining before the budget deadline, or `None` if no budget
    /// is installed. Returns `Some(ZERO)` once the budget is exhausted.
    pub fn remaining_budget(&self) -> Option<Duration> {
        let ns = self.budget_ns.load(Ordering::SeqCst);
        if ns == NO_BUDGET {
            return None;
        }
        let elapsed = self.created_at.elapsed();
        Some(Duration::from_nanos(ns).saturating_sub(elapsed))
    }

    /// Is a budget installed *and* already spent? The worker's dispatch
    /// skip path polls this, so it is a single atomic load when no budget
    /// is installed.
    pub fn budget_exhausted(&self) -> bool {
        let ns = self.budget_ns.load(Ordering::SeqCst);
        ns != NO_BUDGET && self.created_at.elapsed().as_nanos() >= u128::from(ns)
    }

    /// Members skipped at dispatch because the budget was exhausted (a
    /// subset of [`skipped`](Self::skipped)).
    pub fn budget_skipped(&self) -> u64 {
        self.budget_skipped.load(Ordering::SeqCst)
    }

    /// A member was discarded at dispatch because the group's budget was
    /// exhausted. Counts into both `budget_skipped` and `skipped`. Pairs
    /// with [`enter`](Self::enter).
    pub fn exit_over_budget(&self) {
        self.budget_skipped.fetch_add(1, Ordering::SeqCst);
        self.exit_skipped();
    }

    /// Account a member into the group. Called by the grouped spawn
    /// paths; pairs with an eventual [`exit_completed`](Self::exit_completed)
    /// or [`exit_skipped`](Self::exit_skipped).
    pub fn enter(&self) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        self.spawned.fetch_add(1, Ordering::SeqCst);
    }

    /// Charge one phase of a member task: `exec_ns` of closure time out
    /// of `func_ns` of thread time. Func goes first and exec releases it,
    /// so a reader that acquires an exec sum sees at least the func that
    /// came with it.
    pub(crate) fn add_phase_ns(&self, exec_ns: u64, func_ns: u64) {
        self.func_ns.fetch_add(func_ns, Ordering::Relaxed);
        self.exec_ns.fetch_add(exec_ns, Ordering::Release);
    }

    /// A member terminated after running to completion. Pairs with
    /// [`enter`](Self::enter).
    pub fn exit_completed(&self) {
        self.completed.fetch_add(1, Ordering::SeqCst);
        self.exit();
    }

    /// A member was discarded without running (cancelled while queued, or
    /// a dataflow reservation released by [`cancel`](Self::cancel)). Pairs
    /// with [`enter`](Self::enter).
    pub fn exit_skipped(&self) {
        self.skipped.fetch_add(1, Ordering::SeqCst);
        self.exit();
    }

    /// A member terminated in the `Faulted` state (its body panicked, or
    /// a dependency fault propagated into it). Records the group's first
    /// fault, fires [`on_fault`](Self::on_fault) hooks, then exits. Pairs
    /// with [`enter`](Self::enter).
    pub fn exit_faulted(&self, error: TaskError) {
        self.faulted.fetch_add(1, Ordering::SeqCst);
        let hooks = {
            let mut first = self.first_fault.lock();
            if first.is_none() {
                *first = Some(error.clone());
            }
            let mut g = self.hooks.lock();
            std::mem::take(&mut g.fault)
        };
        for h in hooks {
            h(&error);
        }
        self.exit();
    }

    /// Run `f` when the group records a fault. If a fault is already
    /// recorded, `f` runs inline with the first fault. Hooks fire once
    /// (on the fault that drains them) and are *not* re-armed by
    /// [`reset_faults`](Self::reset_faults).
    pub fn on_fault(&self, f: impl FnOnce(&TaskError) + Send + 'static) {
        let already = {
            let first = self.first_fault.lock();
            match &*first {
                Some(e) => Some(e.clone()),
                None => {
                    let mut g = self.hooks.lock();
                    g.fault.push(Box::new(f));
                    return;
                }
            }
        };
        if let Some(e) = already {
            f(&e);
        }
    }

    /// Clear the fault count and the recorded first fault (the job
    /// service calls this before re-running a retried job in the same
    /// group). Cumulative spawn/complete/skip counters are *not* reset.
    pub fn reset_faults(&self) {
        *self.first_fault.lock() = None;
        self.faulted.store(0, Ordering::SeqCst);
    }

    fn exit(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            let hooks = std::mem::take(&mut self.hooks.lock().quiescent);
            self.cv.notify_all();
            for h in hooks {
                h();
            }
        }
    }

    /// Run `f` the next time the in-flight count falls to zero, on
    /// whichever thread retires that last member — keep it short. `f`
    /// never runs inline, even on an idle group: arm it *before* entering
    /// the members it waits for, and the thread arming it can never be
    /// the one that runs it.
    pub fn on_quiescent(&self, f: impl FnOnce() + Send + 'static) {
        self.hooks.lock().quiescent.push(Box::new(f));
    }

    /// Have [`cancel`](Self::cancel) release `node` if it is still
    /// dormant by then. Returns `false`, registering nothing, if the
    /// group is cancelled already: the caller releases the node itself.
    pub(crate) fn register_dormant(&self, node: Weak<dyn Dormant>) -> bool {
        let mut g = self.hooks.lock();
        if self.is_cancelled() {
            return false;
        }
        // Nodes that fired are never removed one by one; sweep them out
        // whenever the list is about to grow, so it stays within twice
        // the number of live nodes however long the group lives.
        if g.dormant.len() == g.dormant.capacity() {
            g.dormant.retain(|n| n.strong_count() > 0);
        }
        g.dormant.push(node);
        true
    }

    /// Block until the group is quiescent (in-flight count zero). Unlike
    /// [`crate::Runtime::wait_idle`] this joins *only this group's*
    /// members — other jobs sharing the runtime keep it busy without
    /// holding this wait up. It sleeps until the last member's exit
    /// notifies.
    pub fn wait(&self) {
        // Unbounded: a group's join waits as long as its members run.
        self.wait_until(None);
    }

    /// [`wait`](Self::wait) with a deadline; returns `true` if the group
    /// went quiescent, `false` on timeout.
    /// A `timeout` that reaches past the clock's range is no deadline.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        self.wait_until(deadline_after(timeout))
    }

    fn wait_until(&self, deadline: Option<Instant>) -> bool {
        let quiet = |_: &mut Hooks| self.in_flight.load(Ordering::SeqCst) == 0;
        self.cv.wait_until(&mut self.hooks.lock(), deadline, quiet)
    }
}

impl std::fmt::Debug for TaskGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskGroup")
            .field("in_flight", &self.in_flight())
            .field("spawned", &self.spawned())
            .field("completed", &self.completed())
            .field("skipped", &self.skipped())
            .field("faulted", &self.faulted())
            .field("cancelled", &self.is_cancelled())
            .field("remaining_budget", &self.remaining_budget())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pace::pace;

    #[test]
    fn token_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn fresh_group_is_quiescent() {
        let g = TaskGroup::new();
        assert_eq!(g.in_flight(), 0);
        let fired = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&fired);
        g.on_quiescent(move || f.store(true, Ordering::SeqCst));
        assert!(!fired.load(Ordering::SeqCst), "never fires inline");
        assert!(g.wait_timeout(Duration::from_millis(1)));
        // Armed on the idle group, it fires when the next member retires.
        g.enter();
        g.exit_completed();
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn latch_fires_when_last_member_exits() {
        let g = TaskGroup::new();
        g.enter();
        g.enter();
        let fired = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&fired);
        g.on_quiescent(move || f.store(true, Ordering::SeqCst));
        assert!(!fired.load(Ordering::SeqCst));
        g.exit_completed();
        assert!(!fired.load(Ordering::SeqCst));
        g.exit_skipped();
        assert!(fired.load(Ordering::SeqCst));
        assert_eq!(g.completed(), 1);
        assert_eq!(g.skipped(), 1);
        assert_eq!(g.spawned(), 2);
    }

    /// A stand-in for a dormant dataflow node: counts its cancels.
    #[derive(Default)]
    struct Node(AtomicUsize);

    impl Dormant for Node {
        fn cancel(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn weak(node: &Arc<Node>) -> Weak<dyn Dormant> {
        Arc::downgrade(node) as _
    }

    #[test]
    fn cancel_releases_dormant_nodes_once() {
        let g = TaskGroup::new();
        let node = Arc::new(Node::default());
        assert!(g.register_dormant(weak(&node)));
        g.cancel();
        g.cancel(); // idempotent; the list is already drained
        assert_eq!(node.0.load(Ordering::SeqCst), 1);
        // After cancellation nothing registers: the caller releases.
        assert!(!g.register_dormant(weak(&node)));
        assert_eq!(node.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fired_nodes_do_not_pile_up_in_a_long_lived_group() {
        let g = TaskGroup::new();
        let live = Arc::new(Node::default());
        assert!(g.register_dormant(weak(&live)));
        for _ in 0..10_000 {
            // Dropped at once: the node "fired" and nothing holds it.
            assert!(g.register_dormant(weak(&Arc::new(Node::default()))));
        }
        assert!(g.hooks.lock().dormant.len() <= 8);
        g.cancel();
        assert_eq!(live.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wait_timeout_past_the_clock_range_is_no_deadline() {
        let g = TaskGroup::new();
        assert!(g.wait_timeout(Duration::MAX), "quiescent already");
        g.enter();
        let g2 = Arc::clone(&g);
        let h = grain_counters::sync::spawn("leaver", move || {
            pace(Duration::from_millis(10));
            g2.exit_completed();
        })
        .unwrap();
        assert!(g.wait_timeout(Duration::MAX), "quiescent later");
        h.join().unwrap();
    }

    #[test]
    fn wait_blocks_until_exit() {
        let g = TaskGroup::new();
        g.enter();
        let g2 = Arc::clone(&g);
        let h = grain_counters::sync::spawn("leaver", move || {
            pace(Duration::from_millis(20));
            g2.exit_completed();
        })
        .unwrap();
        g.wait();
        assert_eq!(g.in_flight(), 0);
        h.join().unwrap();
    }

    #[test]
    fn fault_records_first_error_and_fires_hooks() {
        let g = TaskGroup::new();
        g.enter();
        g.enter();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        g.on_fault(move |e| s.lock().push(e.clone()));
        g.exit_faulted(TaskError::Panicked {
            message: "first".into(),
        });
        g.exit_faulted(TaskError::Panicked {
            message: "second".into(),
        });
        assert_eq!(g.faulted(), 2);
        assert_eq!(
            g.first_fault(),
            Some(TaskError::Panicked {
                message: "first".into()
            })
        );
        // The hook fired once, on the first fault.
        assert_eq!(seen.lock().len(), 1);
        // Hooks registered after a fault run inline.
        let s = Arc::clone(&seen);
        g.on_fault(move |e| s.lock().push(e.clone()));
        assert_eq!(seen.lock().len(), 2);
        // Reset clears the record for a retry attempt.
        g.reset_faults();
        assert_eq!(g.faulted(), 0);
        assert!(g.first_fault().is_none());
    }

    #[test]
    fn budget_defaults_to_none_and_clamps_at_zero() {
        let g = TaskGroup::new();
        assert_eq!(g.remaining_budget(), None);
        assert!(!g.budget_exhausted());
        g.set_budget_deadline(Instant::now() + Duration::from_secs(60));
        let left = g.remaining_budget().expect("budget installed");
        assert!(left > Duration::from_secs(50), "left = {left:?}");
        assert!(!g.budget_exhausted());
        // A deadline in the past saturates to zero remaining.
        g.set_budget_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(g.remaining_budget(), Some(Duration::ZERO));
        assert!(g.budget_exhausted());
    }

    #[test]
    fn over_budget_exit_counts_into_both_skip_counters() {
        let g = TaskGroup::new();
        g.enter();
        g.enter();
        g.exit_over_budget();
        g.exit_skipped();
        assert_eq!(g.budget_skipped(), 1);
        assert_eq!(g.skipped(), 2);
        assert_eq!(g.in_flight(), 0);
    }

    #[test]
    fn wait_timeout_expires() {
        let g = TaskGroup::new();
        g.enter();
        assert!(!g.wait_timeout(Duration::from_millis(10)));
        g.exit_completed();
        assert!(g.wait_timeout(Duration::from_millis(10)));
    }
}
