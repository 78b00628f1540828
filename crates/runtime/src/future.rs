//! Lightweight shared futures and promises.
//!
//! HPX expresses task dependencies with `hpx::future` / `hpx::async` and
//! composes them "sequentially and in parallel" into a dependency tree
//! (§I-C). These futures are *not* Rust `std::future`s — HPX-threads are
//! cooperative user-level threads, not poll-based async — so we implement
//! the HPX shape directly:
//!
//! * [`Promise`] — single producer; [`Promise::set`] publishes a value,
//!   [`Promise::fail`] publishes an error. Dropping a promise unfulfilled
//!   settles the future with [`TaskError::BrokenPromise`] (or the panic /
//!   cancellation that caused the drop), so consumers are never stranded.
//! * [`SharedFuture`] — many consumers; readable any number of times
//!   (values are `Arc`-shared), attachable continuations, blocking `get`
//!   for external (non-worker) threads. A future *settles* exactly once:
//!   either ready with a value or faulted with a [`TaskError`].
//! * [`when_all`] — N-ary conjunction, the edge/intermediate nodes of the
//!   dependency graph in the paper's Fig. 2. The first faulted input
//!   faults the conjunction with a [`TaskError::Dependency`] cause chain.
//!
//! Behind all three is one object, `Shared<T, X>`: the future's state
//! followed by a *tail* `X`. [`channel`] makes it with an empty tail;
//! [`when_all`] and the runtime's `async_call`/`dataflow` put their input
//! countdown, input list and closure in the tail, so such a node is a
//! single allocation handed out under several faces — the
//! [`SharedFuture`] of its output, the `Waiter` registered on each
//! pending input, and (for a task) the entry in the scheduler's queue.
//!
//! Continuations run inline on the thread that settles the future,
//! which on a worker means "as part of the completing task's phase" —
//! the same attribution HPX uses for cheap continuations.

use crate::fault::{self, TaskError};
use crate::runtime::Handoff;
use grain_counters::sync::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The settled outcome of a future: a shared value or the task error.
pub type Settled<T> = Result<Arc<T>, TaskError>;

/// Callback attached to a future; observes the settled outcome.
type Callback<T> = Box<dyn FnOnce(&Settled<T>) + Send>;

/// What a pending future runs when it settles.
enum Continuation<T> {
    /// Attached with [`SharedFuture::on_settled`].
    Callback(Callback<T>),
    /// A dependency node counting this future among its inputs.
    Node(Arc<dyn Waiter>),
}

/// What follows a future's state in its allocation; a [`SharedFuture`]
/// neither knows nor uses it.
pub(crate) trait Tail: Send + Sync {}

/// The tail of a [`channel`]: nothing.
impl Tail for () {}

/// A future's state, and in `tail` whatever the node that produces its
/// value needs until it has done so.
///
/// Publication: `settle` writes `outcome` first and takes the waiter
/// list — under its lock — second. A reader that sees `outcome` set
/// needs no lock. A subscriber that does not see it locks the list and
/// looks again: still unset means the settler has yet to take the list,
/// so what is pushed now is in the list it will take; set means the
/// list may be gone, so the subscriber runs its continuation itself.
pub(crate) struct Shared<T, X: ?Sized = ()> {
    outcome: OnceLock<Settled<T>>,
    waiters: Mutex<Vec<Continuation<T>>>,
    ready: Condvar,
    pub(crate) tail: X,
}

impl<T, X> Shared<T, X> {
    /// A pending future followed by `tail`.
    pub(crate) fn pending(tail: X) -> Self {
        Self {
            outcome: OnceLock::new(),
            waiters: Mutex::new(Vec::new()),
            ready: Condvar::new(),
            tail,
        }
    }
}

impl<T, X: ?Sized> Shared<T, X> {
    /// The waiter list, locked, if the future is still pending: what is
    /// pushed before the guard drops is in the list `settle` will take.
    /// `None` once the outcome is published.
    fn waiters_if_pending(&self) -> Option<MutexGuard<'_, Vec<Continuation<T>>>> {
        if self.outcome.get().is_some() {
            return None;
        }
        let waiters = self.waiters.lock();
        self.outcome.get().is_none().then_some(waiters)
    }

    /// The outcome of a future known to be settled.
    fn settled(&self) -> &Settled<T> {
        self.outcome.get().expect("not pending, so published")
    }

    /// Settle the future unless it is settled already (`false`): wake
    /// blocked waiters and run every attached continuation inline on
    /// this thread. `handoff` is passed on to the nodes among them — and
    /// not to callbacks, whose own settles are nobody's last act.
    pub(crate) fn try_settle(
        &self,
        outcome: Settled<T>,
        mut handoff: Option<&mut Handoff<'_>>,
    ) -> bool {
        if self.outcome.set(outcome).is_err() {
            return false;
        }
        let waiters = std::mem::take(&mut *self.waiters.lock());
        self.ready.notify_all();
        let outcome = self.settled();
        for c in waiters {
            match c {
                Continuation::Callback(f) => f(outcome),
                Continuation::Node(node) => {
                    node.input_settled(outcome.as_ref().err(), handoff.as_deref_mut());
                }
            }
        }
        true
    }

    /// [`try_settle`](Self::try_settle) for the one producer of a future.
    ///
    /// # Panics
    /// Panics if the future was already settled.
    pub(crate) fn settle(&self, outcome: Settled<T>, handoff: Option<&mut Handoff<'_>>) {
        assert!(self.try_settle(outcome, handoff), "promise fulfilled twice");
    }
}

/// The write end of a future.
///
/// Exactly one settle happens per promise: [`Promise::set`],
/// [`Promise::fail`], or — if the promise is dropped unfulfilled — an
/// automatic fault carrying the reason for the drop (the captured panic
/// message when dropped by an unwind, [`TaskError::Cancelled`] when the
/// owning task was skipped, [`TaskError::BrokenPromise`] otherwise).
pub struct Promise<T> {
    shared: Option<Arc<Shared<T, dyn Tail>>>,
}

/// The read end: shareable, clonable, multi-consumer.
pub struct SharedFuture<T> {
    shared: Arc<Shared<T, dyn Tail>>,
}

impl<T> Clone for SharedFuture<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Create a connected promise/future pair.
pub fn channel<T>() -> (Promise<T>, SharedFuture<T>) {
    let shared: Arc<Shared<T, dyn Tail>> = Arc::new(Shared::pending(()));
    (
        Promise {
            shared: Some(Arc::clone(&shared)),
        },
        SharedFuture { shared },
    )
}

impl<T> Promise<T> {
    /// Publish the value, waking blocked `get`s and running all attached
    /// continuations inline on this thread.
    ///
    /// # Panics
    /// Panics if the promise was already fulfilled.
    pub fn set(mut self, value: T) {
        let shared = self.shared.take().expect("promise already consumed");
        shared.settle(Ok(Arc::new(value)), None);
    }

    /// Publish an error instead of a value. Waiters and continuations
    /// observe `Err(error)`.
    ///
    /// # Panics
    /// Panics if the promise was already fulfilled.
    pub fn fail(mut self, error: TaskError) {
        let shared = self.shared.take().expect("promise already consumed");
        shared.settle(Err(error), None);
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        let Some(shared) = self.shared.take() else {
            return; // consumed by set/fail
        };
        // Dropped unfulfilled: settle with the most specific error we can
        // attribute. During an unwind the panic hook has captured the
        // message; deliberate teardown (cancellation skip, post-panic
        // frame disposal) sets an ambient drop reason.
        let error = if std::thread::panicking() {
            TaskError::Panicked {
                message: fault::captured_panic()
                    .unwrap_or_else(|| "task panicked (message unavailable)".to_string()),
            }
        } else if let Some(reason) = fault::drop_reason() {
            reason
        } else {
            TaskError::BrokenPromise
        };
        shared.settle(Err(error), None);
    }
}

impl<T> SharedFuture<T> {
    /// The future face of a node.
    pub(crate) fn of(shared: Arc<Shared<T, dyn Tail>>) -> Self {
        Self { shared }
    }

    fn settled(outcome: Settled<T>) -> Self {
        let mut shared = Shared::pending(());
        shared.outcome = OnceLock::from(outcome);
        Self::of(Arc::new(shared))
    }

    /// A future that is already fulfilled ("make_ready_future").
    pub fn ready(value: T) -> Self {
        Self::settled(Ok(Arc::new(value)))
    }

    /// A future that is already faulted with `error`.
    pub fn faulted(error: TaskError) -> Self {
        Self::settled(Err(error))
    }

    /// The settled outcome, if the future has settled: `Some(Ok(value))`
    /// once ready, `Some(Err(error))` once faulted, `None` while pending.
    pub fn try_get(&self) -> Option<Settled<T>> {
        self.shared.outcome.get().cloned()
    }

    /// True once the future has settled (ready *or* faulted) — i.e. a
    /// suspended task waiting on it would be resumed.
    pub fn is_ready(&self) -> bool {
        self.shared.outcome.get().is_some()
    }

    /// True if the future settled with an error.
    pub fn is_faulted(&self) -> bool {
        matches!(self.shared.outcome.get(), Some(Err(_)))
    }

    /// The error the future faulted with, if it did.
    pub fn error(&self) -> Option<TaskError> {
        match self.shared.outcome.get() {
            Some(Err(e)) => Some(e.clone()),
            _ => None,
        }
    }

    /// Block the calling thread until the value is available.
    ///
    /// Intended for *external* threads (e.g. `main` collecting a result).
    /// A worker thread must never block here — it would stall its queue;
    /// tasks wait by suspension instead
    /// ([`crate::runtime::TaskContext::suspend_until`]).
    ///
    /// # Panics
    /// Panics if the future faults (producing task panicked, was
    /// cancelled, or lost its promise). Use [`SharedFuture::wait`] or
    /// [`SharedFuture::wait_timeout`] for a fallible join.
    pub fn get(&self) -> Arc<T> {
        match self.wait() {
            Ok(v) => v,
            Err(e) => panic!("SharedFuture::get on a faulted future: {e}"),
        }
    }

    /// Block until the future settles; the fallible form of
    /// [`SharedFuture::get`].
    pub fn wait(&self) -> Settled<T> {
        // `settle` takes the list's lock between publishing the outcome
        // and notifying: whoever sees no outcome under it is counted as a
        // waiter before the settler can get to its notify.
        if let Some(mut waiters) = self.shared.waiters_if_pending() {
            while !self.is_ready() {
                self.shared.ready.wait(&mut waiters);
            }
        }
        self.shared.settled().clone()
    }

    /// Block until the future settles or `timeout` elapses. Returns
    /// `Err(TaskError::Timeout)` on expiry — the only blocking join safe
    /// against a stalled producer.
    pub fn wait_timeout(&self, timeout: Duration) -> Settled<T> {
        let deadline = Instant::now() + timeout;
        if let Some(mut waiters) = self.shared.waiters_if_pending() {
            while !self.is_ready() {
                let now = Instant::now();
                if now >= deadline {
                    return Err(TaskError::Timeout { waited: timeout });
                }
                self.shared.ready.wait_for(&mut waiters, deadline - now);
            }
        }
        self.shared.settled().clone()
    }

    /// Attach a continuation observing the settled outcome: runs
    /// immediately (inline) if already settled, otherwise at settle time
    /// on the settling thread.
    pub fn on_settled(&self, f: impl FnOnce(&Settled<T>) + Send + 'static) {
        match self.shared.waiters_if_pending() {
            Some(mut waiters) => waiters.push(Continuation::Callback(Box::new(f))),
            None => f(self.shared.settled()),
        }
    }

    /// Count this future among `node`'s inputs: `node` hears of the
    /// settle at settle time, or right here if it already happened.
    pub(crate) fn subscribe(&self, node: &Arc<impl Waiter + 'static>) {
        let node: Arc<dyn Waiter> = Arc::clone(node) as _;
        match self.shared.waiters_if_pending() {
            Some(mut waiters) => waiters.push(Continuation::Node(node)),
            None => node.input_settled(self.shared.settled().as_ref().err(), None),
        }
    }

    /// Attach a continuation that runs only if the future becomes ready
    /// with a value (a fault silently skips it — prefer
    /// [`SharedFuture::on_settled`] when the error path matters).
    pub fn on_ready(&self, f: impl FnOnce(&Arc<T>) + Send + 'static) {
        self.on_settled(move |outcome| {
            if let Ok(v) = outcome {
                f(v);
            }
        });
    }
}

/// The values of `deps`, in order. The futures are 16 bytes and the
/// values 8, so `collect` reuses the list's allocation.
///
/// # Panics
/// Panics if one of them is not ready: a node reads its inputs only
/// after counting every one of them down.
pub(crate) fn values<T>(deps: Vec<SharedFuture<T>>) -> Vec<Arc<T>> {
    let value = |dep: SharedFuture<T>| match dep.shared.outcome.get() {
        Some(Ok(v)) => Arc::clone(v),
        _ => unreachable!("a dependency node counted down an input that is not ready"),
    };
    deps.into_iter().map(value).collect()
}

/// The face a node shows its inputs and its task group: all they may
/// tell it.
pub(crate) trait Waiter: Send + Sync {
    /// One input settled, with `fault` if it faulted. Takes the input's
    /// reference to the node: the settle that readies a task node hands
    /// that very reference on to the scheduler's queue — by way of
    /// `handoff`, if that settle is the last act of a worker's phase.
    fn input_settled(self: Arc<Self>, fault: Option<&TaskError>, handoff: Option<&mut Handoff<'_>>);
    /// The node's group was cancelled while the node may still be dormant.
    fn cancel(&self);
}

/// A node's count of inputs yet to settle, and the decision of who
/// retires the node: the caller that counts the last input down *fires*
/// it, a caller that brings a fault or a cancellation first *releases*
/// it, and whichever comes first shuts the other out.
///
/// The node is owned by its still-pending inputs (each holds one `Arc` in
/// its waiter list) and by whoever holds its output future; a task group
/// holds its dormant nodes weakly.
pub(crate) struct Countdown(AtomicUsize);

/// The count of a released node; no node has half as many inputs.
const RELEASED: usize = usize::MAX / 2;

impl Countdown {
    /// For a node of `inputs` inputs, plus one count held by its builder
    /// so a node whose inputs are all settled already cannot fire while
    /// it is still subscribing.
    pub(crate) fn new(inputs: usize) -> Self {
        Self(AtomicUsize::new(inputs + 1))
    }

    /// One input is ready. `true` for the one caller that brings the
    /// count to zero: every input is ready and the node is the caller's
    /// to fire. A faulted input never counts down, so zero means ready.
    pub(crate) fn input_ready(&self) -> bool {
        self.0.fetch_sub(1, Ordering::SeqCst) == 1
    }

    /// Claim the node for a fault or a cancellation. `true` for at most
    /// one caller, and only while the node has not fired.
    pub(crate) fn release(&self) -> bool {
        Self::waiting(self.0.swap(RELEASED, Ordering::SeqCst))
    }

    /// Has the node yet to fire or be released?
    pub(crate) fn is_dormant(&self) -> bool {
        Self::waiting(self.0.load(Ordering::SeqCst))
    }

    fn waiting(count: usize) -> bool {
        (1..RELEASED / 2).contains(&count)
    }
}

/// The tail of a [`when_all`] future: it settles on the thread that
/// brings the deciding input, no task in between.
struct Conjunction<T> {
    count: Countdown,
    /// Taken by whoever fires or releases the node, so a retired node
    /// holds no input however long a pending input keeps it alive.
    deps: Mutex<Vec<SharedFuture<T>>>,
}

impl<T: Send + Sync> Tail for Conjunction<T> {}

impl<T: Send + Sync + 'static> Waiter for Shared<Vec<Arc<T>>, Conjunction<T>> {
    fn input_settled(
        self: Arc<Self>,
        fault: Option<&TaskError>,
        handoff: Option<&mut Handoff<'_>>,
    ) {
        let tail = &self.tail;
        if let Some(e) = fault {
            if tail.count.release() {
                tail.deps.lock().clear();
                let cause = Arc::new(e.clone());
                self.settle(Err(TaskError::Dependency { cause }), None);
            }
        } else if tail.count.input_ready() {
            let deps = std::mem::take(&mut *tail.deps.lock());
            self.settle(Ok(Arc::new(values(deps))), handoff);
        }
    }

    /// Unreachable: nothing cancels a node that no group knows of.
    fn cancel(&self) {
        if self.tail.count.release() {
            self.tail.deps.lock().clear();
            self.settle(Err(TaskError::Cancelled), None);
        }
    }
}

/// A future for the conjunction of `futures`: ready when all inputs are,
/// carrying the input values in order — or faulted as soon as any input
/// faults, with that input's error as the [`TaskError::Dependency`]
/// cause.
///
/// This is the paper's dependency-graph "intermediate node": HPX-Stencil
/// combines the three neighbouring partitions of the previous time step
/// with `when_all` before launching the update task.
pub fn when_all<T: Send + Sync + 'static>(
    futures: &[SharedFuture<T>],
) -> SharedFuture<Vec<Arc<T>>> {
    let node = Arc::new(Shared::pending(Conjunction {
        count: Countdown::new(futures.len()),
        deps: Mutex::new(futures.to_vec()),
    }));
    for dep in futures {
        dep.subscribe(&node);
    }
    Arc::clone(&node).input_settled(None, None);
    SharedFuture::of(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn set_then_get() {
        let (p, f) = channel();
        p.set(42);
        assert_eq!(*f.get(), 42);
        assert_eq!(*f.try_get().unwrap().unwrap(), 42);
        assert!(f.is_ready());
        assert!(!f.is_faulted());
    }

    #[test]
    fn try_get_before_set_is_none() {
        let (_p, f) = channel::<i32>();
        assert!(f.try_get().is_none());
        assert!(!f.is_ready());
    }

    #[test]
    fn ready_constructor() {
        let f = SharedFuture::ready("hi");
        assert_eq!(*f.get(), "hi");
    }

    #[test]
    fn faulted_constructor_and_error() {
        let f = SharedFuture::<i32>::faulted(TaskError::Cancelled);
        assert!(f.is_ready(), "faulted counts as settled");
        assert!(f.is_faulted());
        assert_eq!(f.error(), Some(TaskError::Cancelled));
        assert_eq!(f.wait(), Err(TaskError::Cancelled));
    }

    #[test]
    #[should_panic(expected = "fulfilled twice")]
    fn double_set_panics() {
        let (p, f) = channel();
        p.set(1);
        // A second promise to the same shared state can't be constructed
        // through the public API; exercise the internal double-settle
        // guard with a hand-made promise.
        let p2 = Promise {
            shared: Some(Arc::clone(&f.shared)),
        };
        p2.set(2);
    }

    #[test]
    fn dropped_promise_faults_with_broken_promise() {
        let (p, f) = channel::<u8>();
        drop(p);
        assert_eq!(f.error(), Some(TaskError::BrokenPromise));
        assert_eq!(f.wait(), Err(TaskError::BrokenPromise));
    }

    #[test]
    #[should_panic(expected = "faulted future")]
    fn get_on_faulted_future_panics() {
        let f = SharedFuture::<u8>::faulted(TaskError::BrokenPromise);
        let _ = f.get();
    }

    #[test]
    fn wait_timeout_expires_on_pending_future() {
        let (_p, f) = channel::<u8>();
        match f.wait_timeout(Duration::from_millis(5)) {
            Err(TaskError::Timeout { waited }) => {
                assert_eq!(waited, Duration::from_millis(5));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn wait_timeout_returns_value_when_set() {
        let (p, f) = channel();
        let t = std::thread::spawn(move || f.wait_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        p.set(3u8);
        assert_eq!(*t.join().unwrap().unwrap(), 3);
    }

    #[test]
    fn continuation_runs_on_set() {
        let (p, f) = channel();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        f.on_ready(move |v| {
            assert_eq!(**v, 9);
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        p.set(9);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn continuation_runs_immediately_if_ready() {
        let f = SharedFuture::ready(1);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        f.on_ready(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn on_ready_is_skipped_on_fault_but_on_settled_fires() {
        let (p, f) = channel::<u8>();
        let ready_hits = Arc::new(AtomicUsize::new(0));
        let settled_errs = Arc::new(AtomicUsize::new(0));
        let rh = Arc::clone(&ready_hits);
        f.on_ready(move |_| {
            rh.fetch_add(1, Ordering::SeqCst);
        });
        let se = Arc::clone(&settled_errs);
        f.on_settled(move |outcome| {
            if outcome.is_err() {
                se.fetch_add(1, Ordering::SeqCst);
            }
        });
        p.fail(TaskError::Cancelled);
        assert_eq!(ready_hits.load(Ordering::SeqCst), 0);
        assert_eq!(settled_errs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn multiple_consumers_share_value() {
        let (p, f) = channel();
        let f2 = f.clone();
        let f3 = f.clone();
        p.set(vec![1, 2, 3]);
        assert_eq!(*f.get(), vec![1, 2, 3]);
        assert!(Arc::ptr_eq(&f2.get(), &f3.get()));
    }

    #[test]
    fn get_blocks_until_set() {
        let (p, f) = channel();
        let t = std::thread::spawn(move || *f.get());
        std::thread::sleep(std::time::Duration::from_millis(10));
        p.set(7u32);
        assert_eq!(t.join().unwrap(), 7);
    }

    #[test]
    fn when_all_empty_is_immediately_ready() {
        let out = when_all::<i32>(&[]);
        assert!(out.is_ready());
        assert!(out.get().is_empty());
    }

    #[test]
    fn when_all_collects_in_order() {
        let (p1, f1) = channel();
        let (p2, f2) = channel();
        let (p3, f3) = channel();
        let out = when_all(&[f1, f2, f3]);
        p2.set(20);
        assert!(!out.is_ready());
        p3.set(30);
        p1.set(10);
        let v = out.get();
        let vals: Vec<i32> = v.iter().map(|a| **a).collect();
        assert_eq!(vals, vec![10, 20, 30]);
    }

    #[test]
    fn when_all_with_already_ready_inputs() {
        let f1 = SharedFuture::ready(1);
        let (p2, f2) = channel();
        let out = when_all(&[f1, f2]);
        assert!(!out.is_ready());
        p2.set(2);
        let vals: Vec<i32> = out.get().iter().map(|a| **a).collect();
        assert_eq!(vals, vec![1, 2]);
    }

    #[test]
    fn when_all_faults_on_first_faulted_input() {
        let (p1, f1) = channel::<i32>();
        let (p2, f2) = channel::<i32>();
        let out = when_all(&[f1, f2]);
        p1.fail(TaskError::Panicked {
            message: "boom".into(),
        });
        let err = out.error().expect("conjunction must fault");
        assert_eq!(
            err.root_cause(),
            &TaskError::Panicked {
                message: "boom".into()
            }
        );
        assert_eq!(err.chain_len(), 1);
        // A late sibling value must not double-settle.
        p2.set(2);
        assert!(out.is_faulted());
    }

    #[test]
    fn when_all_fault_after_values_still_faults() {
        let (p1, f1) = channel::<i32>();
        let (p2, f2) = channel::<i32>();
        let out = when_all(&[f1, f2]);
        p1.set(1);
        p2.fail(TaskError::Cancelled);
        assert!(out.is_faulted());
        assert_eq!(out.error().unwrap().root_cause(), &TaskError::Cancelled);
    }

    #[test]
    fn when_all_concurrent_setters() {
        let pairs: Vec<_> = (0..32).map(|_| channel::<usize>()).collect();
        let futures: Vec<_> = pairs.iter().map(|(_, f)| f.clone()).collect();
        let out = when_all(&futures);
        let handles: Vec<_> = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (p, _))| std::thread::spawn(move || p.set(i)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let vals: Vec<usize> = out.get().iter().map(|a| **a).collect();
        assert_eq!(vals, (0..32).collect::<Vec<_>>());
    }
}
