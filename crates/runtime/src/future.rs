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
//! * `DepNode` (crate-internal) — the one dependency node behind both
//!   [`when_all`] and the runtime's `dataflow`: it registers itself on
//!   every input, counts them down, and fires exactly once.
//!
//! Continuations run inline on the thread that settles the promise,
//! which on a worker means "as part of the completing task's phase" —
//! the same attribution HPX uses for cheap continuations.

use crate::fault::{self, TaskError};
use grain_counters::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
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

enum State<T> {
    Empty(Vec<Continuation<T>>),
    Ready(Arc<T>),
    Faulted(TaskError),
}

impl<T> State<T> {
    /// The settled outcome, `None` while pending.
    fn outcome(&self) -> Option<Settled<T>> {
        match self {
            State::Ready(v) => Some(Ok(Arc::clone(v))),
            State::Faulted(e) => Some(Err(e.clone())),
            State::Empty(_) => None,
        }
    }
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    /// Settle the future (value or error), waking blocked waiters and
    /// running all attached continuations inline on this thread.
    ///
    /// # Panics
    /// Panics if the future was already settled.
    fn settle(&self, outcome: Settled<T>) {
        let new_state = match &outcome {
            Ok(v) => State::Ready(Arc::clone(v)),
            Err(e) => State::Faulted(e.clone()),
        };
        let continuations = {
            let mut st = self.state.lock();
            match std::mem::replace(&mut *st, new_state) {
                State::Empty(conts) => conts,
                State::Ready(_) | State::Faulted(_) => panic!("promise fulfilled twice"),
            }
        };
        self.ready.notify_all();
        for c in continuations {
            match c {
                Continuation::Callback(f) => f(&outcome),
                Continuation::Node(node) => node.input_settled(outcome.as_ref().err()),
            }
        }
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
    shared: Option<Arc<Shared<T>>>,
}

/// The read end: shareable, clonable, multi-consumer.
pub struct SharedFuture<T> {
    shared: Arc<Shared<T>>,
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
    let shared = Arc::new(Shared {
        state: Mutex::new(State::Empty(Vec::new())),
        ready: Condvar::new(),
    });
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
        shared.settle(Ok(Arc::new(value)));
    }

    /// Publish an error instead of a value. Waiters and continuations
    /// observe `Err(error)`.
    ///
    /// # Panics
    /// Panics if the promise was already fulfilled.
    pub fn fail(mut self, error: TaskError) {
        let shared = self.shared.take().expect("promise already consumed");
        shared.settle(Err(error));
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
        shared.settle(Err(error));
    }
}

impl<T> SharedFuture<T> {
    /// A future that is already fulfilled ("make_ready_future").
    pub fn ready(value: T) -> Self {
        let (p, f) = channel();
        p.set(value);
        f
    }

    /// A future that is already faulted with `error`.
    pub fn faulted(error: TaskError) -> Self {
        let (p, f) = channel();
        p.fail(error);
        f
    }

    /// The settled outcome, if the future has settled: `Some(Ok(value))`
    /// once ready, `Some(Err(error))` once faulted, `None` while pending.
    pub fn try_get(&self) -> Option<Settled<T>> {
        self.shared.state.lock().outcome()
    }

    /// True once the future has settled (ready *or* faulted) — i.e. a
    /// suspended task waiting on it would be resumed.
    pub fn is_ready(&self) -> bool {
        !matches!(&*self.shared.state.lock(), State::Empty(_))
    }

    /// True if the future settled with an error.
    pub fn is_faulted(&self) -> bool {
        matches!(&*self.shared.state.lock(), State::Faulted(_))
    }

    /// The error the future faulted with, if it did.
    pub fn error(&self) -> Option<TaskError> {
        match self.try_get() {
            Some(Err(e)) => Some(e),
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
        let mut st = self.shared.state.lock();
        loop {
            match st.outcome() {
                Some(outcome) => return outcome,
                None => self.shared.ready.wait(&mut st),
            }
        }
    }

    /// Block until the future settles or `timeout` elapses. Returns
    /// `Err(TaskError::Timeout)` on expiry — the only blocking join safe
    /// against a stalled producer.
    pub fn wait_timeout(&self, timeout: Duration) -> Settled<T> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        loop {
            if let Some(outcome) = st.outcome() {
                return outcome;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TaskError::Timeout { waited: timeout });
            }
            self.shared.ready.wait_for(&mut st, deadline - now);
        }
    }

    /// Attach a continuation observing the settled outcome: runs
    /// immediately (inline) if already settled, otherwise at settle time
    /// on the settling thread.
    pub fn on_settled(&self, f: impl FnOnce(&Settled<T>) + Send + 'static) {
        let outcome = {
            let mut st = self.shared.state.lock();
            if let State::Empty(conts) = &mut *st {
                conts.push(Continuation::Callback(Box::new(f)));
                return;
            }
            st.outcome().expect("a non-empty state is settled")
        };
        f(&outcome);
    }

    /// Count this future among `node`'s inputs: `node` hears of the
    /// settle at settle time, or right here if it already happened.
    fn subscribe(&self, node: &Arc<dyn Waiter>) {
        let fault = {
            let mut st = self.shared.state.lock();
            match &mut *st {
                State::Empty(conts) => {
                    conts.push(Continuation::Node(Arc::clone(node)));
                    return;
                }
                State::Ready(_) => None,
                State::Faulted(e) => Some(e.clone()),
            }
        };
        node.input_settled(fault.as_ref());
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

/// The type-erased face of a [`DepNode`]: what its inputs and its task
/// group hold, and all they may tell it.
pub(crate) trait Waiter: Send + Sync {
    /// One input settled, with `fault` if it faulted.
    fn input_settled(&self, fault: Option<&TaskError>);
    /// The node's group was cancelled while the node may still be dormant.
    fn cancel(&self);
}

/// Why a [`DepNode`] fired.
pub(crate) enum Fired<T> {
    /// Every input is ready; their values, in input order.
    Ready(Vec<Arc<T>>),
    /// The first input to fault, wrapped once in
    /// [`TaskError::Dependency`]. Siblings may still be pending.
    Faulted(TaskError),
    /// [`Waiter::cancel`] came first.
    Cancelled,
}

/// One node of the dependency graph: waits for every one of its inputs,
/// then hands their values to `fire` — or hands it the first fault, or
/// the cancellation, whichever comes first. `fire` runs exactly once, on
/// the thread that brings the deciding event.
///
/// The node is owned by its still-pending inputs (each holds one `Arc` in
/// its continuation list) and so is freed when the last of them settles;
/// nothing else keeps it alive, which is why a task group holds its
/// dormant nodes weakly.
pub(crate) struct DepNode<T, F> {
    /// Inputs yet to settle, plus one held by [`DepNode::join`] so a node
    /// whose inputs are all settled already cannot fire mid-loop.
    pending: AtomicUsize,
    /// The inputs and the fire step. Whichever event fires the node takes
    /// both, so a fired node holds nothing, however long a pending input
    /// keeps the node itself alive.
    armed: Mutex<Option<(Vec<SharedFuture<T>>, F)>>,
}

impl<T, F> DepNode<T, F>
where
    T: Send + Sync + 'static,
    F: FnOnce(Fired<T>) + Send + 'static,
{
    /// A node over `deps`, registered on each of them. It may have fired
    /// by the time this returns.
    pub(crate) fn join(deps: &[SharedFuture<T>], fire: F) -> Arc<Self> {
        let node = Arc::new(Self {
            pending: AtomicUsize::new(deps.len() + 1),
            armed: Mutex::new(Some((deps.to_vec(), fire))),
        });
        let waiter: Arc<dyn Waiter> = Arc::clone(&node) as _;
        for dep in deps {
            dep.subscribe(&waiter);
        }
        node.input_settled(None);
        node
    }

    /// Has the node yet to fire?
    pub(crate) fn is_dormant(&self) -> bool {
        self.armed.lock().is_some()
    }

    fn fire(&self, why: impl FnOnce(Vec<SharedFuture<T>>) -> Fired<T>) {
        let armed = self.armed.lock().take();
        if let Some((deps, fire)) = armed {
            fire(why(deps));
        }
    }
}

impl<T, F> Waiter for DepNode<T, F>
where
    T: Send + Sync + 'static,
    F: FnOnce(Fired<T>) + Send + 'static,
{
    fn input_settled(&self, fault: Option<&TaskError>) {
        if let Some(e) = fault {
            // A faulted input never counts down, so the count cannot
            // reach zero afterwards: `Ready` means every input is ready.
            self.fire(|_| {
                Fired::Faulted(TaskError::Dependency {
                    cause: Arc::new(e.clone()),
                })
            });
        } else if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.fire(|deps| {
                // Same element size in and out: `collect` reuses the
                // input list's allocation for the values.
                let values = deps.into_iter().map(|dep| match dep.try_get() {
                    Some(Ok(v)) => v,
                    _ => unreachable!("a dependency node counted down an input that is not ready"),
                });
                Fired::Ready(values.collect())
            });
        }
    }

    fn cancel(&self) {
        self.fire(|_| Fired::Cancelled);
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
    let (promise, out) = channel();
    DepNode::join(futures, move |fired| match fired {
        Fired::Ready(values) => promise.set(values),
        Fired::Faulted(e) => promise.fail(e),
        // Unreachable: nothing cancels a node that no group knows of.
        Fired::Cancelled => promise.fail(TaskError::Cancelled),
    });
    out
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
