//! Dependency-free synchronization primitives.
//!
//! Thin wrappers over `std::sync` exposing the ergonomic API the
//! workspace previously took from `parking_lot`: `lock()`/`read()`/
//! `write()` return guards directly (lock poisoning is recovered — a
//! panicked writer leaves counters merely stale, never unsound), and
//! [`Condvar::wait_until`], the one wait, takes the guard by `&mut`
//! reference. Every crate in the workspace synchronizes through this
//! module so tier-1 builds need nothing outside the standard library,
//! and every ticker is its one timer primitive, [`Pump`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Recover the guard (or value) from a possibly-poisoned lock result.
///
/// This is the single place the workspace converts `PoisonError` into a
/// usable guard: a panic inside a task must never cascade into
/// `lock().unwrap()` panics on every other thread touching shared
/// scheduler state. All wrappers in this module go through it.
fn lock_or_recover<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Mutual exclusion, recovering from poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar` can temporarily take the inner guard out
    // (std's `wait` consumes the guard and returns it back).
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// A new mutex around `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// The value, taking the mutex apart: no lock is taken, since no
    /// one else can hold it.
    pub fn into_inner(self) -> T {
        lock_or_recover(self.0.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(lock_or_recover(self.0.lock())),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken by condvar wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken by condvar wait")
    }
}

/// Condition variable pairing with [`Mutex`], with a waiter count so a
/// notify that nobody is waiting for costs one atomic load instead of a
/// `FUTEX_WAKE` system call (std's futex condvar has no such count, and
/// most notifies in this workspace find nobody).
///
/// No wake-up is lost as long as the notifier publishes what the waiter
/// checks while holding the paired mutex, or takes that mutex after
/// publishing; either way it may notify inside that critical section or
/// after it. A waiter checks under the mutex and is counted *before* the
/// wait releases it, so a notifier whose critical section comes first is
/// seen by the waiter's check, and one whose critical section comes
/// second sees the waiter counted. A notifier that touches neither could
/// already lose its wake-up to a waiter between its check and its wait;
/// such sites wait with a timeout.
///
/// Notify after the guard drops where the path is hot: on one CPU a
/// thread woken while its waker still holds the mutex preempts the
/// waker, blocks on that mutex and switches back, two context switches
/// more per wake.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads between the start of a wait and re-acquiring the mutex
    /// after it. Only ever too high (a woken waiter not yet rescheduled),
    /// which costs a spare system call, never a lost wake-up.
    waiters: AtomicUsize,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Wake one waiter, if there is one.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    /// Wake every waiter, if there is one.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }

    /// Block until `done` holds for the guarded value, or until
    /// `deadline` passes (`None`: no deadline), releasing the guard while
    /// asleep. `done` is checked first and after every wake-up, spurious
    /// ones included, under the mutex. Returns whether it holds: `false`
    /// only once the deadline has passed with it false. The one wait of
    /// the workspace; a call that may pass no deadline says why on the
    /// call, and `scripts/verify.sh` lists where those calls are.
    #[allow(
        clippy::disallowed_methods,
        reason = "the condvar wait every other wait in the workspace goes through"
    )]
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Option<Instant>,
        mut done: impl FnMut(&mut T) -> bool,
    ) -> bool {
        while !done(guard) {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return false;
            }
            let inner = guard.inner.take().expect("guard taken by condvar wait");
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let inner = match left {
                None => lock_or_recover(self.inner.wait(inner)),
                Some(left) => lock_or_recover(self.inner.wait_timeout(inner, left)).0,
            };
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            guard.inner = Some(inner);
        }
        true
    }
}

/// The deadline `timeout` from now; `None`, no deadline, for a timeout
/// that reaches past the clock's range (`Duration::MAX`, say). Every
/// timeout of the workspace becomes a deadline here.
pub fn deadline_after(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

/// Reader-writer lock, recovering from poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new lock around `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        lock_or_recover(self.0.read())
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        lock_or_recover(self.0.write())
    }
}

/// What a [`Pump`] thread sleeps on. Owned apart from the state the pump
/// works on, so a sleeping pump keeps nothing else alive.
#[derive(Default)]
pub struct Kick {
    state: Mutex<KickState>,
    cv: Condvar,
}

#[derive(Default)]
struct KickState {
    stopped: bool,
    /// The next pass: while the thread sleeps, its deadline; during a
    /// pass, the earliest [`Kick::kick_by`] since, which caps the pass's.
    due: Option<Instant>,
}

impl Kick {
    /// Run a pass now; one that is already running is followed by
    /// another.
    pub fn kick(&self) {
        self.kick_by(Instant::now());
    }

    /// Make sure a pass runs by `at`, never later than it would have.
    /// Call it after publishing the timer `at` belongs to, so the pass
    /// that runs by then sees it.
    pub fn kick_by(&self, at: Instant) {
        let mut st = self.state.lock();
        if st.due.is_none_or(|due| due > at) {
            st.due = Some(at);
            drop(st);
            self.cv.notify_one();
        }
    }

    /// Sleep until due, at the latest `due`; `false` once stopped.
    fn wait(&self, due: Option<Instant>) -> bool {
        let mut st = self.state.lock();
        if let Some(due) = due {
            st.due = Some(st.due.map_or(due, |d| d.min(due)));
        }
        while !st.stopped {
            let due = st.due;
            if due.is_some_and(|due| due <= Instant::now()) {
                st.due = None;
                return true;
            }
            // Unbounded: a pump with nothing due sleeps until kicked or
            // stopped, both of which notify under the lock.
            self.cv
                .wait_until(&mut st, due, |st| st.stopped || st.due != due);
        }
        false
    }

    fn stop(&self) {
        self.state.lock().stopped = true;
        self.cv.notify_one();
    }
}

/// A thread that runs a pass over some shared state when kicked or when
/// the deadline the last pass returned comes (with none, only a kick
/// wakes it). Dropping the pump stops and joins the thread at once.
pub struct Pump {
    kick: Arc<Kick>,
    thread: Option<JoinHandle<()>>,
}

impl Pump {
    /// Run `pass` over `shared` on a thread called `name`, first on a
    /// kick of `kick`, until the pump or `shared` is dropped. The thread
    /// holds `shared` only while a pass runs.
    pub fn spawn<S: Send + Sync + 'static>(
        name: String,
        kick: Arc<Kick>,
        shared: Weak<S>,
        mut pass: impl FnMut(&Arc<S>) -> Option<Instant> + Send + 'static,
    ) -> Self {
        let sleeps_on = Arc::clone(&kick);
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let mut due = None;
                while sleeps_on.wait(due) {
                    let Some(shared) = shared.upgrade() else {
                        return;
                    };
                    due = pass(&shared);
                }
            })
            .expect("failed to spawn pump thread");
        Self {
            kick,
            thread: Some(thread),
        }
    }
}

impl Drop for Pump {
    fn drop(&mut self) {
        self.kick.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a test paces its scenario with sleeps; the rule is for product code"
)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn mutex_recovers_from_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        *m.lock() = 7; // must not panic
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut g = lock.lock();
            cv.wait_until(&mut g, None, |ready| *ready)
        });
        std::thread::sleep(Duration::from_millis(10));
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        assert!(t.join().unwrap());
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let lock = Mutex::new(());
        let cv = Condvar::new();
        let mut g = lock.lock();
        let deadline = deadline_after(Duration::from_millis(5));
        assert!(!cv.wait_until(&mut g, deadline, |_| false));
        assert!(Instant::now() >= deadline.unwrap());
    }

    #[test]
    fn notify_without_a_waiter_is_a_no_op() {
        let lock = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        // Nothing was banked: a wait that starts afterwards still blocks.
        let mut g = lock.lock();
        assert!(!cv.wait_until(&mut g, deadline_after(Duration::from_millis(5)), |_| false));
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn waiters_are_counted_only_while_they_wait() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut g = lock.lock();
            cv.wait_until(&mut g, None, |ready| *ready);
        });
        let (lock, cv) = &*pair;
        // Counted before the wait releases the mutex: once we hold the
        // mutex and see the count, the notify below cannot be skipped.
        loop {
            let _g = lock.lock();
            if cv.waiters.load(Ordering::SeqCst) == 1 {
                break;
            }
        }
        *lock.lock() = true;
        cv.notify_all();
        t.join().expect("waiter panicked");
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    /// A pump with nothing due sleeps until kicked; a pass's deadline
    /// brings the next pass with no kick; `kick_by` a later instant
    /// leaves a sleeping pump alone, an earlier one brings its pass
    /// forward to that instant.
    #[test]
    fn a_pump_runs_on_kicks_and_on_the_deadlines_its_passes_return() {
        struct Passes {
            count: AtomicUsize,
            next: Mutex<Option<Duration>>,
        }
        let passes = Arc::new(Passes {
            count: AtomicUsize::new(0),
            next: Mutex::new(None),
        });
        let kick: Arc<Kick> = Arc::default();
        let _pump = Pump::spawn(
            "pump-test".into(),
            Arc::clone(&kick),
            Arc::downgrade(&passes),
            |p: &Arc<Passes>| {
                p.count.fetch_add(1, Ordering::SeqCst);
                p.next.lock().take().map(|d| Instant::now() + d)
            },
        );
        let count = || passes.count.load(Ordering::SeqCst);
        let settle = |n: usize| {
            let t0 = Instant::now();
            while count() < n && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(count(), n);
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count(), 0, "no pass before the first kick");
        *passes.next.lock() = Some(Duration::from_millis(20));
        kick.kick();
        // The kicked pass, then the one its deadline asked for.
        settle(2);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(count(), 2, "the second pass set no deadline");

        *passes.next.lock() = Some(Duration::from_secs(3600));
        kick.kick();
        settle(3);
        kick.kick_by(Instant::now() + Duration::from_secs(7200));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count(), 3, "a later timer leaves the pump asleep");
        kick.kick_by(Instant::now() + Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(count(), 3, "an earlier timer is not a kick");
        settle(4);
    }

    #[test]
    fn dropping_a_pump_joins_its_sleeping_thread() {
        let shared = Arc::new(());
        let kick: Arc<Kick> = Arc::default();
        let pump = Pump::spawn(
            "pump-test".into(),
            kick,
            Arc::downgrade(&shared),
            |_: &Arc<()>| None,
        );
        let t0 = Instant::now();
        drop(pump);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn rwlock_many_readers_one_writer() {
        let l = RwLock::new(5);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 10);
        }
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }
}
