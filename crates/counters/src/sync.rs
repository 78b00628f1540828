//! Dependency-free synchronization primitives.
//!
//! Thin wrappers over `std::sync` exposing the ergonomic API the
//! workspace previously took from `parking_lot`: `lock()`/`read()`/
//! `write()` return guards directly (lock poisoning is recovered — a
//! panicked writer leaves counters merely stale, never unsound), and
//! [`Condvar::wait`]/[`Condvar::wait_for`] take the guard by `&mut`
//! reference. Every crate in the workspace synchronizes through this
//! module so tier-1 builds need nothing outside the standard library.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Duration;

/// Recover the guard (or value) from a possibly-poisoned lock result.
///
/// This is the single place the workspace converts `PoisonError` into a
/// usable guard: a panic inside a task must never cascade into
/// `lock().unwrap()` panics on every other thread touching shared
/// scheduler state. All wrappers in this module go through it, and code
/// that must use `std::sync` primitives directly (e.g. inside a
/// `Condvar::wait` loop) should call it instead of `.unwrap()`.
pub fn lock_or_recover<G>(result: Result<G, PoisonError<G>>) -> G {
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
/// most notifies in this workspace — every future settle — find nobody).
///
/// No wake-up is lost as long as the notifier publishes what the waiter
/// checks while holding the paired mutex, or takes that mutex after
/// publishing and before (or while) notifying. A waiter checks under the
/// mutex and is counted *before* the wait releases it, so a notifier
/// whose critical section comes first is seen by the waiter's check, and
/// one whose critical section comes second sees the waiter counted.
/// A notifier that touches neither could already lose its wake-up to a
/// waiter between its check and its wait; such sites wait with a timeout.
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

    /// Block until notified, releasing the guard while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard taken by condvar wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = lock_or_recover(self.inner.wait(inner));
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
    }

    /// Block until notified or `timeout` elapses. Returns `true` if the
    /// wait timed out.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
        let inner = guard.inner.take().expect("guard taken by condvar wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, res) = lock_or_recover(self.inner.wait_timeout(inner, timeout));
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        res.timed_out()
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
            while !*g {
                cv.wait(&mut g);
            }
            *g
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
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)));
    }

    #[test]
    fn notify_without_a_waiter_is_a_no_op() {
        let lock = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        // Nothing was banked: a wait that starts afterwards still blocks.
        let mut g = lock.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)));
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn waiters_are_counted_only_while_they_wait() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut g = lock.lock();
            while !*g {
                cv.wait(&mut g);
            }
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
