//! The pump thread both fleet roles run: one pass when something
//! happened, and one per fallback interval when nothing did.
//!
//! A pass is caused — a job was submitted, an ack or a completion came
//! in, a job settled — so the code that sees the cause [`Kick::kick`]s
//! the pump and the pass happens then, not at the next timer tick. The
//! interval remains for what has no event: lease expiry, retry
//! backoffs, the death sweep, a settle that bypasses the policy hook.

use grain_counters::sync::{Condvar, Mutex};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

#[derive(Default)]
struct KickState {
    kicked: bool,
    stopped: bool,
}

/// What a pump sleeps on. Owned apart from the state the pump works on,
/// so a sleeping pump keeps nothing else alive.
#[derive(Default)]
pub(crate) struct Kick {
    state: Mutex<KickState>,
    cv: Condvar,
}

impl Kick {
    /// Run a pass now; one that is already running is followed by
    /// another.
    pub(crate) fn kick(&self) {
        self.state.lock().kicked = true;
        self.cv.notify_one();
    }

    /// Sleep until kicked, or for `fallback`; `false` once stopped.
    fn wait(&self, fallback: Duration) -> bool {
        let mut st = self.state.lock();
        if !st.kicked && !st.stopped {
            self.cv.wait_for(&mut st, fallback);
        }
        st.kicked = false;
        !st.stopped
    }

    fn stop(&self) {
        self.state.lock().stopped = true;
        self.cv.notify_one();
    }
}

/// A running pump thread; dropping it stops and joins the thread at
/// once, wherever in its interval it is.
pub(crate) struct Pump {
    kick: Arc<Kick>,
    thread: Option<JoinHandle<()>>,
}

impl Pump {
    /// Run `pass` over `shared` on a thread called `name`, on every
    /// kick and every `fallback`, until the pump or `shared` is
    /// dropped. The thread holds `shared` only while a pass runs.
    pub(crate) fn spawn<S: Send + Sync + 'static>(
        name: String,
        fallback: Duration,
        kick: Arc<Kick>,
        shared: Weak<S>,
        pass: fn(&Arc<S>),
    ) -> Self {
        let thread = {
            let kick = Arc::clone(&kick);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || {
                    while kick.wait(fallback) {
                        let Some(shared) = shared.upgrade() else {
                            return;
                        };
                        pass(&shared);
                    }
                })
                .expect("failed to spawn fleet pump thread")
        };
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
