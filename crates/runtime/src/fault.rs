//! The task failure model: error values and panic capture.
//!
//! A panicking task must terminate *only itself*. The worker loop wraps
//! every phase in `catch_unwind`; the panic becomes a [`TaskError`] that
//! settles the task's promise, faults its [`crate::TaskGroup`], and
//! propagates along `when_all`/`dataflow` edges as a
//! [`TaskError::Dependency`] cause chain. Blocking consumers keep the
//! historical panic-on-error `get()`, while `try_get`/`wait_timeout`
//! expose the error as a value.
//!
//! Panic *messages* travel out-of-band: promises are usually dropped mid-
//! unwind (deep inside the panicking closure's frame), where the payload
//! is no longer reachable. A process-wide panic hook stores the rendered
//! message in a thread-local while a worker phase is on the stack, so
//! [`crate::Promise`]'s drop glue — and the worker after `catch_unwind`
//! returns — can attach the real message instead of a placeholder.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;
use std::sync::Once;
use std::time::Duration;

/// Why a future settled without a value. Cheap to clone (the cause chain
/// is `Arc`-shared) so one fault can fan out to many dependents.
#[derive(Debug, Clone)]
pub enum TaskError {
    /// The task's body panicked; the panic was isolated to the task.
    Panicked {
        /// The rendered panic message.
        message: String,
    },
    /// A dependency of this task faulted; `cause` is the upstream error.
    Dependency {
        /// The upstream failure this task inherited.
        cause: Arc<TaskError>,
    },
    /// The task was skipped because its group was cancelled.
    Cancelled,
    /// The promise was dropped without being set — the value can never
    /// arrive (e.g. a producing task was lost).
    BrokenPromise,
    /// A bounded wait elapsed before the future settled.
    Timeout {
        /// How long the caller waited.
        waited: Duration,
    },
    /// A remote call failed at the protocol level — the action was not
    /// registered on the destination, or arguments/results failed to
    /// decode. Distinct from [`TaskError::Panicked`], which a remote
    /// *task* fault maps back to: `Remote` means the call never ran (or
    /// its result never materialized) as a task at all.
    Remote {
        /// Locality the call was addressed to.
        locality: usize,
        /// What went wrong, as reported by the parcel layer.
        message: String,
    },
    /// The connection to a locality was lost (peer died or was shut
    /// down) before its reply arrived. Every future still outstanding
    /// against that locality settles with this error — a dead peer must
    /// never hang `wait_all`.
    Disconnected {
        /// The locality that went away.
        locality: usize,
    },
}

impl TaskError {
    /// Walk the [`TaskError::Dependency`] chain to the originating error.
    pub fn root_cause(&self) -> &TaskError {
        let mut e = self;
        while let TaskError::Dependency { cause } = e {
            e = cause;
        }
        e
    }

    /// Depth of the dependency chain (0 for a root error).
    pub fn chain_len(&self) -> usize {
        let mut n = 0;
        let mut e = self;
        while let TaskError::Dependency { cause } = e {
            n += 1;
            e = cause;
        }
        n
    }
}

impl PartialEq for TaskError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (TaskError::Panicked { message: a }, TaskError::Panicked { message: b }) => a == b,
            (TaskError::Dependency { cause: a }, TaskError::Dependency { cause: b }) => a == b,
            (TaskError::Cancelled, TaskError::Cancelled) => true,
            (TaskError::BrokenPromise, TaskError::BrokenPromise) => true,
            (TaskError::Timeout { waited: a }, TaskError::Timeout { waited: b }) => a == b,
            (
                TaskError::Remote {
                    locality: a,
                    message: am,
                },
                TaskError::Remote {
                    locality: b,
                    message: bm,
                },
            ) => a == b && am == bm,
            (TaskError::Disconnected { locality: a }, TaskError::Disconnected { locality: b }) => {
                a == b
            }
            _ => false,
        }
    }
}

impl Eq for TaskError {}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Panicked { message } => write!(f, "task panicked: {message}"),
            TaskError::Dependency { cause } => write!(f, "dependency faulted: {cause}"),
            TaskError::Cancelled => write!(f, "task cancelled before running"),
            TaskError::BrokenPromise => write!(f, "promise dropped without a value"),
            TaskError::Timeout { waited } => write!(f, "timed out after {waited:?}"),
            TaskError::Remote { locality, message } => {
                write!(f, "remote call failed on locality#{locality}: {message}")
            }
            TaskError::Disconnected { locality } => {
                write!(
                    f,
                    "connection to locality#{locality} lost before the reply arrived"
                )
            }
        }
    }
}

impl std::error::Error for TaskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TaskError::Dependency { cause } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

thread_local! {
    /// Message of the most recent panic raised while a worker phase was
    /// executing on this thread.
    static CAPTURED_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
    /// `true` while a worker phase is on this thread's stack (set by
    /// [`PhaseScope`]). Gates the panic hook: panics outside task phases
    /// keep the default behaviour (message printed to stderr).
    static IN_PHASE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Error to use when a promise is dropped unfulfilled on this thread
    /// (set around intentional drops: cancellation skips, post-panic
    /// frame teardown).
    static DROP_REASON: RefCell<Option<TaskError>> = const { RefCell::new(None) };
}

/// Install the process-wide panic hook that captures messages of panics
/// raised inside worker phases (idempotent; chains to the previous hook
/// for all other panics).
pub(crate) fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_PHASE.with(|p| p.get()) {
                let message = payload_message(info.payload());
                CAPTURED_PANIC.with(|c| *c.borrow_mut() = Some(message));
                // Swallow the default stderr report: an isolated task
                // panic is an error *value*, not a crash.
            } else {
                previous(info);
            }
        }));
    });
}

/// Render a panic payload (`&str` / `String` / other) to a message.
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// RAII marker: a worker phase is executing on this thread. While alive,
/// the panic hook captures (and silences) panic messages.
pub(crate) struct PhaseScope {
    _private: (),
}

impl PhaseScope {
    pub(crate) fn enter() -> Self {
        IN_PHASE.with(|p| p.set(true));
        CAPTURED_PANIC.with(|c| c.borrow_mut().take());
        Self { _private: () }
    }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        IN_PHASE.with(|p| p.set(false));
    }
}

/// The message captured by the panic hook for the current phase, if any.
/// Peeks (does not clear): several promises may be dropped during one
/// unwind and each should see the same message.
pub(crate) fn captured_panic() -> Option<String> {
    CAPTURED_PANIC.with(|c| c.borrow().clone())
}

/// Take and clear the captured message (end-of-phase, worker side).
pub(crate) fn take_captured_panic() -> Option<String> {
    CAPTURED_PANIC.with(|c| c.borrow_mut().take())
}

/// Run `f` with `reason` as the ambient error for promises dropped
/// unfulfilled on this thread (used when a task frame is discarded
/// deliberately: cancellation skip, post-panic teardown).
pub(crate) fn with_drop_reason<R>(reason: TaskError, f: impl FnOnce() -> R) -> R {
    DROP_REASON.with(|r| *r.borrow_mut() = Some(reason));
    let out = f();
    DROP_REASON.with(|r| r.borrow_mut().take());
    out
}

/// The ambient drop reason, if any (peeked, not cleared — one teardown
/// may drop several promises).
pub(crate) fn drop_reason() -> Option<TaskError> {
    DROP_REASON.with(|r| r.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_cause_unwraps_dependency_chain() {
        let root = TaskError::Panicked {
            message: "boom".into(),
        };
        let mid = TaskError::Dependency {
            cause: Arc::new(root.clone()),
        };
        let top = TaskError::Dependency {
            cause: Arc::new(mid),
        };
        assert_eq!(top.chain_len(), 2);
        assert_eq!(top.root_cause(), &root);
        assert_eq!(root.chain_len(), 0);
    }

    #[test]
    fn display_includes_cause() {
        let e = TaskError::Dependency {
            cause: Arc::new(TaskError::Panicked {
                message: "div by zero".into(),
            }),
        };
        let s = e.to_string();
        assert!(s.contains("dependency faulted"), "{s}");
        assert!(s.contains("div by zero"), "{s}");
    }

    #[test]
    fn error_source_follows_chain() {
        use std::error::Error;
        let e = TaskError::Dependency {
            cause: Arc::new(TaskError::BrokenPromise),
        };
        assert!(e.source().is_some());
        assert!(TaskError::BrokenPromise.source().is_none());
    }

    #[test]
    fn payload_message_handles_both_string_kinds() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(payload_message(s.as_ref()), "static");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(payload_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(payload_message(s.as_ref()), "<non-string panic payload>");
    }
}
