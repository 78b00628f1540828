//! The task ("HPX-thread") model.
//!
//! Tasks are first-class objects with an id, a priority and a lifecycle of
//! five states, exactly the ones named in §I-B of the paper:
//!
//! ```text
//! staged ──convert──▶ pending ──dispatch──▶ active ──▶ terminated
//!                        ▲                    │
//!                        └──── resume ── suspended
//! ```
//!
//! A *staged* task is a lightweight description sitting in a staged queue
//! ("easily created and can be moved to queues associated with other
//! memory domains with only very small associated memory costs"). The
//! scheduler *converts* it — allocating its execution frame — into a
//! *pending* task ready to run. A running (*active*) task executes one
//! *thread phase* per activation: it may complete, yield (cooperatively
//! end its phase and go back to pending), or suspend on a future and be
//! resumed later. The scheduler is cooperative: nothing preempts an
//! active task.

use crate::fault::{self, TaskError};
use crate::runtime::TaskContext;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Unique task identifier ("immutable name in the global address space").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Monotone task-id allocator.
#[derive(Debug, Default)]
pub struct TaskIdAllocator {
    next: AtomicU64,
}

impl TaskIdAllocator {
    /// Fresh allocator starting at id 0.
    pub const fn new() -> Self {
        Self {
            next: AtomicU64::new(0),
        }
    }

    /// Allocate the next id.
    pub fn allocate(&self) -> TaskId {
        TaskId(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

/// Scheduling priority. The Priority Local scheduler keeps dedicated
/// high-priority dual queues, per-worker normal queues, and one
/// low-priority queue "for threads that will be scheduled only when all
/// other work has been done" (§I-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Runs before any normal work.
    High,
    /// Default.
    #[default]
    Normal,
    /// Runs only when nothing else is available.
    Low,
}

/// Task lifecycle states (§I-B). Kept on the task for introspection and
/// asserted on every transition in debug builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Created as a description, not yet given an execution frame.
    Staged,
    /// Runnable, waiting in a pending queue.
    Pending,
    /// Currently executing a phase on some worker.
    Active,
    /// Waiting on a future; will be resumed into `Pending`.
    Suspended,
    /// Finished.
    Terminated,
    /// Terminal: the task's body panicked and the panic was isolated
    /// (the worker survived; the task's promise faulted).
    Faulted,
}

/// What a task phase decided to do next.
pub enum Poll {
    /// The task is done; its `n`-th phase was its last.
    Complete,
    /// Cooperatively end this phase; requeue as pending immediately.
    Yield,
    /// End this phase and wait; the task context has registered a resumer
    /// via [`crate::runtime::TaskContext::suspend_until`]. Returning
    /// `Suspend` without such a registration is a programming error and
    /// panics.
    Suspend,
}

/// The queue-entry face of a task node (`async_call`, `dataflow`): the
/// node holds its own closure and its output future, so the entry is one
/// more reference to it and nothing is boxed per task.
pub(crate) trait Runnable: Send + Sync {
    /// Run the node's closure, then settle its output with the result as
    /// the last act of the phase.
    fn run(&self, ctx: &mut TaskContext<'_>);
    /// The closure will not run, or unwound: release what the node holds
    /// and settle its output with `error` unless it is settled already.
    fn fail(&self, error: TaskError);
}

/// What a task runs.
pub(crate) enum Body {
    /// A boxed closure, invoked once per phase.
    Phased(Box<dyn FnMut(&mut TaskContext<'_>) -> Poll + Send>),
    /// A task node, run once; `None` once it has run. An entry dropped
    /// with its node still in it (a queue torn down at shutdown) fails
    /// the node's output, so no consumer is stranded.
    Node(Option<Arc<dyn Runnable>>),
}

impl Body {
    /// Run one phase.
    pub(crate) fn run(&mut self, ctx: &mut TaskContext<'_>) -> Poll {
        match self {
            Body::Phased(body) => body(ctx),
            Body::Node(node) => {
                node.as_ref().expect("a task node runs once").run(ctx);
                // Not reached by an unwind: `abandon` then finds the node.
                *node = None;
                Poll::Complete
            }
        }
    }

    /// Dispose of a body that will not run (again): a promise held by a
    /// boxed closure and a node's output both fault with `error`.
    pub(crate) fn abandon(mut self, error: TaskError) {
        match &mut self {
            Body::Node(node) => {
                if let Some(node) = node.take() {
                    node.fail(error);
                }
            }
            Body::Phased(_) => fault::with_drop_reason(error, move || drop(self)),
        }
    }
}

impl Drop for Body {
    fn drop(&mut self) {
        if let Body::Node(Some(node)) = self {
            node.fail(TaskError::BrokenPromise);
        }
    }
}

/// A staged task: the cheap descriptor placed in staged queues by
/// `spawn`. Conversion (see [`Task::convert`]) turns it into a runnable
/// [`Task`] with an execution frame.
pub struct StagedTask {
    /// Task id, assigned at spawn time.
    pub id: TaskId,
    /// Scheduling priority.
    pub priority: Priority,
    /// The body to run.
    pub(crate) body: Body,
    /// Group membership (None: ungrouped). The group's in-flight count is
    /// managed by the spawn paths, not by this struct.
    pub group: Option<Arc<crate::group::TaskGroup>>,
}

impl StagedTask {
    /// Create a staged one-phase task from a `FnOnce`.
    pub fn once(
        id: TaskId,
        priority: Priority,
        f: impl FnOnce(&mut TaskContext<'_>) + Send + 'static,
    ) -> Self {
        let mut f = Some(f);
        Self {
            id,
            priority,
            body: Body::Phased(Box::new(move |ctx| {
                let f = f.take().expect("one-phase task polled twice");
                f(ctx);
                Poll::Complete
            })),
            group: None,
        }
    }

    /// Create a staged multi-phase task from a `FnMut` returning [`Poll`].
    pub fn phased(
        id: TaskId,
        priority: Priority,
        body: impl FnMut(&mut TaskContext<'_>) -> Poll + Send + 'static,
    ) -> Self {
        Self {
            id,
            priority,
            body: Body::Phased(Box::new(body)),
            group: None,
        }
    }

    /// The queue entry of a task node whose inputs are ready. The task
    /// takes over the reservation the node made in `group`.
    pub(crate) fn node(
        id: TaskId,
        priority: Priority,
        node: Arc<dyn Runnable>,
        group: Option<Arc<crate::group::TaskGroup>>,
    ) -> Self {
        Self {
            id,
            priority,
            body: Body::Node(Some(node)),
            group,
        }
    }

    /// Attach group membership (builder-style).
    pub fn with_group(mut self, group: Option<Arc<crate::group::TaskGroup>>) -> Self {
        self.group = group;
        self
    }
}

impl fmt::Debug for StagedTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StagedTask")
            .field("id", &self.id)
            .field("priority", &self.priority)
            .finish_non_exhaustive()
    }
}

/// A runnable task: a staged description plus its execution frame.
///
/// The frame is what HPX allocates at conversion time (context +
/// registers); here it carries the per-task bookkeeping that exists only
/// once the task can actually run.
pub struct Task {
    /// Task id.
    pub id: TaskId,
    /// Scheduling priority.
    pub priority: Priority,
    /// Current lifecycle state.
    pub state: TaskState,
    /// Completed phases so far.
    pub phases: u64,
    /// Total execution (closure) nanoseconds accumulated over phases.
    pub exec_ns: u64,
    /// The body.
    pub(crate) body: Body,
    /// Group membership (None: ungrouped).
    pub group: Option<Arc<crate::group::TaskGroup>>,
    /// Where the task was when the converting worker found it — set at
    /// conversion time and consumed when the *converting* worker
    /// dispatches the task from its own pending queue. It must ride on
    /// the task itself (not on the converter's stack) because a third
    /// worker can raid the pending queue between conversion and
    /// dispatch; the raider discards the note and reports the
    /// pending-queue steal it actually performed. `None` for tasks
    /// enqueued directly as pending (resumes, yields).
    pub origin: Option<crate::scheduler::Provenance>,
}

impl Task {
    /// Convert a staged description into a runnable task (the
    /// staged→pending transition; the caller must then enqueue it).
    pub fn convert(staged: StagedTask) -> Self {
        Self {
            id: staged.id,
            priority: staged.priority,
            state: TaskState::Pending,
            phases: 0,
            exec_ns: 0,
            body: staged.body,
            group: staged.group,
            origin: None,
        }
    }

    /// Transition to a new state, asserting legality in debug builds.
    pub fn transition(&mut self, to: TaskState) {
        debug_assert!(
            matches!(
                (self.state, to),
                (TaskState::Pending, TaskState::Active)
                    | (TaskState::Active, TaskState::Pending)
                    | (TaskState::Active, TaskState::Suspended)
                    | (TaskState::Active, TaskState::Terminated)
                    | (TaskState::Active, TaskState::Faulted)
                    | (TaskState::Suspended, TaskState::Pending)
            ),
            "illegal task state transition {:?} → {:?}",
            self.state,
            to
        );
        self.state = to;
    }
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("id", &self.id)
            .field("priority", &self.priority)
            .field("state", &self.state)
            .field("phases", &self.phases)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_allocator_is_monotone_and_unique() {
        let alloc = TaskIdAllocator::new();
        let a = alloc.allocate();
        let b = alloc.allocate();
        assert!(a < b);
        assert_ne!(a, b);
        assert_eq!(a.to_string(), "task#0");
    }

    #[test]
    fn id_allocator_is_thread_safe() {
        let alloc = std::sync::Arc::new(TaskIdAllocator::new());
        let mut handles = Vec::with_capacity(4);
        for _ in 0..4 {
            let alloc = std::sync::Arc::clone(&alloc);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| alloc.allocate().0).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "ids must be unique");
    }

    #[test]
    fn default_priority_is_normal() {
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn convert_produces_pending_task() {
        let staged = StagedTask::once(TaskId(7), Priority::High, |_| {});
        let task = Task::convert(staged);
        assert_eq!(task.id, TaskId(7));
        assert_eq!(task.priority, Priority::High);
        assert_eq!(task.state, TaskState::Pending);
        assert_eq!(task.phases, 0);
    }

    #[test]
    fn legal_transitions_pass() {
        let staged = StagedTask::once(TaskId(0), Priority::Normal, |_| {});
        let mut t = Task::convert(staged);
        t.transition(TaskState::Active);
        t.transition(TaskState::Suspended);
        t.transition(TaskState::Pending);
        t.transition(TaskState::Active);
        t.transition(TaskState::Terminated);
        assert_eq!(t.state, TaskState::Terminated);
    }

    #[test]
    #[should_panic(expected = "illegal task state transition")]
    #[cfg(debug_assertions)]
    fn illegal_transition_panics_in_debug() {
        let staged = StagedTask::once(TaskId(0), Priority::Normal, |_| {});
        let mut t = Task::convert(staged);
        t.transition(TaskState::Terminated); // pending → terminated: illegal
    }
}
