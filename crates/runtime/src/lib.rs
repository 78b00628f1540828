//! # grain-runtime — an HPX-like M:N task runtime with first-class counters
//!
//! This crate is the substrate of the reproduction of Grubel et al.,
//! *"The Performance Implication of Task Size for Applications on the HPX
//! Runtime System"* (IEEE CLUSTER 2015): a from-scratch user-level task
//! runtime whose scheduling structure matches the system the paper
//! characterizes.
//!
//! ## What matches the paper
//!
//! * **Tasks are first-class** ([`task::Task`]) with the five lifecycle
//!   states of §I-B: *staged → pending → active → (suspended ⇄ pending) →
//!   terminated*. `spawn` only creates a cheap *staged* description; the
//!   scheduler *converts* it (allocating the execution frame) on the way
//!   to a pending queue.
//! * **M:N cooperative scheduling**: a pool of OS worker threads runs many
//!   lightweight tasks; nothing is ever preempted — tasks end a *thread
//!   phase* by completing, yielding or suspending on a future.
//! * **The Priority Local-FIFO policy** ([`scheduler::Scheduler`]), the
//!   runtime's only one: one staged + one pending lock-free FIFO per
//!   worker, one high-priority dual queue, one low-priority queue, and
//!   the six-step NUMA-aware search order of Fig. 1.
//! * **Futures and dataflow** ([`future`], [`Runtime::dataflow`]): HPX-style
//!   shared futures with continuations, `when_all` composition, and
//!   `dataflow` that queues the dependent task only once its inputs are
//!   ready. A task is one allocation — its output future, its input
//!   countdown and its queue entry — and a task that finishes hands the
//!   dependent it readied to its own worker, converted, with no queue in
//!   between.
//! * **The performance monitoring system**: every scheduler event feeds
//!   sharded counters ([`ThreadCounters`]) registered under
//!   HPX-style symbolic paths (`/threads{locality#0/total}/idle-rate`, …)
//!   in a queryable [`grain_counters::Registry`], including the exact
//!   counters the paper's methodology uses: idle-rate (Eq. 1), average
//!   task duration (Eq. 2), average task overhead (Eq. 3), cumulative
//!   task/phase counts, and pending/staged queue accesses and misses.
//!
//! ## Example
//!
//! ```
//! use grain_runtime::{Runtime, RuntimeConfig};
//!
//! let rt = Runtime::new(RuntimeConfig::with_workers(2));
//!
//! // Fork a tree of tasks with `async_call`, join with `dataflow`.
//! let a = rt.async_call(|_| 2u64);
//! let b = rt.async_call(|_| 40u64);
//! let sum = rt.dataflow(&[a, b], |_, vals| *vals[0] + *vals[1]);
//! assert_eq!(*sum.get(), 42);
//!
//! rt.wait_idle();
//! let idle_rate = rt
//!     .registry()
//!     .query("/threads{locality#0/total}/idle-rate")
//!     .unwrap();
//! assert!((0.0..=1.0).contains(&idle_rate.value));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod fault;
pub mod future;
pub mod group;
pub mod queue;
pub mod runtime;
pub mod scheduler;
pub mod task;
mod worker;

pub use fault::TaskError;
pub use future::{channel, when_all, Inputs, Promise, Settled, SharedFuture};
pub use grain_counters::threads::ThreadCounters;
pub use group::{CancelToken, TaskGroup};
pub use runtime::{Runtime, RuntimeConfig, TaskContext};
pub use scheduler::{Provenance, Scheduler, SearchStep};
pub use task::{Poll, Priority, TaskId, TaskState};

/// Re-export of the counter crate for convenient path-based queries.
pub use grain_counters;

/// The tests' one sleep, for the unit-test modules of this crate.
#[cfg(test)]
#[path = "../tests/support/pace.rs"]
mod pace;
