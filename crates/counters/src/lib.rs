//! # grain-counters — first-class performance counters
//!
//! This crate reproduces the *performance monitoring system* of the HPX
//! runtime as described in §I-B of Grubel et al., *"The Performance
//! Implication of Task Size for Applications on the HPX Runtime System"*
//! (CLUSTER 2015): counters are first-class objects, each addressed by a
//! symbolic path, discoverable and queryable at runtime by the application
//! or by the runtime system itself for introspection and adaptation.
//!
//! A counter path follows the HPX convention
//!
//! ```text
//! /object{instance}/name@parameters
//! ```
//!
//! for example `/threads{locality#0/worker-thread#3}/idle-rate` or
//! `/threads{locality#0/total}/count/cumulative`.
//!
//! The pieces:
//!
//! * [`path::CounterPath`] — parsed symbolic counter names.
//! * [`raw`] — lock-free primitive counters: monotonically increasing
//!   event counts and nanosecond time sums, with cache-line-padded
//!   per-worker sharding ([`raw::Sharded`]) in which each shard has one
//!   writer, so a hot-path increment is a plain load and store.
//! * [`value::CounterValue`] — a typed sample (count / nanoseconds /
//!   ratio / bytes) with the timestamp it was taken at.
//! * [`registry::Registry`] — maps paths to live counters; supports exact
//!   queries, wildcard discovery, and reset, like HPX's counter service.
//! * [`derived`] — counters computed on demand from other counters
//!   (averages, rates, differences); this is how `/threads/idle-rate`,
//!   `/threads/time/average` and `/threads/time/average-overhead` are
//!   implemented.
//! * [`equations`] — Eqs. 1–3 of the paper over integer counter sums,
//!   the one statement every reader of those sums calls.
//! * [`snapshot`] — point-in-time captures of a whole counter set and
//!   interval deltas between two captures, the building block for
//!   *dynamic* measurements over any interval of interest (§II-A of the
//!   paper notes all metrics can be computed over intervals).
//!
//! The crate is self-contained (no dependency on the runtime) so that both
//! the native thread pool in `grain-runtime` and the discrete-event
//! simulator in `grain-sim` expose the *same* counter surface.
//!
//! ## Example
//!
//! ```
//! use grain_counters::prelude::*;
//! use std::sync::Arc;
//!
//! // A runtime would create one shard per worker thread.
//! let exec_time = Arc::new(Sharded::new(4));
//! let tasks = Arc::new(Sharded::new(4));
//!
//! // Hot path: worker 2 retires a task that ran 1500 ns.
//! exec_time.add(2, 1500);
//! tasks.add(2, 1);
//!
//! let registry = Registry::new();
//! registry
//!     .register(
//!         "/threads{locality#0/total}/time/average",
//!         average_of(exec_time.clone(), tasks.clone(), Unit::Nanoseconds),
//!     )
//!     .unwrap();
//!
//! let v = registry.query("/threads{locality#0/total}/time/average").unwrap();
//! assert_eq!(v.value, 1500.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod derived;
pub mod equations;
pub mod fault;
pub mod histogram;
pub mod path;
pub mod raw;
pub mod registry;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod sync;
pub mod threads;
pub mod value;

pub use derived::{average_of, ratio_of, DerivedCounter};
pub use fault::{FaultAction, FaultPlan};
pub use histogram::{LogHistogram, ShardedHistogram};
pub use path::CounterPath;
pub use raw::{RawCounter, Sharded};
pub use registry::{Counter, Registry, RegistryError, ScopedRegistry};
pub use rng::Pcg32;
pub use snapshot::{Interval, Snapshot};
pub use stats::SampleStats;
pub use threads::ThreadCounters;
pub use value::{CounterValue, Unit};

/// Convenient glob import for consumers of this crate.
pub mod prelude {
    pub use crate::derived::{average_of, ratio_of, DerivedCounter};
    pub use crate::path::CounterPath;
    pub use crate::raw::{RawCounter, Sharded};
    pub use crate::registry::{Counter, Registry, RegistryError, ScopedRegistry};
    pub use crate::snapshot::{Interval, Snapshot};
    pub use crate::stats::SampleStats;
    pub use crate::value::{CounterValue, Unit};
}

/// Canonical counter names used throughout the project. These are the
/// counters named in the paper (§II-A), kept in one place so the runtime,
/// the simulator and the experiment harness agree on spelling.
pub mod names {
    /// Ratio of thread-management overhead to total time (Eq. 1).
    pub const IDLE_RATE: &str = "/threads/idle-rate";
    /// Average task execution (computation) time (Eq. 2).
    pub const TIME_AVERAGE: &str = "/threads/time/average";
    /// Average per-task thread-management overhead (Eq. 3).
    pub const TIME_AVERAGE_OVERHEAD: &str = "/threads/time/average-overhead";
    /// Cumulative number of HPX-threads (tasks) executed.
    pub const COUNT_CUMULATIVE: &str = "/threads/count/cumulative";
    /// Cumulative number of thread phases (activations) executed.
    pub const COUNT_CUMULATIVE_PHASES: &str = "/threads/count/cumulative-phases";
    /// Average execution time of one thread phase.
    pub const TIME_AVERAGE_PHASE: &str = "/threads/time/average-phase";
    /// Average overhead of one thread phase.
    pub const TIME_AVERAGE_PHASE_OVERHEAD: &str = "/threads/time/average-phase-overhead";
    /// Number of times the scheduler looked for work in pending queues.
    pub const PENDING_ACCESSES: &str = "/threads/count/pending-accesses";
    /// Number of times a pending-queue probe found no work.
    pub const PENDING_MISSES: &str = "/threads/count/pending-misses";
    /// Number of times the scheduler looked for work in staged queues.
    pub const STAGED_ACCESSES: &str = "/threads/count/staged-accesses";
    /// Number of times a staged-queue probe found no work.
    pub const STAGED_MISSES: &str = "/threads/count/staged-misses";
    /// Cumulative running sum of task execution time (Σ t_exec).
    pub const TIME_CUMULATIVE_EXEC: &str = "/threads/time/cumulative-exec";
    /// Cumulative running sum of task completion time (Σ t_func).
    pub const TIME_CUMULATIVE_FUNC: &str = "/threads/time/cumulative-func";
    /// Number of tasks stolen from another worker's queues.
    pub const COUNT_STOLEN: &str = "/threads/count/stolen";
    /// Number of staged descriptors converted into runnable tasks.
    pub const COUNT_CONVERTED: &str = "/threads/count/converted";
}
