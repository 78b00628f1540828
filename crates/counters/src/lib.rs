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
//!   ratio / bytes).
//! * [`registry::Registry`] — maps paths to live counters; supports exact
//!   queries, wildcard discovery, and reset, like HPX's counter service.
//! * [`derived`] — counters computed on demand from other counters
//!   (averages, rates, differences); this is how `/threads/idle-rate`,
//!   `/threads/time/average` and `/threads/time/average-overhead` are
//!   implemented.
//! * [`equations`] — Eqs. 1–6 of the paper, the one statement every
//!   reader of the counter sums calls, and [`Window`], the one record of
//!   those sums and the one interval they are read over: a reading of
//!   [`ThreadCounters::window`] minus an earlier one, the building block
//!   for *dynamic* measurements over any interval of interest (§II-A of
//!   the paper notes all metrics can be computed over intervals).
//!
//! The crate is self-contained (no dependency on the runtime) so that both
//! the native thread pool in `grain-runtime` and the discrete-event
//! simulator in `grain-sim` expose the *same* counter surface.
//!
//! ## Example
//!
//! ```
//! use grain_counters::{average_of, Registry, Sharded, Unit};
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
pub mod histogram;
pub mod path;
pub mod raw;
pub mod registry;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod threads;
pub mod value;

pub use derived::{average_of, ratio_of, DerivedCounter};
pub use equations::Window;
pub use histogram::{LogHistogram, ShardedHistogram};
pub use path::CounterPath;
pub use raw::{RawCounter, Sharded};
pub use registry::{Counter, Registry, RegistryError, ScopedRegistry};
pub use rng::Pcg32;
pub use stats::SampleStats;
pub use threads::ThreadCounters;
pub use value::{CounterValue, Unit};
