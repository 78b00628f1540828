//! # grain-taskbench — a parameterized dependency-graph workload generator
//!
//! The paper characterizes task-size overheads with one application (the
//! 1-D stencil), so every conclusion is a single curve. This crate, in
//! the spirit of Task Bench, turns that curve into a **surface**: a
//! deterministic, seeded generator of dependency graphs parameterized by
//!
//! * **graph family** ([`GraphKind`]): 1-D stencil halo, FFT butterfly,
//!   tree reduce-broadcast, seeded random DAG, embarrassingly-parallel
//!   sweep;
//! * **task grain** ([`GraphSpec::grain_iters`]): busy-work iterations
//!   per task, CPU time linear in the count;
//! * **communication volume** ([`GraphSpec::payload_bytes`]): bytes
//!   carried per dependency edge;
//! * **duration dispersion** ([`GraphSpec::cov`]): seeded per-node
//!   lognormal or bimodal multipliers on the grain, so irregular
//!   workloads (stragglers, heavy tails) are first-class points on the
//!   surface without perturbing graph structure or payload streams.
//!
//! One immutable [`TaskGraph`] description feeds three executors and the
//! simulator:
//!
//! * [`exec_local`] — single runtime, via `dataflow`/futures;
//! * [`run_service_job`] — as a [`grain_service::JobService`] job, so
//!   storms get realistic heterogeneous tenant shapes;
//! * [`exec_net`] — across grain-net localities, with edges that cross
//!   a partition boundary traveling as parcels (payload bytes on the
//!   wire);
//! * [`TaskGraph::sim_workload`] — lowered node for node to the input of
//!   `grain_metrics::simulate`, which runs it on a modeled Table I
//!   machine.
//!
//! Every node computes a pure function of the graph description
//! ([`work`]), so all three executors — and the sequential reference
//! [`TaskGraph::checksum_reference`] — produce bit-identical checksums;
//! the cross-executor equivalence test pins that down. The simulator
//! computes no values; it completes the same tasks in the same
//! dependency order, on virtual time.
//!
//! ```
//! use grain_taskbench::{GraphKind, GraphSpec};
//! use grain_runtime::Runtime;
//!
//! let spec = GraphSpec::shape(GraphKind::Butterfly { width: 8 }, 42)
//!     .grain(100)
//!     .payload(64);
//! let graph = spec.build();
//! let rt = Runtime::with_workers(2);
//! let sum = grain_taskbench::exec_local::run_local(&rt, &graph).expect("run settles");
//! assert_eq!(sum, graph.checksum_reference());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exec_local;
pub mod exec_net;
mod exec_service;
pub mod graph;
pub mod storm;
pub mod work;

pub use exec_local::run_local;
pub use exec_net::{run_distributed_loopback, DistTaskBench};
pub use exec_service::{run_service_job, JobError};
pub use graph::{all_kinds, Cov, Edge, GraphKind, GraphSpec, Node, TaskGraph};
