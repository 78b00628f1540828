//! # grain-sim — the modeled machines, and the chaos fabric
//!
//! The paper's experiments run on 16–61-core Intel nodes (Table I). The
//! discrete-event engine that substitutes them, `grain_metrics::simulate`,
//! runs `grain-runtime`'s own scheduler in virtual time; this crate holds
//! what it runs against:
//!
//! * [`MachineModel`] — a platform bound to a worker count: the
//!   scheduler's per-probe, conversion, dispatch, spawn and
//!   distance-dependent steal costs, with contention multipliers fit to
//!   the paper's ~90 % fine-grain idle rates, and a calibrated
//!   kernel-time model ([`grain_topology::PerfParams`]): saturating
//!   aggregate memory throughput (the strong-scaling limiter on the Xeon
//!   parts and the ring/GDDR limiter on the Phi), first-touch striping
//!   (the negative-wait-time mechanism at very coarse grain),
//!   cache-residency floors and log-normal jitter;
//! * [`SimWorkload`] — the engine's input, a task DAG with per-task
//!   points. Its shapes come from `grain-taskbench` (`TaskGraph`'s five
//!   families, lowered by `TaskGraph::sim_workload`) and from
//!   `grain-stencil` (the paper's ring);
//! * [`SimReport`] — one run's virtual wall-clock and the same
//!   [`grain_counters::Window`] of counter sums the native runtime
//!   reads, so the metric layer treats both engines identically.
//!
//! It also holds the seeded chaos the network and fleet layers replay:
//! the simulated network fabric ([`NetFabric`], [`NetPlan`]) and the
//! storm plans ([`StormPlan`], [`FleetChaos`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fabric;
pub mod machine;
pub mod netplan;
pub mod report;
pub mod storm;
pub mod workload;

pub use fabric::{LedgerSnapshot, NetFabric, SimFrameClass, SimSink, SubmitOutcome};
pub use machine::MachineModel;
pub use netplan::{FrameFate, NetPlan, PartitionMode, PartitionWindow, Verdict};
pub use report::SimReport;
pub use storm::{FleetAction, FleetChaos, FleetEvent, StormEvent, StormPlan, TenantStorm};
pub use workload::{SimTaskSpec, SimWorkload};
