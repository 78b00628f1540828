//! # grain-autotune — per-tenant online granularity control
//!
//! The paper's central result is that task grain size is *the* lever on
//! HPX-style runtime performance: too fine and fixed per-task overheads
//! (`t_o`) dominate; too coarse and cores starve (Figs. 4–6). Every
//! layer built so far assumes the submitter picks the partition. This
//! crate removes that assumption for served workloads: a tenant submits
//! a **work shape** — total work plus a chunkable body
//! ([`ShapedWork::ParallelFor`], [`ShapedWork::Stencil`],
//! [`ShapedWork::Graph`]) — and the service picks, and keeps re-picking,
//! the grain.
//!
//! ## The control loop
//!
//! ```text
//!            shape ──▶ expand(grain) ──▶ JobService ──▶ outcome
//!              ▲                                           │
//!              │ next grain                                │ policy hook
//!              │                                           ▼
//!        GrainController ◀── GrainSignal (idle rate Eq. 1, overhead
//!        (per tenant)         fraction, pending misses, tasks/core)
//! ```
//!
//! * **Signal** — each completed job's counters are folded into a
//!   [`grain_adaptive::GrainSignal`]; a deterministic [`CostModel`]
//!   produces the same signal shape for replayable storms.
//! * **Rule** — [`grain_adaptive::ThresholdTuner`], the paper's
//!   threshold rule on its regime markers and the same object the
//!   stencil adaptation loops drive, proposes the next grain. There is
//!   one rule and no strategy trait because nothing ran a second; one
//!   would be a second tuner type picked in [`GrainController::new`].
//! * **Controller** — [`GrainController`] adds hysteresis (a converged
//!   tenant freezes; only a *sustained* out-of-band run re-probes) and
//!   safe bounds (grain inside the tuner range, task count capped), so
//!   no tuner setting can starve or flood the runtime.
//! * **Actuators** — the adjusted grain re-chunks the tenant's next
//!   job; the same signal drives worker-pool throttling
//!   ([`Autotune::recommended_workers`]) and, exported through the
//!   fleet's `WorkerStats`, gateway placement.
//!
//! Per-tenant state is observable at
//! `/autotune/tenants/{name}/{grain,converged,probes,adjustments}`,
//! with `/autotune/{grain,converged}` aggregates. With
//! [`AutotuneConfig::enabled`] false every submission expands exactly
//! like a hand-partitioned job — byte-identical legacy behavior, which
//! `tests/convergence.rs` pins.

#![deny(clippy::unwrap_used)]

pub mod autotune;
pub mod controller;
pub mod model;
pub mod shape;

pub use autotune::Autotune;
pub use controller::{AutotuneConfig, GrainController};
pub use model::CostModel;
pub use shape::{ExpandedJob, ShapedBody, ShapedWork};

// The signal type lives in grain-adaptive (the stencil loops feed the
// same tuner); re-exported because `Autotune::observe` takes one.
pub use grain_adaptive::GrainSignal;
