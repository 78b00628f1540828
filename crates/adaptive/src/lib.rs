//! # grain-adaptive — grain-size selection and dynamic adaptation
//!
//! The paper's conclusion (§VI): *"we show that by collecting pertinent
//! event counts, we can determine an optimal grain size to minimize
//! scheduling overheads and wait time"* — with dynamic adaptation named
//! as the goal the characterization enables. This crate implements both
//! halves:
//!
//! * [`threshold`] — the static selection rules the paper demonstrates:
//!   the idle-rate threshold of §IV-A and the pending-queue-access
//!   minimum of §IV-E, applied to sweep data;
//! * [`tuner`] — the one dynamic rule: a [`GrainSignal`] per monitoring
//!   window (idle-rate, tasks-per-core) into a [`ThresholdTuner`], which
//!   also owns the freeze, band and re-probe after convergence, plus
//!   [`throttled_workers`], the Porterfield-style (§V) pool throttle on
//!   the same window's task count. `grain-autotune` drives this same
//!   tuner, one per tenant, with per-job signals;
//! * `driver` — the two loops that apply it to the stencil, one per
//!   measurement substrate: [`adapt`] (epochs over a simulated or native
//!   `StencilEngine`) and [`adapt_live`] (windows of time steps inside
//!   one live runtime, each measured as a `grain_counters::Window`). A
//!   [`LoopMode`] says whether the pool is throttled too — the
//!   APEX-style grain + core integration §VI describes — and whether to
//!   stop at convergence.
//!
//! There is deliberately one rule and no strategy trait: the paper's
//! adaptive claim *is* this rule, and nothing in the repo ran another.
//! A second rule would be a second type with the tuner's methods,
//! chosen where [`ThresholdTuner::new`] is called today.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod driver;
pub mod threshold;
pub mod tuner;

pub use driver::{adapt, adapt_live, AdaptiveTrace, Epoch, LoopMode};
pub use threshold::{nx_minimizing_pending_accesses, smallest_nx_below_idle_rate, Selection};
pub use tuner::{throttled_workers, GrainSignal, ThresholdTuner, TunerConfig};
