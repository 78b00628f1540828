//! # grain-metrics — the paper's methodology as a library
//!
//! Implements §II of the paper: the performance metrics (Eqs. 1–6), the
//! repeated-sample statistics (mean / standard deviation / COV), and the
//! granularity-sweep harness that drives either execution engine — the
//! native runtime (`grain-runtime`) or the platform simulator
//! (`grain-sim`) — across partition sizes and core counts.
//!
//! * [`equations`] — Eq. 1 (idle-rate), Eq. 2 (task duration), Eq. 3
//!   (task overhead), Eq. 4 (thread-management overhead), Eq. 5/6 (wait
//!   time), as pure functions.
//! * [`record::RunRecord`] — one sample: configuration + raw counters,
//!   built identically from both engines.
//! * [`aggregate::Aggregate`] — per-metric mean/stddev/COV over samples.
//! * [`sweep`] — the sweep driver ([`sweep::run_sweep`]), the two engines
//!   ([`sweep::SimEngine`], [`sweep::NativeEngine`]) and the partition
//!   grids the paper uses.
//! * [`table`] — aligned-table and CSV rendering for the bench binaries.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod equations;
pub mod record;
pub mod sweep;
pub mod table;

pub use aggregate::Aggregate;
pub use record::{EngineKind, RunMeta, RunRecord};
pub use sweep::{run_sweep, NativeEngine, SimEngine, StencilEngine, Sweep, SweepCell};
