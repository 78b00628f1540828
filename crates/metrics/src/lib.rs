//! # grain-metrics — the paper's methodology as a library
//!
//! Implements §II of the paper: the performance metrics (Eqs. 1–6, stated
//! in `grain_counters::equations` and read here over each sample's
//! `Window`), the repeated-sample statistics (mean / standard deviation /
//! COV), and the granularity-sweep harness that drives either execution
//! engine — the native runtime (`grain-runtime`) or the discrete-event
//! simulator — across partition sizes and core counts.
//!
//! * [`engine`] — the simulator ([`simulate`]): `grain-runtime`'s own
//!   scheduler driven in virtual time on a `grain-sim` machine model, so
//!   the search order of Fig. 1 is the runtime's by construction.
//! * [`record::RunRecord`] — one sample: configuration + the counter
//!   `Window`, built identically from both engines.
//! * [`aggregate::Aggregate`] — per-metric mean/stddev/COV over samples.
//! * [`sweep`] — the sweep driver ([`sweep::run_sweep`]), the two engines
//!   ([`sweep::SimEngine`], [`sweep::NativeEngine`]) and the partition
//!   grids the paper uses.
//! * [`table`] — aligned-table and CSV rendering for the bench binaries.
//!
//! ## Example
//!
//! ```
//! use grain_metrics::{simulate, SimConfig};
//! use grain_sim::SimWorkload;
//! use grain_topology::presets;
//!
//! // 64 independent tasks of 10_000 points each on a Haswell node.
//! let mut wl = SimWorkload::new();
//! for _ in 0..64 {
//!     wl.push(10_000, Vec::new());
//! }
//! let report = simulate(&presets::haswell(), 8, &wl, &SimConfig::default());
//! assert_eq!(report.window.tasks, 64);
//! assert!(report.wall_ns > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod engine;
pub mod record;
pub mod sweep;
pub mod table;

pub use aggregate::Aggregate;
pub use engine::{simulate, SimConfig};
pub use record::{EngineKind, RunMeta, RunRecord};
pub use sweep::{run_sweep, NativeEngine, SimEngine, StencilEngine, Sweep, SweepCell};
