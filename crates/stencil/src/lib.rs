//! # grain-stencil — the HPX-Stencil benchmark (1-D heat diffusion)
//!
//! Rust port of `1d_stencil_4` from the HPX distribution, the benchmark
//! the paper uses to control task granularity (§I-C): the heat equation
//! over a ring of `np · nx` grid points, partitioned so that each
//! (partition, time-step) pair is one task depending on the three closest
//! partitions of the previous step (Fig. 2).
//!
//! Three execution paths, all computing identical physics:
//!
//! * [`sequential::run_sequential`] — plain loops, the correctness oracle;
//! * [`futurized::run_futurized`] — dataflow tasks on the native
//!   [`grain_runtime::Runtime`], granularity controlled by `nx`;
//! * [`stencil_workload`] — the same task DAG for the
//!   [`grain_sim`] discrete-event simulator, used to reproduce the
//!   paper's multi-core experiments on modeled Table I platforms.
//!
//! ```
//! use grain_runtime::Runtime;
//! use grain_stencil::{run_futurized, run_sequential, StencilParams};
//!
//! let params = StencilParams::new(16, 4, 8); // 4 partitions × 16 points
//! let rt = Runtime::with_workers(2);
//! assert_eq!(run_futurized(&rt, &params), run_sequential(&params));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod dag;
pub mod futurized;
pub mod heat;
pub mod params;
pub mod sequential;

pub use dag::stencil_workload;
pub use futurized::{collect_result, partition_grid, run_futurized, run_steps_from};
pub use heat::{heat, heat_part, total_heat, Partition};
pub use params::StencilParams;
pub use sequential::run_sequential;
