//! The benchmark of the grain stack: five fixed-work workloads on one
//! pinned CPU, measured as the quiet level of the windows of fresh-stack
//! epochs against an interleaved serial reference, plus a per-layer
//! ladder in traced runs. See `README.md`.

#![warn(missing_docs)]

pub mod aa;
pub mod host;
pub mod ladder;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
