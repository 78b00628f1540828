//! Seeded pseudo-random numbers — re-exported from `grain-counters`.
//!
//! The PCG32 generator lives in the base crate so every seeded stream in
//! the workspace draws from one implementation. This module keeps the
//! historical `grain_sim::rng::Pcg32` path working.

pub use grain_counters::rng::Pcg32;
