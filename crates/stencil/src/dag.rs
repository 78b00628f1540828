//! Stencil task-DAG generator for the simulator.
//!
//! Produces the exact dependency structure the futurized benchmark
//! executes natively — `np` partitions × `nt` steps, each task depending
//! on the three closest partitions of the previous step — as a
//! [`SimWorkload`] the discrete-event engine can run on any modeled
//! platform.

use crate::params::StencilParams;
use grain_sim::{SimTaskSpec, SimWorkload};

/// Build the simulated stencil DAG.
///
/// Task indexing: step `t ∈ 0..nt`, partition `i ∈ 0..np` maps to index
/// `t·np + i`. Step-0 tasks have no dependencies (their inputs are the
/// ready initial partitions, exactly like the `make_ready_future`s of the
/// native version).
pub fn stencil_workload(params: &StencilParams) -> SimWorkload {
    params.validate().expect("invalid stencil parameters");
    let np = params.np;
    let nt = params.nt;
    let mut tasks = Vec::with_capacity(np * nt);
    for t in 0..nt {
        for i in 0..np {
            let deps = if t == 0 {
                Vec::new()
            } else {
                let base = (t - 1) * np;
                vec![
                    (base + (i + np - 1) % np) as u32,
                    (base + i) as u32,
                    (base + (i + 1) % np) as u32,
                ]
            };
            tasks.push(SimTaskSpec {
                points: params.nx as u64,
                deps,
            });
        }
    }
    SimWorkload {
        tasks,
        // Concurrent working set: one step's grid read + the next written,
        // matching the PerfParams::bytes_per_point accounting (16 B/pt).
        footprint_bytes: (params.total_points() as f64) * 16.0,
    }
}

/// Task index of (step, partition) in the generated workload.
#[cfg(test)]
fn task_index(params: &StencilParams, step: usize, partition: usize) -> usize {
    debug_assert!(step < params.nt && partition < params.np);
    step * params.np + partition
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_parameters() {
        let p = StencilParams::new(1_000, 10, 5);
        let wl = stencil_workload(&p);
        assert_eq!(wl.len(), 50);
        assert_eq!(wl.total_points(), 50_000);
        wl.validate().unwrap();
    }

    #[test]
    fn step0_has_no_dependencies() {
        let p = StencilParams::new(10, 4, 3);
        let wl = stencil_workload(&p);
        for i in 0..4 {
            assert!(wl.tasks[i].deps.is_empty());
        }
    }

    #[test]
    fn later_steps_depend_on_three_neighbours() {
        let p = StencilParams::new(10, 5, 3);
        let wl = stencil_workload(&p);
        // Step 2, partition 0 depends on step-1 partitions 4, 0, 1.
        let idx = task_index(&p, 2, 0);
        assert_eq!(wl.tasks[idx].deps, vec![(5 + 4) as u32, 5, 6]);
        // Interior partition 2 depends on 1, 2, 3 of the previous step.
        let idx = task_index(&p, 1, 2);
        assert_eq!(wl.tasks[idx].deps, vec![1, 2, 3]);
    }

    #[test]
    fn ring_wraps_at_both_ends() {
        let p = StencilParams::new(10, 6, 2);
        let wl = stencil_workload(&p);
        let last = task_index(&p, 1, 5);
        assert_eq!(wl.tasks[last].deps, vec![4, 5, 0]);
    }

    #[test]
    fn single_partition_depends_on_itself_three_times() {
        let p = StencilParams::new(10, 1, 2);
        let wl = stencil_workload(&p);
        assert_eq!(wl.tasks[1].deps, vec![0, 0, 0]);
        wl.validate().unwrap();
    }

    #[test]
    fn footprint_covers_the_grid() {
        let p = StencilParams::new(1_000, 100, 2);
        let wl = stencil_workload(&p);
        assert_eq!(wl.footprint_bytes, 100_000.0 * 16.0);
    }
}
