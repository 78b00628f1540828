//! The futurized benchmark on the native runtime — the Rust port of
//! HPX's `1d_stencil_4`.
//!
//! Each partition of each time step is one `dataflow` task depending on
//! the three closest partitions of the previous step (Fig. 2 of the
//! paper). The dependency tree mirrors the data dependencies of the
//! original algorithm; the runtime's scheduler discovers the available
//! parallelism ("a solid base for a highly efficient
//! auto-parallelization", §I-C).

use crate::heat::{heat_part, initial_partition, Partition};
use crate::params::StencilParams;
use grain_runtime::{Runtime, SharedFuture, TaskError};
use std::time::Duration;

/// How long [`collect_result`] waits on any single partition before
/// declaring the run stuck. Generous — a healthy stencil step is
/// microseconds — so it only fires on a genuine hang (lost worker,
/// dependency cycle), turning a silent deadlock into a diagnosable
/// error.
const JOIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Advance a ring of partition futures by one time step: one `dataflow`
/// task per partition, depending on the three closest partitions (the
/// edges of Fig. 2). Partitions may have unequal lengths — only the edge
/// elements of the neighbours are read — which is what allows online
/// re-partitioning between epochs.
fn step_partitions(
    rt: &Runtime,
    current: &[SharedFuture<Partition>],
    coeff: f64,
) -> Vec<SharedFuture<Partition>> {
    let np = current.len();
    let mut next = Vec::with_capacity(np);
    for i in 0..np {
        let deps = [
            &current[(i + np - 1) % np],
            &current[i],
            &current[(i + 1) % np],
        ];
        next.push(rt.dataflow(deps, move |_ctx, vals| {
            heat_part(coeff, &vals[0], &vals[1], &vals[2])
        }));
    }
    next
}

/// Run `steps` time steps from explicit initial partition data.
pub fn run_steps_from(
    rt: &Runtime,
    initial: Vec<Partition>,
    steps: usize,
    coeff: f64,
) -> Vec<SharedFuture<Partition>> {
    let mut current: Vec<SharedFuture<Partition>> =
        initial.into_iter().map(SharedFuture::ready).collect();
    for _ in 0..steps {
        current = step_partitions(rt, &current, coeff);
    }
    current
}

/// Split a flat grid into contiguous partitions of `nx` points (the last
/// one may be shorter). The ring order is preserved.
pub fn partition_grid(grid: &[f64], nx: usize) -> Vec<Partition> {
    assert!(nx > 0, "partition size must be positive");
    grid.chunks(nx)
        .map(|c| c.to_vec().into_boxed_slice())
        .collect()
}

/// Run the futurized stencil and return the future of every final-step
/// partition.
fn spawn_stencil(rt: &Runtime, params: &StencilParams) -> Vec<SharedFuture<Partition>> {
    params.validate().expect("invalid stencil parameters");
    let initial: Vec<Partition> = (0..params.np)
        .map(|i| initial_partition(i, params.nx))
        .collect();
    run_steps_from(rt, initial, params.nt, params.coefficient())
}

/// Block until the stencil finishes and flatten the result into one grid
/// vector of length `np · nx`. Panics (with the task error) if a
/// partition faulted or failed to resolve within [`JOIN_TIMEOUT`].
pub fn collect_result(parts: &[SharedFuture<Partition>]) -> Vec<f64> {
    try_collect_result(parts).unwrap_or_else(|e| panic!("stencil partition failed: {e}"))
}

/// Fallible join: waits up to [`JOIN_TIMEOUT`] per partition and
/// surfaces a faulted or stuck partition as `Err` — the root cause of a
/// mid-DAG panic is reachable through [`TaskError::root_cause`] —
/// instead of blocking forever.
fn try_collect_result(parts: &[SharedFuture<Partition>]) -> Result<Vec<f64>, TaskError> {
    // Settle every partition first, then flatten into one exactly-sized
    // allocation instead of growing the grid through doublings.
    let mut vals = Vec::with_capacity(parts.len());
    for f in parts {
        vals.push(f.wait_timeout(JOIN_TIMEOUT)?);
    }
    let mut grid = Vec::with_capacity(vals.iter().map(|p| p.len()).sum());
    for part in &vals {
        grid.extend_from_slice(part);
    }
    Ok(grid)
}

/// Convenience wrapper: run to completion and return the flattened grid.
pub fn run_futurized(rt: &Runtime, params: &StencilParams) -> Vec<f64> {
    let parts = spawn_stencil(rt, params);
    let grid = collect_result(&parts);
    rt.wait_idle();
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heat::total_heat;
    use crate::sequential::run_sequential;
    use grain_runtime::RuntimeConfig;

    fn rt(workers: usize) -> Runtime {
        Runtime::new(RuntimeConfig::with_workers(workers))
    }

    #[test]
    fn matches_sequential_exactly() {
        let params = StencilParams::new(8, 6, 10);
        let seq = run_sequential(&params);
        let fut = run_futurized(&rt(3), &params);
        assert_eq!(
            seq, fut,
            "futurized result must be bit-identical to sequential"
        );
    }

    #[test]
    fn matches_sequential_across_shapes() {
        for (nx, np, nt) in [(1, 5, 8), (5, 1, 8), (3, 2, 1), (17, 13, 7), (2, 2, 0)] {
            let params = StencilParams::new(nx, np, nt);
            let seq = run_sequential(&params);
            let fut = run_futurized(&rt(2), &params);
            assert_eq!(seq, fut, "shape nx={nx} np={np} nt={nt}");
        }
    }

    #[test]
    fn task_count_matches_np_times_nt() {
        let params = StencilParams::new(4, 7, 5);
        let r = rt(2);
        let _ = run_futurized(&r, &params);
        assert_eq!(r.counters().tasks.sum() as usize, params.total_tasks());
    }

    #[test]
    fn heat_conserved_under_tasking() {
        let params = StencilParams::new(32, 8, 20);
        let grid = run_futurized(&rt(4), &params);
        let expect: f64 = (0..params.total_points())
            .map(|g| (g / params.nx) as f64)
            .sum();
        assert!((total_heat([&grid[..]]) - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn partition_grid_chunks_with_ragged_tail() {
        let grid: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let parts = partition_grid(&grid, 4);
        assert_eq!(parts.len(), 3);
        assert_eq!(&*parts[0], &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(&*parts[2], &[8.0, 9.0]);
    }

    #[test]
    fn ragged_partitions_compute_the_same_physics() {
        // Split the same grid unevenly; the result must match the uniform
        // sequential oracle exactly (only neighbour edges are read).
        let params = StencilParams::new(6, 4, 9);
        let seq = run_sequential(&params);
        let grid: Vec<f64> = (0..params.total_points())
            .map(|g| (g / params.nx) as f64)
            .collect();
        let rt = rt(2);
        // 24 points into ragged chunks of 7.
        let parts = partition_grid(&grid, 7);
        let out = run_steps_from(&rt, parts, params.nt, params.coefficient());
        assert_eq!(collect_result(&out), seq);
    }

    #[test]
    fn repartitioning_between_epochs_preserves_physics() {
        let params = StencilParams::new(8, 8, 12);
        let seq = run_sequential(&params);
        let rt = rt(2);
        let grid: Vec<f64> = (0..params.total_points())
            .map(|g| (g / params.nx) as f64)
            .collect();
        // Epoch 1: 6 steps at nx=16; epoch 2: 6 steps at nx=5 (ragged).
        let mid = run_steps_from(&rt, partition_grid(&grid, 16), 6, params.coefficient());
        let mid_grid = collect_result(&mid);
        let out = run_steps_from(&rt, partition_grid(&mid_grid, 5), 6, params.coefficient());
        assert_eq!(collect_result(&out), seq);
    }

    #[test]
    fn counters_show_granularity_difference() {
        // Same total work, two granularities: the fine-grained run must
        // execute more tasks with a smaller average task duration.
        let coarse = StencilParams::new(10_000, 4, 4);
        let fine = StencilParams::new(100, 400, 4);
        let rc = rt(2);
        let _ = run_futurized(&rc, &coarse);
        let rf = rt(2);
        let _ = run_futurized(&rf, &fine);
        assert!(rf.counters().tasks.sum() > rc.counters().tasks.sum());
        assert!(
            rf.counters().window().task_duration_ns() < rc.counters().window().task_duration_ns(),
            "fine {} vs coarse {}",
            rf.counters().window().task_duration_ns(),
            rc.counters().window().task_duration_ns()
        );
    }
}
