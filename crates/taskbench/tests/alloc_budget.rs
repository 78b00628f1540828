//! Allocation budget of a task of a taskbench graph, counted — not
//! timed — so it reads the same on any host: heap allocations per task
//! of `run_local` on the graph of `perf`'s `graph_fine` workload
//! (`Stencil1d` 32 × 32, grain 1 000, no payload) on one worker, by
//! every thread of the process, under a counting global allocator.
//!
//! This is what `perf`'s `runtime.allocs_per_task` measures. The budget
//! is today's count plus a tenth; the parts are listed at the assertion.

use grain_runtime::Runtime;
use grain_taskbench::{run_local, GraphKind, GraphSpec};

#[path = "../../runtime/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

const RUNS: u64 = 20;

/// One test, so nothing else in this process allocates while it counts.
#[test]
fn a_graph_fine_task_stays_within_its_allocation_budget() {
    let graph = GraphSpec::shape(
        GraphKind::Stencil1d {
            width: 32,
            steps: 32,
        },
        1,
    )
    .grain(1_000)
    .payload(0)
    .build();
    let expected = graph.checksum_reference();
    let rt = Runtime::with_workers(1);
    let run = || assert_eq!(run_local(&rt, &graph), Ok(expected));
    // Queue segments, the worker's buffers and lazy statics come first.
    run();

    let before = allocations();
    for _ in 0..RUNS {
        run();
    }
    let tasks = RUNS * graph.len() as u64;
    let per_task = (allocations() - before) as f64 / tasks as f64;
    // The node (output future, input countdown, its inputs, closure with
    // their kinds, queue entry and its dependents' slots, in one) and the
    // value's `Arc`; the run's list of futures, the join of its sinks and
    // queue segments are amortized to hundredths. It read 2.98 while the
    // inputs were a list beside the node; a third allocation per task
    // fails the budget.
    assert!(per_task <= 2.1, "{per_task:.2} allocations per task");
    eprintln!("allocations: {per_task:.2} per task of a graph_fine run");
}
