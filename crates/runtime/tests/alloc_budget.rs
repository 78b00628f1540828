//! Allocation budget of the two hot spawn paths, counted — not timed —
//! so it reads the same on any host: heap allocations per `async_call`
//! and per three-input `dataflow` node, by every thread of the process,
//! under a counting global allocator.
//!
//! The budgets are the counts of the current design plus a margin that
//! no further allocation fits in; the parts are listed at each
//! assertion. A change that puts a `Box` back on
//! every dependency edge or around every task body, or takes the future
//! or the queue entry out of the task's one node again, or a list
//! beside the node for the continuations of its first few dependents,
//! fails here before it shows in a benchmark.

use grain_runtime::{Runtime, SharedFuture};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

const OPS: u64 = 20_000;

/// Allocations per operation of `OPS` operations made by `run`, which
/// returns once all of them have finished.
fn allocs_per_op(run: impl FnOnce()) -> f64 {
    let before = allocations();
    run();
    (allocations() - before) as f64 / OPS as f64
}

fn async_calls(rt: &Runtime) {
    let futures: Vec<_> = (0..OPS).map(|i| rt.async_call(move |_| i)).collect();
    for (i, f) in futures.iter().enumerate() {
        assert_eq!(*f.get(), i as u64);
    }
    rt.wait_idle();
}

/// A 3-point rolling stencil: every node reads the three before it, and
/// every node's value is read by the three after it.
fn dataflow_nodes(rt: &Runtime) {
    let mut last: [SharedFuture<u64>; 3] = std::array::from_fn(|_| SharedFuture::ready(1));
    for _ in 0..OPS {
        let next = rt.dataflow(&last, |_, v| (*v[0] ^ *v[1]).wrapping_add(*v[2]));
        last.rotate_left(1);
        last[2] = next;
    }
    last[2].get();
    rt.wait_idle();
}

/// One test, so nothing else in this process allocates while it counts.
#[test]
fn spawn_paths_stay_within_their_allocation_budget() {
    let rt = Runtime::with_workers(1);
    // Queue segments, the worker's buffers and lazy statics come first.
    async_calls(&rt);
    dataflow_nodes(&rt);

    // The node (output future, closure and queue entry in one) and the
    // value's `Arc`; queue segments and the vector of futures are
    // amortized to hundredths.
    let per_call = allocs_per_op(|| async_calls(&rt));
    assert!(per_call <= 3.0, "{per_call:.2} allocations per async_call");

    // The node (output future, input countdown, its three inputs,
    // closure, queue entry and the slots of the three dependents that
    // wait on its output, in one) and the value's `Arc`. It was three
    // while the inputs were a list beside the node; the budget is the
    // count plus a tenth, so a third allocation fails it.
    let per_node = allocs_per_op(|| dataflow_nodes(&rt));
    assert!(
        per_node <= 2.1,
        "{per_node:.2} allocations per 3-input dataflow node"
    );
    eprintln!("allocations: {per_call:.2} per async_call, {per_node:.2} per dataflow node");
}
