//! Allocation budget of the two hot spawn paths, counted — not timed —
//! so it reads the same on any host: heap allocations per `async_call`
//! and per three-input `dataflow` node, by every thread of the process,
//! under a counting global allocator.
//!
//! The budgets are the counts of the current design plus one; the parts
//! are listed at each assertion. A change that puts a `Box` back on
//! every dependency edge or around every task body, or takes the future
//! or the queue entry out of the task's one node again, fails here
//! before it shows in a benchmark.

use grain_runtime::{Runtime, SharedFuture};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state and
// cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const OPS: u64 = 20_000;

/// Allocations per operation of `OPS` operations made by `run`, which
/// returns once all of them have finished.
fn allocs_per_op(run: impl FnOnce()) -> f64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    run();
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / OPS as f64
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

    // The node (output future, input countdown, closure and queue entry
    // in one), its copy of the input list (handed on to the body as the
    // list of values), the value's `Arc`, and the output's list of the
    // nodes waiting on it.
    let per_node = allocs_per_op(|| dataflow_nodes(&rt));
    assert!(
        per_node <= 5.0,
        "{per_node:.2} allocations per 3-input dataflow node"
    );
    eprintln!("allocations: {per_call:.2} per async_call, {per_node:.2} per dataflow node");
}
