//! Recursive task parallelism with a granularity cutoff: the classic
//! fork/join Fibonacci, expressed with `async_call` + `dataflow` exactly
//! as HPX programs write it. The cutoff (below which the task computes
//! sequentially) is task granularity in its purest form — watch the task
//! count and average task overhead move as you change it.
//!
//! ```sh
//! cargo run --release --example fibonacci
//! ```

use grain::runtime::{Runtime, SharedFuture, TaskContext};

fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        let (mut a, mut b) = (0u64, 1u64);
        for _ in 1..n {
            let c = a + b;
            a = b;
            b = c;
        }
        b
    }
}

/// Naive exponential recursion below the cutoff — this is the "work" the
/// tasks do, so the cutoff controls task size.
fn fib_naive(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_naive(n - 1) + fib_naive(n - 2)
    }
}

fn fib_task(ctx: &TaskContext<'_>, n: u64, cutoff: u64) -> SharedFuture<u64> {
    if n <= cutoff {
        return SharedFuture::ready(fib_naive(n));
    }
    let left = {
        let inner = ctx.async_call(move |ctx| fib_task(ctx, n - 1, cutoff));
        flatten(inner)
    };
    let right = {
        let inner = ctx.async_call(move |ctx| fib_task(ctx, n - 2, cutoff));
        flatten(inner)
    };
    let (promise, out) = grain::runtime::channel();
    ctx.dataflow(&[left, right], move |_, vals| {
        promise.set(*vals[0] + *vals[1]);
    });
    out
}

/// Future<Future<T>> → Future<T>.
fn flatten(outer: SharedFuture<SharedFuture<u64>>) -> SharedFuture<u64> {
    let (promise, out) = grain::runtime::channel();
    outer.on_ready(move |inner| {
        inner.on_ready(move |v| promise.set(**v));
    });
    out
}

fn main() {
    let rt = Runtime::with_workers(grain::topology::host::available_cores().max(2));
    let n = 30u64;
    let expect = fib_seq(n);

    println!("fib({n}) with recursive dataflow tasks, varying the cutoff:\n");
    for cutoff in [10u64, 16, 22, 28] {
        rt.reset_counters();
        let t0 = std::time::Instant::now();
        let result = rt.async_call(move |ctx| fib_task(ctx, n, cutoff));
        let value = *flatten(result).get();
        let wall = t0.elapsed().as_secs_f64();
        rt.wait_idle();
        assert_eq!(value, expect);
        let c = rt.counters().window();
        println!(
            "cutoff {cutoff:>2}: {value} in {wall:>7.4}s | tasks={:<6} t_d={:>9.1}ns overhead/task={:>9.1}ns",
            c.tasks,
            c.task_duration_ns(),
            c.task_overhead_ns(),
        );
    }
    println!(
        "\nSmall cutoffs spawn thousands of tiny tasks whose management overhead\n\
         dwarfs their work; large cutoffs starve the workers. Same U-curve, no\n\
         stencil required."
    );
}
