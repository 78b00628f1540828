//! An idle runtime costs nothing: a worker that parks while no task is in
//! flight sleeps until woken, so a quiescent runtime's workers are not
//! scheduled at all. A worker that polled instead (a timed nap, re-search,
//! nap again) would switch context thousands of times a second, and every
//! one of those switches is taken from the threads that do have work.
//!
//! The count comes from `/proc/self/task/*/status`, summed over this
//! runtime's `grain-worker-*` threads. This file holds one test, so its
//! binary runs no other runtime whose workers could be counted.

use grain_runtime::{Runtime, RuntimeConfig};
use std::time::{Duration, Instant};

/// Voluntary + involuntary context switches of every `grain-worker-*`
/// thread of this process, and how many such threads there are. `None`
/// where `/proc` is absent.
fn worker_ctx_switches() -> Option<(u64, usize)> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let (mut switches, mut threads) = (0, 0);
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !comm.starts_with("grain-worker-") {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).ok()?;
        threads += 1;
        for line in status.lines() {
            if let Some(("voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches", n)) =
                line.split_once(':')
            {
                switches += n.trim().parse::<u64>().expect("a switch count");
            }
        }
    }
    Some((switches, threads))
}

/// Two workers, one task, then 200 ms with nothing in flight. Each
/// worker may finish the nap it began while the task ran and park once
/// more, so the budget is two switches per worker; two workers that
/// woke every 200 µs would read about 2 000 in the window.
#[test]
fn quiescent_workers_are_not_scheduled() {
    const BUDGET: u64 = 4;
    let r = Runtime::new(RuntimeConfig::with_workers(2));
    r.spawn(|_| {});
    r.wait_idle();
    // One worker may have run the task before the other thread has even
    // named itself: wait until both are visible.
    let deadline = Instant::now() + Duration::from_secs(10);
    let before = loop {
        let Some((switches, threads)) = worker_ctx_switches() else {
            return;
        };
        if threads == 2 {
            break switches;
        }
        assert!(
            Instant::now() < deadline,
            "found {threads} worker threads, not 2"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    std::thread::sleep(Duration::from_millis(200));
    let (after, _) = worker_ctx_switches().unwrap();
    let switches = after - before;
    assert!(
        switches <= BUDGET,
        "{switches} worker context switches in a 200 ms quiescent window (budget {BUDGET})"
    );
}
