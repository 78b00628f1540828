//! Regression tests pinning the accuracy of the phase clock that feeds
//! the paper's Eq. 1 counters (`cumulative-exec`, `cumulative-func`,
//! `idle-rate`).
//!
//! The worker reads the clock twice per executed phase — before the body
//! and after it — and the second read is both the end of `t_exec` and
//! the new `Σt_func` mark. Both sums are therefore exact, and these
//! tests are the contract that follows: exec tracks self-measured busy
//! time, `exec ≤ func` holds on every worker (not only in total), and
//! parked or quiescent wall time is never charged as work — the failure
//! mode that would corrupt idle-rate and any adaptive policy built on it.

use grain_runtime::{Runtime, RuntimeConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn rt(workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig::with_workers(workers))
}

fn query(r: &Runtime, path: &str) -> f64 {
    r.registry()
        .query(path)
        .unwrap_or_else(|e| panic!("query {path}: {e:?}"))
        .value
}

const EXEC: &str = "/threads{locality#0/total}/time/cumulative-exec";
const FUNC: &str = "/threads{locality#0/total}/time/cumulative-func";
const IDLE: &str = "/threads{locality#0/total}/idle-rate";

/// Eq. 1's `exec ≤ func` on each worker's own shard of the two sums. One
/// clock read ends `t_exec` and marks `Σt_func`, so no worker's exec can
/// outrun its func; a per-worker violation can hide inside a total.
fn assert_exec_le_func_per_worker(r: &Runtime) {
    let c = r.counters();
    for w in 0..c.exec_ns.shard_count() {
        let (exec, func) = (c.exec_ns.get(w), c.func_ns.get(w));
        assert!(
            func >= exec,
            "Eq. 1 violated on worker {w}: func={func} < exec={exec}"
        );
    }
}

/// Busy tasks self-measure their own wall time; the runtime's
/// cumulative-exec must agree within a coarse band, and the Eq. 1
/// invariants (exec ≤ func, idle-rate ∈ [0, 1]) must hold. Runs under a
/// throttled runtime (2 workers scaled down to 1) so the throttle path
/// is crossed while work is flowing.
#[test]
fn cumulative_exec_tracks_self_measured_busy_time() {
    let r = rt(2);
    r.set_active_workers(1);
    let busy_ns = Arc::new(AtomicU64::new(0));
    const TASKS: usize = 60;
    const SPIN: Duration = Duration::from_micros(300);
    for _ in 0..TASKS {
        let busy = Arc::clone(&busy_ns);
        r.spawn(move |_| {
            let t0 = Instant::now();
            while t0.elapsed() < SPIN {
                std::hint::spin_loop();
            }
            busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
    }
    r.wait_idle();
    let exec = query(&r, EXEC);
    let func = query(&r, FUNC);
    let idle = query(&r, IDLE);
    let busy = busy_ns.load(Ordering::Relaxed) as f64;

    // The tasks spun ~18ms of measured wall time in total. The runtime's
    // attribution must not lose a large fraction of it nor inflate it by
    // charging idle/parked spans into exec. The upper margin absorbs OS
    // preemption between the body's last self-read and the phase end.
    assert!(
        exec >= 0.6 * busy,
        "exec under-attributed: exec={exec} busy={busy}"
    );
    assert!(
        exec <= busy + 100e6,
        "exec inflated beyond busy work: exec={exec} busy={busy}"
    );
    assert!(func >= exec, "Eq. 1 violated: func={func} < exec={exec}");
    assert_exec_le_func_per_worker(&r);
    assert!(
        (0.0..=1.0).contains(&idle),
        "idle-rate out of range: {idle}"
    );
}

/// Quiescent wall time must not be charged to cumulative-func: after the
/// runtime goes idle, a long sleep followed by a single trivial task may
/// add at most dispatch noise, never the sleep itself. This is the
/// quiescent-window discard rule.
#[test]
fn quiescent_windows_are_not_charged_to_func() {
    let r = rt(2);
    r.spawn(|_| {});
    r.wait_idle();
    let func0 = query(&r, FUNC);
    std::thread::sleep(Duration::from_millis(500));
    r.spawn(|_| {});
    r.wait_idle();
    let func1 = query(&r, FUNC);
    let delta_ms = (func1 - func0) / 1e6;
    // Both workers charging the full sleep would show ~1000ms here; the
    // correct behavior is microseconds (one park timeout per wake, plus
    // one trivial phase). 250ms distinguishes the two with a wide berth
    // for a loaded CI host.
    assert!(
        delta_ms < 250.0,
        "quiescent sleep was charged to func: Δ={delta_ms}ms"
    );
}

/// A mostly-idle runtime must not accumulate exec: a burst of tiny tasks,
/// a long quiescent gap, another burst, then exec stays small in
/// absolute terms.
#[test]
fn tiny_tasks_do_not_accumulate_phantom_exec() {
    let r = rt(2);
    for _ in 0..200 {
        r.spawn(|_| {});
    }
    r.wait_idle();
    std::thread::sleep(Duration::from_millis(200));
    for _ in 0..200 {
        r.spawn(|_| {});
    }
    r.wait_idle();
    let exec_ms = query(&r, EXEC) / 1e6;
    // 400 empty bodies are microseconds of real work. Allow generous CI
    // slop, but a clock that misattributes the 200ms gap (or park
    // timeouts) into exec lands far above this.
    assert!(exec_ms < 150.0, "phantom exec accumulated: {exec_ms}ms");
    let func = query(&r, FUNC);
    let exec = query(&r, EXEC);
    assert!(func >= exec, "Eq. 1 violated: func={func} < exec={exec}");
    assert_exec_le_func_per_worker(&r);
}
