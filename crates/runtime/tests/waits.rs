//! A thread joining a runtime or a group sleeps until the event it waits
//! for: the last task's completion notifies it. A wait that re-checked
//! on a timer would switch context once per tick, on any host.
//!
//! The count is the waiting thread's own, from
//! `/proc/thread-self/status`, so tests running beside it in this
//! binary do not move it.
#![allow(
    clippy::disallowed_methods,
    reason = "a test paces its scenario with sleeps; the rule is for product code"
)]

use grain_runtime::{Priority, Runtime, TaskGroup};
use std::time::Duration;

/// How long the one task runs: a 1 ms re-check would switch about 100
/// times meanwhile.
const TASK: Duration = Duration::from_millis(100);
/// One sleep, one wake-up, and room for a spurious one.
const BUDGET: u64 = 4;

/// Voluntary context switches of the calling thread, which is one per
/// blocking sleep; `None` where `/proc` is absent.
fn own_voluntary_switches() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let n = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
    Some(n.trim().parse().expect("a switch count"))
}

/// Switches of the calling thread while `wait` runs, or `None`.
fn switches_during(wait: impl FnOnce()) -> Option<u64> {
    let before = own_voluntary_switches()?;
    wait();
    Some(own_voluntary_switches().expect("read before") - before)
}

#[test]
fn wait_idle_sleeps_until_the_last_task_is_done() {
    let rt = Runtime::with_workers(1);
    rt.spawn(|_| std::thread::sleep(TASK));
    let Some(switches) = switches_during(|| rt.wait_idle()) else {
        return;
    };
    assert!(
        switches <= BUDGET,
        "{switches} context switches in wait_idle over a {TASK:?} task (budget {BUDGET})"
    );
}

#[test]
fn group_wait_sleeps_until_the_last_member_exits() {
    let rt = Runtime::with_workers(1);
    let group = TaskGroup::new();
    rt.spawn_in(&group, Priority::Normal, |_| std::thread::sleep(TASK));
    let Some(switches) = switches_during(|| group.wait()) else {
        return;
    };
    assert!(
        switches <= BUDGET,
        "{switches} context switches in TaskGroup::wait over a {TASK:?} task (budget {BUDGET})"
    );
    rt.wait_idle();
}
