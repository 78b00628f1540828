//! A thread joining a runtime, a group or a future sleeps until the event
//! it waits for: the last task's completion, or the settle, notifies it.
//! A wait that re-checked on a timer would switch context once per tick,
//! on any host.
//!
//! The count is the waiting thread's own, from
//! `/proc/thread-self/status`, so tests running beside it in this
//! binary do not move it.
#![allow(
    clippy::disallowed_methods,
    reason = "a test paces its scenario with sleeps; the rule is for product code"
)]

#[path = "support/switches.rs"]
mod switches;

use grain_runtime::{Priority, Runtime, TaskGroup};
use std::time::Duration;
use switches::switches_during;

/// How long the one task runs: a 1 ms re-check would switch about 100
/// times meanwhile.
const TASK: Duration = Duration::from_millis(100);
/// One sleep, one wake-up, and room for a spurious one.
const BUDGET: u64 = 4;

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

/// A blocked `get` parks in the future's waiter list and sleeps until the
/// settle wakes it, as a continuation would run.
#[test]
fn future_get_sleeps_until_the_settle() {
    let rt = Runtime::with_workers(1);
    let f = rt.async_call(|_| {
        std::thread::sleep(TASK);
        7u64
    });
    let Some(switches) = switches_during(|| assert_eq!(*f.get(), 7)) else {
        return;
    };
    assert!(
        switches <= BUDGET,
        "{switches} context switches in SharedFuture::get over a {TASK:?} task (budget {BUDGET})"
    );
}
