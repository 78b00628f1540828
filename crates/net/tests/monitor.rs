//! The net monitor sleeps until something is due: the next ping when a
//! liveness deadline is armed, the oldest pending call's deadline when a
//! call deadline is. With only a call deadline and no call in flight,
//! nothing is due, so the monitor thread is not scheduled at all. One
//! that woke on a tick of a quarter of the deadline would switch context
//! every 10 ms here.
//!
//! The count comes from `/proc/self/task/*/status`, summed over this
//! process's `grain-net-mon-*` threads. This file holds one test, so its
//! binary runs no other locality whose monitor could be counted.

#[path = "../../runtime/tests/support/pace.rs"]
mod pace;
#[path = "../../runtime/tests/support/switches.rs"]
mod switches;

use grain_net::{Locality, NetConfig};
use grain_runtime::{Runtime, RuntimeConfig};
use pace::pace;
use std::sync::Arc;
use std::time::{Duration, Instant};
use switches::thread_switches;

const MONITOR: &[&str] = &["grain-net-mon-"];

/// A 40 ms call deadline, no call: at most 4 switches in 200 ms.
#[test]
fn an_idle_call_deadline_monitor_is_not_scheduled() {
    const BUDGET: u64 = 4;
    let config = NetConfig {
        liveness_deadline: None,
        call_deadline: Some(Duration::from_millis(40)),
    };
    let runtime = Arc::new(Runtime::new(RuntimeConfig::with_workers(1)));
    let locality = Locality::with_config(runtime, 0, 1, config).expect("fresh registry");
    // The thread names itself once it runs: wait until it is visible.
    let t0 = Instant::now();
    let before = loop {
        let Some(monitor) = thread_switches(MONITOR) else {
            return;
        };
        if !monitor.is_empty() {
            break monitor;
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "no monitor thread");
        pace(Duration::from_millis(1));
    };
    assert_eq!(before.len(), 1, "one monitor: {before:?}");
    pace(Duration::from_millis(200));
    let after = thread_switches(MONITOR).expect("/proc was there a moment ago");
    let switches: u64 = after
        .iter()
        .map(|(tid, n)| n - before.get(tid).copied().unwrap_or(0))
        .sum();
    assert!(
        switches <= BUDGET,
        "{switches} monitor context switches in a 200 ms window with no call (budget {BUDGET})"
    );
    drop(locality);
}
