//! Context switches read from `/proc`, for the tests that bound them.
//! Each includes this one file by path:
//!
//! ```ignore
//! #[path = "../../runtime/tests/support/switches.rs"]
//! mod switches;
//! ```
#![allow(
    dead_code,
    reason = "each test binary that includes this file uses part of it"
)]

use std::collections::HashMap;

/// Voluntary context switches of the calling thread, which are one per
/// blocking sleep; tests running beside it in the same binary do not
/// move the count. `None` where `/proc` is absent.
fn own_voluntary_switches() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let n = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
    Some(n.trim().parse().expect("a switch count"))
}

/// Switches of the calling thread while `wait` runs, or `None`.
pub fn switches_during(wait: impl FnOnce()) -> Option<u64> {
    let before = own_voluntary_switches()?;
    wait();
    Some(own_voluntary_switches().expect("read before") - before)
}

/// Voluntary plus involuntary context switches of every thread of this
/// process whose name starts with one of `prefixes`, by thread id; `None`
/// where `/proc` is absent. A thread's `comm` holds the first 15 bytes
/// of its name.
pub fn thread_switches(prefixes: &[&str]) -> Option<HashMap<String, u64>> {
    let mut switches = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let dir = task.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !prefixes.iter().any(|p| comm.starts_with(p)) {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else {
            continue;
        };
        let mut n = 0;
        for line in status.lines() {
            if let Some(("voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches", v)) =
                line.split_once(':')
            {
                n += v.trim().parse::<u64>().expect("a switch count");
            }
        }
        switches.insert(task.file_name().to_string_lossy().into_owned(), n);
    }
    Some(switches)
}
