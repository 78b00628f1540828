//! The calling thread's own voluntary context switches, which are one per
//! blocking sleep, from `/proc/thread-self/status`: tests running beside
//! it in the same binary do not move the count.

/// Voluntary context switches of the calling thread; `None` where
/// `/proc` is absent.
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
