//! Detection of the machine the library is actually running on.
//!
//! The native runtime sizes its default worker pool from this (HPX: "by
//! default it will use all available cores and will create one static OS
//! thread per core"). On Linux, NUMA layout is read from sysfs when
//! present; everything degrades gracefully to a flat single-domain view.

use crate::numa::NumaTopology;

/// Number of logical CPUs available to this process.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Number of NUMA nodes, from `/sys/devices/system/node` when readable,
/// else 1.
fn numa_nodes() -> usize {
    let Ok(entries) = std::fs::read_dir("/sys/devices/system/node") else {
        return 1;
    };
    let n = entries
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .map(|s| s.starts_with("node") && s[4..].chars().all(|c| c.is_ascii_digit()))
                .unwrap_or(false)
        })
        .count();
    n.max(1)
}

/// Topology for `workers` workers on the host machine.
pub fn host_topology(workers: usize) -> NumaTopology {
    NumaTopology::block(workers.max(1), numa_nodes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_one_core() {
        assert!(available_cores() >= 1);
        assert!(numa_nodes() >= 1);
    }

    #[test]
    fn host_topology_covers_workers() {
        let t = host_topology(4);
        assert_eq!(t.workers(), 4);
        assert!(t.domains() >= 1);
    }
}
