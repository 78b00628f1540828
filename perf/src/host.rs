//! What the kernel says about this process: `/proc/self/{status,stat}`
//! and the per-thread `status` files. Missing files (a non-Linux host)
//! read as zero, so the benchmark still runs there.

use std::fs;

/// Cores the process may run on: 1 once [`pin_to_one_cpu`] succeeded.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to the highest-numbered CPU it may run on (interrupts tend to land on
/// the lowest). Returns that CPU, or `None` where the restriction is not
/// available (another OS, a refused call): the benchmark then runs on
/// every core it has.
///
/// Why: this host's vCPUs are scheduled by a hypervisor that for minutes
/// at a time makes a hand-off from one vCPU to the other 10-25 % slower
/// or faster, and nothing the benchmark can time beside a workload
/// follows that. On one vCPU a hand-off is a context switch inside the
/// guest and costs the same all day (README, "Noise protocol").
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // A `cpu_set_t` is 1024 bits.
        let mut allowed = [0u64; 16];
        let size = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is `size` writable bytes, aligned for the
        // kernel's `unsigned long` words; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = allowed.iter().rposition(|&w| w != 0)?;
        let bit = 63 - allowed[word].leading_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is `size` readable bytes; the call only reads it.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// The numeric value of `key:` in a `/proc/*/status`-style text.
fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// One reading of the process-wide numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostSample {
    /// Live threads.
    pub threads: u64,
    /// Peak resident set so far, MiB.
    pub peak_rss_mb: f64,
    /// User + system CPU seconds of the whole thread group so far.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches summed over the
    /// threads alive now (a thread that exited takes its count along).
    pub ctx_switches: u64,
}

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux
/// has reported 100 to user space on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

impl HostSample {
    /// Read the current values.
    pub fn take() -> Self {
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields of the line, so 12th and 13th
        // after the closing parenthesis.
        let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let mut fields = after_comm.split_whitespace().skip(11);
        let mut ticks = || -> f64 { fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0) };
        let cpu_s = (ticks() + ticks()) / CLK_TCK;
        let ctx_switches = fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
            .map(|s| {
                status_field(&s, "voluntary_ctxt_switches")
                    + status_field(&s, "nonvoluntary_ctxt_switches")
            })
            .sum();
        Self {
            threads: status_field(&status, "Threads"),
            peak_rss_mb: status_field(&status, "VmHWM") as f64 / 1024.0,
            cpu_s,
            ctx_switches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_by_exact_key() {
        let text = "Name:\tperf\nVmHWM:\t   20480 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(text, "Threads"), 7);
        assert_eq!(status_field(text, "VmHWM"), 20480);
        assert_eq!(status_field(text, "voluntary_ctxt_switches"), 12);
        assert_eq!(status_field(text, "nonvoluntary_ctxt_switches"), 3);
        assert_eq!(status_field(text, "Missing"), 0);
    }

    #[test]
    fn a_sample_of_this_process_is_plausible() {
        let s = HostSample::take();
        if cfg!(target_os = "linux") {
            assert!(s.threads >= 1);
            assert!(s.peak_rss_mb > 0.0);
        }
        assert!(nproc() >= 1);
    }
}
