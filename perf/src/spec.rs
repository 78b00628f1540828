//! Every pinned constant of the benchmark: workload shapes and
//! operation counts, metric names with unit, direction and bound, and
//! the text of `BENCHMARK.json`, which is generated from these tables so
//! names in code and file cannot drift.
//!
//! Nothing here is measured or calibrated: a run's work is a function
//! of these constants and the epoch count only.

use std::fmt::Write as _;
use std::time::Duration;

/// What one operation of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `run_local` of the graph on one `Runtime`.
    GraphLocal,
    /// The graph as a `JobService` job, two tenants alternating.
    ServiceJobs,
    /// The graph split by `DistTaskBench` over loopback localities.
    DistGraph,
    /// A `FleetJobSpec` routed by a gateway over TCP localities.
    FleetTcp,
}

/// Where a workload's serial reference (ns per task) comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reference {
    /// Timed before and after every epoch, on one thread per core the
    /// process may run on (one, once it is pinned).
    Measured,
    /// Not timed: this many ns per task, always. For a workload that
    /// waits on timers, not on the CPU: dividing by a measurement would
    /// only add the measurement's noise.
    Pinned(f64),
}

/// One workload: a `Stencil1d` graph shape and how it is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// What an operation is.
    pub kind: Kind,
    /// Stencil lanes (graph width).
    pub lanes: usize,
    /// Stencil steps beyond the initial level.
    pub steps: usize,
    /// Busy-work iterations per task.
    pub grain_iters: u64,
    /// Bytes per dependency edge.
    pub payload_bytes: u32,
    /// Timed operations per epoch.
    pub ops: u64,
    /// Warm-up operations per epoch, run and verified but not timed: a
    /// tenth of `ops`, except where a longer transient must pass.
    pub warmup: u64,
    /// Operations the one generator thread keeps outstanding.
    pub outstanding: usize,
    /// Source of the serial reference.
    pub reference: Reference,
}

impl Workload {
    /// Tasks in one operation's graph.
    pub fn tasks_per_op(&self) -> u64 {
        (self.lanes * (self.steps + 1)) as u64
    }
}

/// Localities of `dist_graph` (1 worker each).
pub const DIST_LOCALITIES: usize = 2;
/// Worker localities of `fleet_tcp` (1 service worker each); the
/// gateway is a third locality.
pub const FLEET_WORKERS: usize = 2;
/// `FleetConfig::stats_max_age` of `fleet_tcp`'s gateway (default
/// 5 ms). At the default the gateway polls every worker 200 times a
/// second over the sockets the jobs use, and each poll can release a
/// delayed-ACK stall early: a job then takes 8 ms or 88 ms by chance
/// and `tasks_per_s` differs by half between epochs. Polled once per
/// epoch, every job waits out both timers and the workload repeats to
/// a percent. The polls' own cost is priced by the ladder
/// (`fleet.stats_polls_per_job`).
pub const FLEET_STATS_MAX_AGE: Duration = Duration::from_secs(5);
/// The two tenants `service_jobs` and `fleet_tcp` alternate between.
pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// The five workloads, in the order `perf aa` and `--smoke` run them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "graph_fine",
        why: "1 us tasks: queue, spawn, dataflow and future settle are the run; every per-task lever shows here",
        kind: Kind::GraphLocal,
        lanes: 32,
        steps: 32,
        grain_iters: 1_000,
        payload_bytes: 0,
        ops: 300,
        warmup: 30,
        outstanding: 1,
        reference: Reference::Measured,
    },
    Workload {
        name: "graph_coarse",
        why: "34 us tasks: the bypass for per-task work; a per-task lever predicts no change here, so a move here is the host or a stall",
        kind: Kind::GraphLocal,
        lanes: 32,
        steps: 32,
        grain_iters: 25_000,
        payload_bytes: 0,
        ops: 30,
        warmup: 3,
        outstanding: 1,
        reference: Reference::Measured,
    },
    Workload {
        name: "service_jobs",
        why: "144-task jobs through JobService, 2 outstanding: admission, fair queue, dispatcher, group settle, completion wake",
        kind: Kind::ServiceJobs,
        lanes: 16,
        steps: 8,
        grain_iters: 5_000,
        payload_bytes: 0,
        ops: 800,
        warmup: 80,
        outstanding: 2,
        reference: Reference::Measured,
    },
    Workload {
        name: "dist_graph",
        why: "graph over 2 loopback localities, 64-byte edges: codec, parcelport queue, writer, future-over-parcel; no sockets",
        kind: Kind::DistGraph,
        lanes: 32,
        steps: 32,
        // Not the issue's 5 000: the level-to-level hand-offs between
        // the two localities run in one of two modes, a third of an
        // operation apart at 5 000 and a sixth at 20 000, for 5-15 s at
        // a time; at 5 000 one run in seven saw only the slow mode and
        // read 0.46 where the others read 0.60-0.63 (README).
        grain_iters: 20_000,
        payload_bytes: 64,
        ops: 30,
        warmup: 3,
        outstanding: 1,
        reference: Reference::Measured,
    },
    Workload {
        name: "fleet_tcp",
        why: "fleet-routed 144-task jobs over 127.0.0.1 TCP, 4 outstanding: gateway, request/response parcels on real sockets",
        kind: Kind::FleetTcp,
        lanes: 12,
        steps: 11,
        grain_iters: 5_000,
        payload_bytes: 0,
        ops: 80,
        warmup: 8,
        outstanding: 4,
        // Timer-bound: a job takes two 44 ms kernel timers whatever the
        // CPU does (its wall time repeats to 0.02 %), so a measured
        // reference would be the only noise in its ratios (1-11 % between
        // runs). 7.2 us is what a 5 000-iteration task takes here.
        reference: Reference::Pinned(7_200.0),
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How large a run is. Only [`Scale::FULL`] produces numbers meant to
/// be compared; [`Scale::SMOKE`] exists so tests and `check.sh` can
/// drive every code path in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Operation counts are divided by this (never below 2 per epoch).
    pub ops_divisor: u64,
    /// Shortest time the serial reference is repeated for.
    pub reference_min: Duration,
}

impl Scale {
    /// The sizes `BENCHMARK.json` runs.
    pub const FULL: Scale = Scale {
        ops_divisor: 1,
        reference_min: Duration::from_millis(100),
    };
    /// `--smoke`: ops ÷ 50.
    pub const SMOKE: Scale = Scale {
        ops_divisor: 50,
        reference_min: Duration::from_millis(5),
    };

    /// Timed operations per epoch of `w` at this scale.
    pub fn ops(&self, w: &Workload) -> u64 {
        (w.ops / self.ops_divisor).max(2)
    }

    /// Warm-up operations per epoch of `w` at this scale.
    pub fn warmup_ops(&self, w: &Workload) -> u64 {
        (w.warmup / self.ops_divisor).max(1)
    }
}

/// Seconds one epoch takes on the reference host, all in: both
/// reference timings, set-up, the timed phase and teardown (measured
/// 1.6-2.1 s, README).
pub const EPOCH_SECONDS: u64 = 2;
/// Epochs never go below this, however short `--seconds` is.
pub const MIN_EPOCHS: usize = 5;
/// Epochs of a `--smoke` run.
pub const SMOKE_EPOCHS: usize = 2;
/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`:
/// 12 epochs.
pub const RUN_SECONDS: u64 = 24;

/// Epochs of a run asked to measure for `seconds`: run length changes
/// through the epoch count only, never through the work per epoch.
pub fn epochs_for(seconds: u64) -> usize {
    ((seconds / EPOCH_SECONDS) as usize).clamp(MIN_EPOCHS, 30)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]` only.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// The end-to-end metrics every workload reports, each with the share
/// of the parent's median it may worsen by. The first two are ratios
/// to the run's serial reference, so host speed cancels; their
/// wall-clock forms are the per-layer `raw.*` metrics. `setup_s` is
/// wall-clock seconds. All three are quiet levels (`stats::quiet`).
///
/// A bound is per metric, so it has to cover the workload that repeats
/// worst at the worst hour. Ten runs per workload repeat within a
/// quartile distance of 0.02-0.04 of the median in ordinary stretches;
/// in the worst recorded one, where four runs of ten fell into minutes
/// in which the host slows the workloads and not the reference,
/// `graph_coarse` and `service_jobs` reached 0.09-0.11 (README,
/// "Measured on this host"). The acceptance check refuses a quartile
/// distance above the bound and asks for a third of it, so the bound
/// stays the largest allowed.
pub const END_TO_END: [(Metric, f64); 3] = [
    (m("efficiency", "ratio", Higher), 0.25),
    (m("op_p50_vs_serial", "ratio", Lower), 0.25),
    (m("setup_s", "s", Lower), 0.25),
];

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: [Metric; 60] = [
    // the wall-clock forms of the end-to-end ratios, and the tail
    // latency both ways, of this workload
    m("raw.tasks_per_s", "1/s", Higher),
    m("raw.op_p50_us", "us", Lower),
    m("raw.op_tail_us", "us", Lower),
    m("op_tail_vs_serial", "ratio", Lower),
    // runtime: rungs, then /threads/* of the workload's own epochs.
    m("runtime.queue.push_pop_ns", "ns", Lower),
    m("runtime.spawn.task_ns", "ns", Lower),
    m("runtime.async.call_ns", "ns", Lower),
    m("runtime.dataflow.node_ns", "ns", Lower),
    m("runtime.future.settle_ns", "ns", Lower),
    m("runtime.allocs_per_task", "count", Lower),
    m("runtime.wake_us", "us", Lower),
    m("runtime.t_o_ns", "ns", Lower),
    m("runtime.t_d_ns", "ns", Lower),
    m("runtime.idle_rate", "ratio", Lower),
    m("runtime.pending_miss_ratio", "ratio", Lower),
    m("runtime.steals", "count", Lower),
    m("counters.query_ns", "ns", Lower),
    // taskbench
    m("taskbench.build_us", "us", Lower),
    m("taskbench.serial_ns_per_task", "ns", Lower),
    m("host.ref_drift_pct", "%", Lower),
    m("taskbench.metg_us", "us", Lower),
    // stencil
    m("stencil.seq_points_per_s", "1/s", Higher),
    m("stencil.heat_points_per_s", "1/s", Higher),
    // service
    m("service.submit_call_ns", "ns", Lower),
    m("service.empty_job_us", "us", Lower),
    m("service.queue_to_start_us", "us", Lower),
    m("service.settle_to_wake_us", "us", Lower),
    m("service.allocs_per_job", "count", Lower),
    m("service.overhead_us_per_job", "us", Lower),
    m("service.admission_wait_p50_us", "us", Lower),
    m("service.rejected", "count", Lower),
    m("service.shed", "count", Lower),
    m("service.open_p99_us_r50", "us", Lower),
    m("service.open_p99_us_r80", "us", Lower),
    m("service.gen_late_p99_us", "us", Lower),
    // net
    m("net.codec.encode_ns", "ns", Lower),
    m("net.codec.decode_ns", "ns", Lower),
    m("net.codec.frame_bytes", "count", Lower),
    m("net.loopback.rtt_us", "us", Lower),
    m("net.parcels_per_op", "count", Lower),
    m("net.bytes_per_parcel", "count", Lower),
    m("net.allocs_per_parcel", "count", Lower),
    m("net.sent_minus_received", "count", Lower),
    m("net.tcp.rtt_us", "us", Lower),
    m("net.tcp.stream_parcels_per_s", "1/s", Higher),
    m("net.tcp.ctx_switches_per_parcel", "count", Lower),
    // fleet
    m("fleet.submit_call_ns", "ns", Lower),
    m("fleet.empty_job_loopback_us", "us", Lower),
    m("fleet.empty_job_tcp_us", "us", Lower),
    m("fleet.overhead_us_per_job", "us", Lower),
    m("fleet.dispatches_per_job", "count", Lower),
    m("fleet.stats_polls_per_job", "count", Lower),
    m("fleet.ledger_conserved", "count", Higher),
    // autotune
    m("autotune.submit_shaped_overhead_us", "us", Lower),
    // process-wide, from the workload's own epochs
    m("process.threads", "count", Lower),
    m("process.peak_rss_mb", "MiB", Lower),
    m("process.cpu_s_per_mtask", "s", Lower),
    m("process.ctx_switches_per_op", "count", Lower),
    m("trace.spans", "count", Higher),
    m("trace.overhead_pct", "%", Lower),
];

/// The program and arguments the driver runs, before its own flags.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// The exact text of `BENCHMARK.json` (`perf benchmark-json` prints it;
/// a test compares it with the committed file).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let quoted: Vec<String> = COMMAND.iter().map(|a| format!("\"{a}\"")).collect();
    let _ = writeln!(s, "  \"command\": [{}],", quoted.join(", "));
    let _ = writeln!(s, "  \"paths\": [\"perf\"],");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (metric, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            metric.name,
            metric.unit,
            metric.better.as_str()
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, metric) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            metric.name,
            metric.unit,
            metric.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.why
            );
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        let metrics = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter());
        for metric in metrics {
            assert!(name_ok(metric.name), "{}", metric.name);
            assert!(unit_ok(metric.unit), "{}: {}", metric.name, metric.unit);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        for (metric, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", metric.name);
        }
        let setup = END_TO_END.iter().find(|(m, _)| m.name == "setup_s");
        let (setup, setup_bound) = setup.expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|(_, b)| b <= setup_bound));
    }

    #[test]
    fn committed_benchmark_json_is_what_the_code_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn run_length_changes_only_through_the_epoch_count() {
        assert_eq!(epochs_for(RUN_SECONDS), 12);
        assert_eq!(epochs_for(1), MIN_EPOCHS);
        assert_eq!(epochs_for(60), 30);
        for w in &WORKLOADS {
            assert_eq!(Scale::FULL.ops(w), w.ops);
            assert!(Scale::SMOKE.ops(w) >= 2);
            assert_eq!(Scale::FULL.warmup_ops(w), w.warmup);
        }
    }

    #[test]
    fn task_counts_are_the_ones_the_issue_names() {
        let tasks: Vec<u64> = WORKLOADS.iter().map(Workload::tasks_per_op).collect();
        assert_eq!(tasks, [1056, 1056, 144, 1056, 144]);
    }
}
