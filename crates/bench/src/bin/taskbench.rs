//! `taskbench` — the (graph family × task grain × communication volume)
//! granularity surface.
//!
//! The paper characterizes task-size overheads with one application, the
//! 1-D stencil, so its conclusions are a single curve per platform. This
//! binary (in the spirit of Task Bench) sweeps the same Eq. 1–6 metrics
//! over a *surface*: five dependency-graph families (stencil halo, FFT
//! butterfly, tree reduce-broadcast, seeded random DAG, embarrassingly-
//! parallel sweep) × calibrated task grains × bytes-per-edge, all
//! generated deterministically from one seed and executed three ways —
//! on a single runtime via futures, as a `grain-service` job, and across
//! grain-net loopback localities where cross-partition edges travel as
//! parcels.
//!
//! Every run's checksum is asserted against the sequential reference
//! (non-zero exit on divergence).
//!
//! **Caveat (single-core hosts)**: with one core the Eq. 1 idle rate and
//! Eq. 6 wait time mostly measure OS scheduling, not runtime contention,
//! and loopback localities multiply threads rather than cores. The
//! header prints detected parallelism so recorded results are
//! interpretable; compare numbers only within one host.
//!
//! Flags: `--quick` (bounded sweep),
//! `--seed N`.

use grain_net::bootstrap::Fabric;
use grain_runtime::{Runtime, RuntimeConfig};
use grain_service::{JobService, JobSpec};
use grain_taskbench::{
    all_kinds, measure_local, run_service_job, Calibration, DistTaskBench, GraphSpec,
};
use std::time::Duration;

/// Workers for the measured multi-worker runs (the td1 baseline always
/// uses one).
const WORKERS: usize = 4;

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: taskbench [--quick] [--seed N]\n\
         Sweeps five dependency-graph families over task grain and\n\
         communication volume, emits Eqs. 1-6 per cell, checks the three\n\
         executors (runtime / service / distributed) against the\n\
         sequential reference."
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 })
}

/// Sweep the surface on the local executor, asserting every checksum
/// against the sequential reference. Eq. 6 uses a 1-worker run of the
/// *same* cell as its t_d(1) baseline, per the paper's definition.
fn sweep(seed: u64, tasks_budget: usize, grains: &[u64], payloads: &[u32]) {
    let rt1 = Runtime::with_workers(1);
    let rt_w = Runtime::with_workers(WORKERS);
    println!(
        "{:<10} {:>10} {:>8} {:>6} {:>7} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "family",
        "grain-it",
        "payload",
        "tasks",
        "idle",
        "t_d(ns)",
        "t_o(ns)",
        "T_o(s)",
        "wait(s)",
        "wall(ms)"
    );
    for kind in all_kinds(tasks_budget) {
        for &grain in grains {
            for &payload in payloads {
                let graph = GraphSpec::shape(kind, seed)
                    .grain(grain)
                    .payload(payload)
                    .build();
                let want = graph.checksum_reference();

                let base = measure_local(&rt1, &graph).expect("1-worker run settles");
                assert_eq!(base.checksum, want, "1-worker {} diverged", kind.name());
                let td1_ns = base.record.task_duration_ns();

                let m = measure_local(&rt_w, &graph).expect("measured run settles");
                assert_eq!(m.checksum, want, "{} diverged from reference", kind.name());
                let r = &m.record;
                println!(
                    "{:<10} {:>10} {:>8} {:>6} {:>6.1}% {:>10.0} {:>10.0} {:>9.6} {:>9.6} {:>9.2}",
                    kind.name(),
                    grain,
                    payload,
                    r.tasks,
                    100.0 * r.idle_rate(),
                    r.task_duration_ns(),
                    r.task_overhead_ns(),
                    r.thread_management_s(),
                    r.wait_time_s(td1_ns),
                    r.wall_s * 1e3,
                );
            }
        }
    }
}

/// Run one random-DAG graph through all three executors and assert the
/// checksums are identical (and equal to the sequential reference).
fn equivalence(seed: u64, tasks_budget: usize, grain: u64, payload: u32) {
    let side = (tasks_budget as f64).sqrt().ceil() as usize;
    let graph = std::sync::Arc::new(
        GraphSpec::shape(
            grain_taskbench::GraphKind::RandomDag {
                width: side,
                steps: side.saturating_sub(1).max(1),
                max_deps: 3,
            },
            seed,
        )
        .grain(grain)
        .payload(payload)
        .build(),
    );
    let want = graph.checksum_reference();

    let rt = Runtime::with_workers(2);
    let local = grain_taskbench::run_local(&rt, &graph).expect("local run settles");
    assert_eq!(local, want, "local executor diverged");

    let service = JobService::with_workers(2);
    let via_job = run_service_job(&service, JobSpec::new("taskbench-eq", "bench"), &graph)
        .expect("service job completes");
    assert_eq!(via_job, want, "service executor diverged");

    let fabric = Fabric::loopback(2, |_| RuntimeConfig::with_workers(1));
    let instances: Vec<DistTaskBench> = (0..2)
        .map(|k| DistTaskBench::install(fabric.locality(k), std::sync::Arc::clone(&graph)))
        .collect();
    for inst in &instances {
        inst.start();
    }
    let dist = instances[0].collect().expect("distributed run settles");
    assert_eq!(dist, want, "distributed executor diverged");
    let parcels: u64 = (0..2)
        .map(|k| fabric.locality(k).parcels().sent.get())
        .sum();
    let bytes: u64 = (0..2)
        .map(|k| fabric.locality(k).parcels().bytes_sent.get())
        .sum();
    fabric.shutdown();

    println!(
        "equivalence: {} nodes, checksum {want:#018x} identical on runtime / service / 2 localities \
         ({parcels} parcels, {bytes} B shipped)",
        graph.len()
    );

    // The same partitioned run, measured: one Eq. 1-6 RunRecord per
    // locality, so per-locality overhead is visible instead of folded
    // into a fabric-wide number. Wall times vary run to run; the
    // recombined checksum must not.
    let (total, per_loc) = grain_taskbench::measure_distributed_loopback(2, 1, &graph)
        .expect("measured loopback settles");
    assert_eq!(total, want, "measured distributed run diverged");
    for m in &per_loc {
        let r = &m.record;
        println!(
            "  locality {}: tasks {} exec {:.3} ms t_o {:.0} ns idle {:.3} partial {:#018x}",
            m.locality,
            r.tasks,
            r.sum_exec_ns as f64 / 1e6,
            r.task_overhead_ns(),
            r.idle_rate(),
            m.partial_checksum,
        );
    }
}

fn main() {
    let mut quick = false;
    let mut seed: u64 = 42;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("taskbench: dependency-graph granularity surface (graph x grain x comm)");
    println!(
        "host parallelism: {host} (idle/wait columns measure OS scheduling, not runtime \
         contention, when this is 1; loopback localities share the same cores)"
    );
    let cal = if quick {
        Calibration::quick()
    } else {
        Calibration::measure(5)
    };
    println!(
        "calibration: {:.2} ns per busy-work iteration on this host",
        cal.ns_per_iter
    );

    let tasks_budget = if quick { 40 } else { 192 };
    let grains: Vec<u64> = if quick {
        vec![
            cal.iters_for(Duration::from_micros(2)),
            cal.iters_for(Duration::from_micros(50)),
        ]
    } else {
        vec![
            cal.iters_for(Duration::from_micros(1)),
            cal.iters_for(Duration::from_micros(10)),
            cal.iters_for(Duration::from_micros(100)),
            cal.iters_for(Duration::from_micros(1000)),
        ]
    };
    let payloads: Vec<u32> = if quick {
        vec![0, 256]
    } else {
        vec![0, 256, 4096]
    };
    println!(
        "sweep: 5 families x grains {grains:?} iters x payloads {payloads:?} B, ~{tasks_budget} \
         tasks per graph, {WORKERS} workers (t_d(1) baseline re-run with 1 worker per cell)"
    );
    println!();

    sweep(seed, tasks_budget, &grains, &payloads);
    println!();
    equivalence(seed, tasks_budget, grains[0], 128);
    println!();
    println!("OK");
}
