//! The simulator on `TaskGraph`s: the lowering to its input, and the
//! engine behaviours that need a shape — independent tasks are a
//! `Sweep` of one level, a chain is a `Sweep` of one lane.

use grain_metrics::{simulate, SimConfig};
use grain_sim::SimWorkload;
use grain_taskbench::{all_kinds, Cov, GraphKind, GraphSpec};
use grain_topology::presets;

fn cfg() -> SimConfig {
    SimConfig::default()
}

/// `width` independent lanes of `steps + 1` tasks of `points` each.
fn sweep(width: usize, steps: usize, points: u64) -> SimWorkload {
    GraphSpec::shape(GraphKind::Sweep { width, steps }, 0)
        .grain(points)
        .build()
        .sim_workload()
}

#[test]
fn every_family_lowers_node_for_node_and_completes() {
    let covs = [
        Cov::Uniform,
        Cov::Bimodal {
            heavy_pct: 10,
            ratio: 8,
        },
    ];
    for kind in all_kinds(36) {
        for cov in covs {
            let graph = GraphSpec::shape(kind, 11).grain(1_000).cov(cov).build();
            let wl = graph.sim_workload();
            let ctx = format!("{kind:?} {cov:?}");
            wl.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(wl.len(), graph.len(), "{ctx}");
            for (i, task) in wl.tasks.iter().enumerate() {
                let srcs: Vec<u32> = graph.preds(i as u32).iter().map(|e| e.src).collect();
                assert_eq!(task.deps, srcs, "{ctx}: task {i}");
                assert_eq!(task.points, graph.spec.node_iters(i as u32), "{ctx}");
            }
            for workers in [1, 4] {
                let r = simulate(&presets::haswell(), workers, &wl, &cfg());
                assert_eq!(
                    r.window.tasks as usize,
                    graph.len(),
                    "{ctx}: {workers} workers"
                );
            }
        }
    }
}

#[test]
fn single_task_time_matches_model() {
    let p = presets::haswell();
    let wl = sweep(1, 0, 100_000);
    let r = simulate(&p, 1, &wl, &cfg());
    assert_eq!(r.window.tasks, 1);
    let kernel = p.perf.task_fixed_ns + 100_000.0 * p.perf.per_point_ns(1, 1, false);
    // Wall = kernel (± jitter) + scheduling costs.
    assert!(
        r.wall_ns > kernel * 0.8 && r.wall_ns < kernel * 1.3,
        "wall {}",
        r.wall_ns
    );
    assert!(r.window.func_ns >= r.window.exec_ns);
}

#[test]
fn all_tasks_complete_and_counters_are_consistent() {
    let wl = sweep(500, 0, 5_000);
    let r = simulate(&presets::haswell(), 8, &wl, &cfg());
    assert_eq!(r.window.tasks, 500);
    assert_eq!(r.window.converted, 500);
    assert_eq!(r.tasks_per_worker.iter().sum::<u64>(), 500);
    assert!(r.window.func_ns >= r.window.exec_ns);
    assert!(r.window.pending_accesses >= r.window.pending_misses);
    assert!(r.window.staged_accesses >= r.window.staged_misses);
    assert!((0.0..=1.0).contains(&r.window.idle_rate()));
}

#[test]
fn a_one_worker_chain_probes_three_queues_per_task() {
    // Per task: own pending misses, own staged hits and converts, own
    // pending hits. A high-priority queue would add two probes, and
    // each counted probe is one that the engine's search prices.
    let n = 40;
    let r = simulate(&presets::haswell(), 1, &sweep(1, n - 1, 1_000), &cfg());
    let n = n as u64;
    assert_eq!(
        (r.window.pending_accesses, r.window.pending_misses),
        (2 * n, n)
    );
    assert_eq!((r.window.staged_accesses, r.window.staged_misses), (n, 0));
}

#[test]
fn parallelism_shrinks_wall_clock() {
    let wl = sweep(256, 0, 50_000);
    let one = simulate(&presets::haswell(), 1, &wl, &cfg());
    let eight = simulate(&presets::haswell(), 8, &wl, &cfg());
    assert!(
        eight.wall_ns < one.wall_ns / 2.0,
        "8 workers {} vs 1 worker {}",
        eight.wall_ns,
        one.wall_ns
    );
}

#[test]
fn chain_is_serialized_regardless_of_workers() {
    let wl = sweep(1, 49, 50_000);
    let one = simulate(&presets::haswell(), 1, &wl, &cfg());
    let many = simulate(&presets::haswell(), 8, &wl, &cfg());
    // A dependency chain cannot parallelize; the multi-worker run pays
    // the same serial latency, modulated only by the first-touch
    // striping boost (a lone stream on a parallel run reads at
    // `stripe_factor` × the single-core bandwidth) and steal costs.
    let stripe = presets::haswell().perf.stripe_factor;
    assert!(many.wall_ns > one.wall_ns / (stripe * 1.2));
    assert!(many.wall_ns < one.wall_ns * 1.5);
    assert_eq!(many.window.tasks, 50);
}

#[test]
fn starving_workers_accrue_idle_rate() {
    // One long chain on many workers: most workers starve, so Σt_func
    // must be much larger than Σt_exec (the coarse-grain right edge of
    // Figs. 4 and 5).
    let wl = sweep(1, 19, 1_000_000);
    let r = simulate(&presets::haswell(), 16, &wl, &cfg());
    assert!(
        r.window.idle_rate() > 0.5,
        "idle-rate {} too low for a starving run",
        r.window.idle_rate()
    );
    // And the starving sweeps must show up in the queue counters.
    assert!(r.window.pending_misses > r.window.tasks * 16);
}

#[test]
fn fine_grain_has_higher_overhead_share_than_medium_grain() {
    // Same total points, different granularity, 8 workers.
    let fine = sweep(10_000, 0, 100);
    let medium = sweep(100, 0, 10_000);
    let rf = simulate(&presets::haswell(), 8, &fine, &cfg());
    let rm = simulate(&presets::haswell(), 8, &medium, &cfg());
    assert!(
        rf.window.task_overhead_ns() / rf.window.task_duration_ns()
            > rm.window.task_overhead_ns() / rm.window.task_duration_ns(),
        "fine grain must have a worse overhead ratio"
    );
}

#[test]
fn deterministic_given_seed() {
    let wl = sweep(200, 0, 2_000);
    let a = simulate(&presets::xeon_phi(), 16, &wl, &cfg());
    let b = simulate(&presets::xeon_phi(), 16, &wl, &cfg());
    assert_eq!(a, b);
    let c = simulate(&presets::xeon_phi(), 16, &wl, &SimConfig { seed: 99 });
    assert_ne!(a.wall_ns, c.wall_ns, "different seed, different jitter");
}

#[test]
fn work_spreads_across_workers() {
    let wl = sweep(1_000, 0, 10_000);
    let r = simulate(&presets::haswell(), 8, &wl, &cfg());
    let active = r.tasks_per_worker.iter().filter(|&&t| t > 0).count();
    assert!(active >= 7, "distribution {:?}", r.tasks_per_worker);
}

#[test]
fn stencil_parallelism_beats_a_chain_of_the_same_size() {
    // 64 tasks either way: a chain cannot overlap any, an 8-lane stencil
    // exposes up to 8-way parallelism per step.
    let chain = sweep(1, 63, 50_000);
    let square = GraphSpec::shape(GraphKind::Stencil1d { width: 8, steps: 7 }, 0)
        .grain(50_000)
        .build()
        .sim_workload();
    let p = presets::haswell();
    let t_chain = simulate(&p, 8, &chain, &cfg()).wall_ns;
    let t_square = simulate(&p, 8, &square, &cfg()).wall_ns;
    assert!(
        t_square < t_chain * 0.6,
        "square stencil must parallelize: {t_square} vs chain {t_chain}"
    );
}
