//! Cross-crate integration tests: the whole pipeline from task runtime
//! through stencil, simulator, metrics, and adaptation.

use grain::metrics::sweep::{run_sweep, NativeEngine, SimEngine, StencilEngine};
use grain::metrics::{EngineKind, RunRecord};
use grain::runtime::{Runtime, RuntimeConfig};
use grain::sim::{simulate, SimConfig};
use grain::stencil::{run_futurized, run_sequential, stencil_workload, StencilParams};
use grain::topology::presets;

#[test]
fn native_and_simulated_engines_agree_on_structure() {
    // Both engines must execute exactly the same task DAG: same task
    // count, same conversion count, both with Σt_func ≥ Σt_exec.
    let nx = 2_000;
    let native = NativeEngine::scaled(100_000, 5);
    let sim = SimEngine::scaled(presets::haswell(), 100_000, 5);

    let a: RunRecord = native.run(nx, 2, 0);
    let b: RunRecord = sim.run(nx, 2, 0);

    assert_eq!(a.meta.engine, EngineKind::Native);
    assert_eq!(b.meta.engine, EngineKind::Simulated);
    assert_eq!(a.tasks, b.tasks, "same DAG, same task count");
    assert_eq!(a.converted, b.converted);
    assert_eq!(a.meta.np, b.meta.np);
    assert!(a.sum_func_ns >= a.sum_exec_ns);
    assert!(b.sum_func_ns >= b.sum_exec_ns);
}

#[test]
fn full_pipeline_stencil_to_metrics() {
    let params = StencilParams::new(1_000, 50, 5);
    let rt = Runtime::with_workers(2);
    let t0 = std::time::Instant::now();
    let grid = run_futurized(&rt, &params);
    let rec = RunRecord::from_native(&rt, t0.elapsed().as_secs_f64(), &params);

    assert_eq!(grid.len(), params.total_points());
    assert_eq!(rec.tasks as usize, params.total_tasks());
    assert!(rec.idle_rate() >= 0.0 && rec.idle_rate() <= 1.0);
    assert!(rec.task_duration_ns() > 0.0);
    // Eq. 4 bounded by wall time × workers.
    assert!(rec.thread_management_s() <= rec.wall_s * 2.0 + 1e-9);
}

#[test]
fn u_curve_emerges_in_simulation() {
    // The paper's central qualitative result: fine and coarse extremes
    // both lose badly to a medium granularity.
    let engine = SimEngine::scaled(presets::haswell(), 10_000_000, 10);
    let fine = engine.run(100, 16, 0).wall_s;
    let medium = engine.run(20_000, 16, 0).wall_s;
    let coarse = engine.run(10_000_000, 16, 0).wall_s;
    assert!(
        fine > 2.0 * medium,
        "fine-grained overhead blow-up missing: fine={fine} medium={medium}"
    );
    assert!(
        coarse > 2.0 * medium,
        "coarse-grained starvation missing: coarse={coarse} medium={medium}"
    );
}

#[test]
fn u_curve_emerges_natively() {
    // The same shape on the real runtime (coarse = single partition
    // serializes; fine = task-management dominated).
    let total = 400_000;
    let steps = 6;
    let engine = NativeEngine::scaled(total, steps);
    let fine = engine.run(50, 2, 0).wall_s; // 8000 partitions of 50 pts
    let medium = engine.run(10_000, 2, 0).wall_s;
    assert!(
        fine > 1.5 * medium,
        "fine-grained native overhead missing: fine={fine} medium={medium}"
    );
}

#[test]
fn idle_rate_extremes_in_simulation() {
    let engine = SimEngine::scaled(presets::haswell(), 10_000_000, 10);
    let fine = engine.run(100, 28, 0);
    let medium = engine.run(100_000, 28, 0);
    let coarse = engine.run(10_000_000, 28, 0);
    assert!(fine.idle_rate() > 0.6, "fine idle {}", fine.idle_rate());
    assert!(
        medium.idle_rate() < 0.3,
        "medium idle {}",
        medium.idle_rate()
    );
    assert!(
        coarse.idle_rate() > 0.6,
        "coarse idle {}",
        coarse.idle_rate()
    );
}

#[test]
fn wait_time_grows_with_cores_in_simulation() {
    // Eq. 5 at medium grain: more cores → more bandwidth contention →
    // larger per-task wait (Fig. 6).
    let engine = SimEngine::paper(presets::haswell());
    let td1 = engine.run(50_000, 1, 0).task_duration_ns();
    let td8 = engine.run(50_000, 8, 0).task_duration_ns();
    let td28 = engine.run(50_000, 28, 0).task_duration_ns();
    assert!(td8 > td1, "8-core wait missing");
    assert!(td28 > td8, "28-core wait must exceed 8-core wait");
}

#[test]
fn negative_wait_time_at_coarse_grain() {
    // §II-A: "wait time can be negative since behaviors such as caching
    // effects can cause the time for one core to be larger than that for
    // multiple cores" — reproduced through the first-touch striping model.
    let engine = SimEngine::paper(presets::haswell());
    let td1 = engine.run(100_000_000, 1, 0).task_duration_ns();
    let td28 = engine.run(100_000_000, 28, 0).task_duration_ns();
    assert!(
        td28 < td1,
        "single-partition tasks should run faster on the parallel run (td1={td1}, td28={td28})"
    );
}

#[test]
fn sweep_cells_cover_both_engines() {
    let sim = SimEngine::scaled(presets::sandy_bridge(), 200_000, 3);
    let sweep = run_sweep(&sim, &[1_000, 50_000], &[1, 4], 2, None);
    assert_eq!(sweep.cells.len(), 4);
    let native = NativeEngine::scaled(50_000, 3);
    let sweep = run_sweep(&native, &[1_000, 25_000], &[1, 2], 1, None);
    assert_eq!(sweep.cells.len(), 4);
    for c in &sweep.cells {
        assert!(c.agg.wall_s.mean() > 0.0);
        assert!(c.td1_ns > 0.0);
    }
}

#[test]
fn adaptive_pipeline_improves_from_fine_start() {
    use grain::adaptive::{adapt, LoopMode, ThresholdTuner, TunerConfig};
    let engine = SimEngine::scaled(presets::haswell(), 4_000_000, 5);
    let mut tuner = ThresholdTuner::new(TunerConfig {
        initial_nx: 200,
        ..TunerConfig::default()
    });
    let mode = LoopMode {
        throttle: false,
        until_converged: true,
    };
    let trace = adapt(&engine, 16, &mut tuner, 20, mode);
    assert!(trace.final_nx > 200);
    assert!(trace.speedup() > 1.3, "speedup {}", trace.speedup());
}

#[test]
fn counters_visible_through_facade_registry() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let params = StencilParams::new(500, 20, 3);
    let _ = run_futurized(&rt, &params);
    rt.wait_idle();
    let v = rt
        .registry()
        .query("/threads{locality#0/total}/count/cumulative")
        .unwrap();
    assert_eq!(v.value as usize, params.total_tasks());
    let ir = rt
        .registry()
        .query("/threads{locality#0/total}/idle-rate")
        .unwrap();
    assert!((0.0..=1.0).contains(&ir.value));
}

#[test]
fn simulated_platforms_rank_sensibly() {
    // Same workload, full node each: the Phi is slowest per Fig. 3;
    // all Xeon parts land within a factor of a few of each other.
    let params = StencilParams::for_total(5_000_000, 50_000, 5);
    let wl = stencil_workload(&params);
    let mut results = Vec::new();
    for p in presets::table1() {
        let r = simulate(&p, p.usable_cores, &wl, &SimConfig::default());
        results.push((p.name.clone(), r.wall_seconds()));
    }
    let phi = results.iter().find(|(n, _)| n == "Xeon Phi").unwrap().1;
    for (name, t) in &results {
        if name != "Xeon Phi" {
            assert!(phi > *t, "Phi should be slowest: {results:?}");
        }
    }
}

#[test]
fn sequential_oracle_matches_futurized_at_scale() {
    let params = StencilParams::new(257, 31, 17); // awkward shapes on purpose
    let rt = Runtime::with_workers(3);
    assert_eq!(run_futurized(&rt, &params), run_sequential(&params));
}
