//! The HPX-Stencil benchmark end to end: futurized 1-D heat diffusion,
//! validated against the sequential oracle, at two task granularities —
//! showing how partition size moves every counter the paper studies.
//!
//! ```sh
//! cargo run --release --example heat_diffusion
//! ```

use grain::runtime::Runtime;
use grain::stencil::{run_futurized, run_sequential, total_heat, StencilParams};

fn run_and_report(rt: &Runtime, params: &StencilParams) {
    rt.reset_counters();
    let t0 = std::time::Instant::now();
    let grid = run_futurized(rt, params);
    let wall = t0.elapsed().as_secs_f64();

    let c = rt.counters();
    println!(
        "nx={:<8} np={:<6} tasks={:<8} exec={:.3}s t_d={:>10.1}ns t_o={:>10.1}ns idle-rate={:.1}% pending-acc={}",
        params.nx,
        params.np,
        c.tasks.sum(),
        wall,
        c.task_duration_ns(),
        c.task_overhead_ns(),
        c.idle_rate() * 100.0,
        c.pending_accesses.sum(),
    );

    // Physics sanity: the ring scheme conserves total heat.
    let expect: f64 = (0..params.total_points())
        .map(|g| (g / params.nx) as f64)
        .sum();
    let got = total_heat([&grid[..]]);
    assert!((got - expect).abs() < 1e-6 * expect, "heat not conserved");
}

fn main() {
    let rt = Runtime::with_workers(grain::topology::host::available_cores().max(2));
    println!("heat diffusion on {} workers\n", rt.num_workers());

    // Small case first: prove the dataflow execution is *bit-identical*
    // to the plain sequential loops.
    let small = StencilParams::new(64, 16, 12);
    assert_eq!(run_futurized(&rt, &small), run_sequential(&small));
    println!("correctness: futurized == sequential for nx=64 np=16 nt=12 ✓\n");

    // Same total work (1M points, 10 steps), three granularities: watch
    // task duration, overhead and idle-rate move exactly as in the paper.
    println!("granularity sweep (1M points, 10 steps):");
    for nx in [500, 5_000, 50_000, 500_000] {
        let params = StencilParams::for_total(1_000_000, nx, 10);
        run_and_report(&rt, &params);
    }
    println!(
        "\nFine partitions → many tasks, small t_d, large overhead share;\n\
         coarse partitions → few tasks, load imbalance. The sweet spot is in\n\
         between — that is the paper's Fig. 3/4 story, live on your machine."
    );

    // Task-duration distribution of the last configuration (log2 buckets).
    let h = rt.counters().exec_histogram.merged();
    println!(
        "\ntask execution-time distribution (last run): median >= {} ns, p99 >= {} ns",
        h.quantile_floor(0.5),
        h.quantile_floor(0.99)
    );
    print!("{}", h.render("ns", 40));
}
