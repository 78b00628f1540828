//! Explore the performance-counter tree: run a small workload, then
//! discover and dump every registered counter — per-worker instances,
//! totals and derived metrics — the way HPX's command-line counter
//! interface does after a run.
//!
//! ```sh
//! cargo run --release --example counter_explorer
//! ```

use grain::runtime::Runtime;
use grain::stencil::{run_futurized, StencilParams};

fn main() {
    let rt = Runtime::with_workers(grain::topology::host::available_cores().max(2));
    let params = StencilParams::for_total(500_000, 5_000, 10);

    // Interval measurement: reading → work → reading → delta, the
    // windowed form the paper's adaptivity goal needs (§II-A).
    let before = rt.counters().window();
    let _ = run_futurized(&rt, &params);
    rt.wait_idle();
    let window = rt.counters().window().since(&before);

    println!("=== full counter dump (cumulative since start) ===");
    for path in rt.registry().paths() {
        let v = rt.registry().query(&path).unwrap();
        println!("{path:<64} = {v}");
    }

    println!("\n=== the measured window ===");
    println!("{window:?}");
    println!(
        "idle-rate (Eq. 1):          {:.2}%",
        window.idle_rate() * 100.0
    );
    println!(
        "task duration t_d (Eq. 2):  {:.0} ns",
        window.task_duration_ns()
    );
    println!(
        "task overhead t_o (Eq. 3):  {:.0} ns",
        window.task_overhead_ns()
    );
    println!(
        "pending-miss rate (§IV-E):  {:.2}%",
        window.pending_miss_rate() * 100.0
    );
    println!(
        "tasks per core:             {:.1}",
        window.tasks_per_core(rt.num_workers())
    );

    println!("\n=== wildcard discovery ===");
    for pat in ["/threads/idle-rate", "/threads/count/pending-*"] {
        let hits = rt.registry().discover(pat).unwrap();
        println!("{pat} -> {} counters", hits.len());
        for h in hits {
            println!("   {h}");
        }
    }
}
