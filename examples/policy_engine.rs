//! The APEX-style integration the paper's conclusion describes (§VI),
//! live on the native runtime: grain adaptation and worker throttling
//! driven by the same windowed counters, inside one run.
//!
//! Scenario: the computation starts with far too few partitions for the
//! pool (coarse grain). The throttle parks surplus workers immediately
//! (saving "energy" = core-seconds), while the tuner splits partitions
//! until parallel slack returns — at which point the throttle un-parks
//! the workers again.
//!
//! ```sh
//! cargo run --release --example policy_engine
//! ```

use grain::adaptive::{adapt_live, LoopMode, ThresholdTuner, TunerConfig};
use grain::runtime::Runtime;
use grain::stencil::StencilParams;

fn main() {
    let workers = 4;
    let rt = Runtime::with_workers(workers);
    let params = StencilParams::new(4_096, 256, 0); // ~1M-point ring
    let total = params.total_points();
    let grid0: Vec<f64> = (0..total).map(|g| (g / params.nx) as f64).collect();

    let mut tuner = ThresholdTuner::new(TunerConfig {
        initial_nx: total / 2, // two huge partitions: starved pool
        target_idle_rate: 0.40,
        ..TunerConfig::default()
    });
    let mode = LoopMode {
        throttle: true,
        until_converged: false,
    };

    println!("policy-driven run on {workers} workers (start: 2 partitions):\n");
    let (run, grid) = adapt_live(&rt, grid0, params.coefficient(), 4, 14, &mut tuner, mode);

    println!(
        "{:>5} {:>10} {:>8} {:>10} {:>9} {:>12}",
        "epoch", "nx", "workers", "idle-rate", "wall(s)", "core-sec"
    );
    for (i, e) in run.epochs.iter().enumerate() {
        println!(
            "{:>5} {:>10} {:>8} {:>9.1}% {:>9.4} {:>12.4}",
            i,
            e.nx,
            e.workers,
            e.idle_rate * 100.0,
            e.wall_s,
            e.core_seconds()
        );
    }
    println!(
        "\ntotal energy proxy: {:.4} core-seconds (an unthrottled, unadapted run\n\
         would spend {workers} cores for the whole duration)",
        run.core_seconds()
    );

    // Physics must be untouched by all the reconfiguration.
    let expect: f64 = (0..total).map(|g| (g / params.nx) as f64).sum();
    let got: f64 = grid.iter().sum();
    assert!((got - expect).abs() < 1e-6 * expect, "heat not conserved");
    println!("heat conserved across {} policy epochs ✓", run.epochs.len());
}
