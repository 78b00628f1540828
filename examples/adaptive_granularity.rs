//! Dynamic grain-size adaptation — the capability the paper's
//! characterization was built to enable (§VI) — running on the *native*
//! runtime: start with pathologically fine tasks, monitor the windowed
//! idle-rate, and let the tuner re-partition between epochs.
//!
//! ```sh
//! cargo run --release --example adaptive_granularity
//! ```

use grain::adaptive::{adapt, LoopMode, ThresholdTuner, TunerConfig};
use grain::metrics::sweep::NativeEngine;

fn main() {
    let engine = NativeEngine::scaled(1_000_000, 8);
    let workers = grain::topology::host::available_cores().max(2);

    let mut tuner = ThresholdTuner::new(TunerConfig {
        initial_nx: 200, // deliberately far too fine
        target_idle_rate: 0.40,
        ..TunerConfig::default()
    });
    println!(
        "adapting the stencil's partition size on {} host workers (start nx={}):\n",
        workers,
        tuner.nx()
    );

    let mode = LoopMode {
        throttle: false,
        until_converged: true,
    };
    let trace = adapt(&engine, workers, &mut tuner, 12, mode);
    for (i, e) in trace.epochs.iter().enumerate() {
        println!(
            "epoch {i:>2}: nx={:<9} exec={:.3}s idle-rate={:>5.1}% throughput={:.1} Mpt/s",
            e.nx,
            e.wall_s,
            e.idle_rate * 100.0,
            e.points_per_s / 1e6
        );
    }
    println!(
        "\nconverged: {} | final nx = {} | throughput gain {:.2}x",
        trace.converged,
        trace.final_nx,
        trace.speedup()
    );
    assert!(
        trace.final_nx > 200,
        "the tuner should have escaped the fine-grained regime"
    );
}
