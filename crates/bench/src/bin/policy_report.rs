//! Extension experiment — the §V/§VI integration: grain adaptation plus
//! worker throttling, driven by the counters, on a simulated Haswell at
//! paper scale. Reports the trajectory and the energy proxy
//! (core-seconds) saved versus an unmanaged run.

use grain_adaptive::{adapt, LoopMode, ThresholdTuner, TunerConfig};
use grain_bench::Cli;
use grain_metrics::sweep::{SimEngine, StencilEngine};
use grain_metrics::table;

fn main() {
    let cli = Cli::parse();
    let p = cli.platform_or("haswell");
    let workers = p.usable_cores;
    let engine = SimEngine::paper(p.clone());
    let start_nx = 25_000_000; // 4 partitions on 28 cores: badly starved

    const EPOCHS: usize = 10;

    eprintln!("# running managed trajectory…");
    let mut tuner = ThresholdTuner::new(TunerConfig {
        initial_nx: start_nx,
        target_idle_rate: 0.30,
        ..TunerConfig::default()
    });
    let mode = LoopMode {
        throttle: true,
        until_converged: false,
    };
    let managed = adapt(&engine, workers, &mut tuner, EPOCHS, mode);
    eprintln!("# running unmanaged baseline…");
    // No tuner, no throttle: the same epochs at the starting partition
    // on the whole pool.
    let unmanaged: Vec<f64> = (0..EPOCHS)
        .map(|e| engine.run(start_nx, workers, e).wall_s)
        .collect();

    let headers = ["epoch", "nx", "workers", "idle-rate", "exec(s)", "core-sec"];
    let rows: Vec<Vec<String>> = managed
        .epochs
        .iter()
        .enumerate()
        .map(|(i, e)| {
            vec![
                i.to_string(),
                table::fmt::count(e.nx as f64),
                e.workers.to_string(),
                table::fmt::pct(e.idle_rate),
                table::fmt::s(e.wall_s),
                table::fmt::s(e.core_seconds()),
            ]
        })
        .collect();
    print!(
        "{}",
        table::render(
            &format!(
                "Policy engine (grain + throttle) — {} starting at nx={start_nx}, {workers} cores",
                p.name
            ),
            &headers,
            &rows
        )
    );

    let cs_m = managed.core_seconds();
    let cs_u: f64 = unmanaged.iter().map(|wall_s| workers as f64 * wall_s).sum();
    let t_m: f64 = managed.epochs.iter().map(|e| e.wall_s).sum();
    let t_u: f64 = unmanaged.iter().sum();
    println!(
        "\nmanaged:   {t_m:.2}s wall, {cs_m:.1} core-seconds\n\
         unmanaged: {t_u:.2}s wall, {cs_u:.1} core-seconds\n\
         → {:.1}% faster and {:.1}% less energy proxy, from the same counters\n\
         the paper's methodology identified.",
        (1.0 - t_m / t_u) * 100.0,
        (1.0 - cs_m / cs_u) * 100.0
    );
}
