//! # grain-bench — the experiment harness
//!
//! The paper's tables and figures come from one binary, `figs`: one
//! entry per table/figure (see DESIGN.md §3 for the index), each
//! printing aligned tables (the figure's series as columns) followed by
//! a CSV block for re-plotting. Figures are regenerated by the
//! simulator engine against the Table I platform models (see DESIGN.md
//! for the substitution argument), so `figs --all results` reproduces
//! its 18 transcripts in `results/` byte for byte. The native runtime's
//! timing is `perf/`'s, not a figure's.
//!
//! This library holds what the binaries share: the figure helpers
//! ([`sweep_platform`], [`print_table`], [`print_series`]) and the
//! replay-storm harness ([`replay_main`], [`eventually`]).

use grain_metrics::sweep::{run_sweep, SimEngine, StencilEngine};
use grain_metrics::{table, Sweep, SweepCell};
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// How long a storm binary polls for a condition (or waits on one
/// future) before calling it a hang.
pub const WATCHDOG_POLL: Duration = Duration::from_secs(30);

/// Poll until `cond` holds or [`WATCHDOG_POLL`] expires.
pub fn eventually(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + WATCHDOG_POLL;
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        #[allow(
            clippy::disallowed_methods,
            reason = "a storm's conditions are counter readings with no event to wait on"
        )]
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// The `main` of a replay storm (`netstorm`, `fleetstorm`): parse
/// `--quick` / `--seed <n>` (default 42), arm a watchdog that exits 3 —
/// a harness that can hang cannot certify "no hangs" — print the banner
/// (`title`; the host's parallelism with `one_core_note` goes to stderr,
/// so stdout is the same on every host), run `run_once(seed, quick)`
/// **twice** and compare the two reports byte for byte: identical
/// prints the report, the `replay:` line and `OK`; divergent prints both
/// and exits 1. `scripts/verify.sh` diffs the `--quick` stdout against
/// `results/<name>.txt`.
pub fn replay_main(
    name: &'static str,
    title: &str,
    one_core_note: &str,
    run_once: impl Fn(u64, bool) -> String,
) {
    let mut quick = false;
    let mut seed: u64 = 42;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("usage: {name} [--quick] [--seed <n>]");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("usage: {name} [--quick] [--seed <n>] (got {other})");
                std::process::exit(2);
            }
        }
    }

    let budget = Duration::from_secs(if quick { 120 } else { 300 });
    grain_counters::sync::spawn(format!("{name}-watchdog"), move || {
        #[allow(
            clippy::disallowed_methods,
            reason = "the watchdog's one sleep is its whole budget; nothing else wakes it"
        )]
        std::thread::sleep(budget);
        eprintln!("{name}: watchdog expired after {budget:?} — a stage hung");
        std::process::exit(3);
    })
    .expect("failed to spawn the watchdog thread");

    println!("{name}: {title}");
    eprintln!(
        "host parallelism: {} (1-core hosts: {one_core_note})",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!();

    let first = run_once(seed, quick);
    let second = run_once(seed, quick);

    print!("{first}");
    println!();
    if first != second {
        println!("replay: DIVERGED — the run is not deterministic");
        println!("--- first run ---\n{first}");
        println!("--- second run ---\n{second}");
        std::process::exit(1);
    }
    println!(
        "replay: IDENTICAL ({} report bytes, seed {seed})",
        first.len()
    );
    println!();
    println!("OK");
}

/// Run the standard granularity sweep on `engine` over `cores`,
/// printing progress to stderr. Cells the engine already computed for
/// an earlier sweep are looked up, not re-simulated.
pub fn sweep_platform(
    engine: &SimEngine,
    grid: &[usize],
    cores: &[usize],
    samples: usize,
) -> Sweep {
    eprintln!(
        "# sweeping {} ({} sizes x {:?} cores x {} samples)…",
        engine.name(),
        grid.len(),
        cores,
        samples
    );
    let progress = |line: &str| eprintln!("#   {line}");
    run_sweep(engine, grid, cores, samples, Some(&progress))
}

/// Write a table followed by its CSV block (the plotting surface).
pub fn print_table(
    out: &mut dyn Write,
    title: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    write!(out, "{}", table::render(title, headers, rows))?;
    writeln!(out, "CSV:")?;
    write!(out, "{}", table::csv(headers, rows))
}

/// Write one figure's data: rows = partition sizes, one column group per
/// core count, with a metric extracted from each cell, then its CSV
/// block and a blank line.
pub fn print_series(
    out: &mut dyn Write,
    title: &str,
    sweep: &Sweep,
    cores: &[usize],
    metric_name: &str,
    metric: impl Fn(&SweepCell) -> String,
) -> io::Result<()> {
    let mut headers: Vec<String> = vec!["partition".to_owned()];
    for &c in cores {
        headers.push(format!("{metric_name}@{c}c"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for &nx in &sweep.grid {
        let mut row = vec![table::fmt::count(nx as f64)];
        for &c in cores {
            row.push(match sweep.cell(nx, c) {
                Some(cell) => metric(cell),
                None => "-".to_owned(),
            });
        }
        rows.push(row);
    }
    print_table(out, title, &header_refs, &rows)?;
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_topology::presets;

    #[test]
    fn print_series_smoke() {
        let engine = SimEngine::scaled(presets::haswell(), 100_000, 2);
        let sweep = run_sweep(&engine, &[10_000, 100_000], &[1, 2], 1, None);
        let mut out = Vec::new();
        print_series(&mut out, "smoke", &sweep, &[1, 2], "exec", |c| {
            table::fmt::s(c.agg.wall_s.mean())
        })
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("exec@2c") && text.contains("CSV:"));
    }
}
