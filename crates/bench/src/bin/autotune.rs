//! `autotune` — convergence storms for per-tenant granularity control.
//!
//! Three tenants start at a pathologically coarse grain (≥10× the
//! hand-tuned optimum — one giant task), a pathologically fine one
//! (≤0.1× — overhead-bound), and an already-reasonable one. Each "job"
//! is scored by the deterministic [`CostModel`] — the paper's
//! `t_o + grain·w` cost on an idealized machine — so every line printed
//! is a pure function of the program text. The verify gate runs it
//! twice and `cmp`s the transcripts; any wall-clock leak into a
//! controller decision would show up as a diff.
//!
//! The measured counterpart (the same controller on a real
//! `JobService`, autotune on against off) is `service_bench`'s autotune
//! phase.
//!
//! Flags: `--quick` (accepted like on every `grain-bench` binary; the
//! storm is already sub-second and has no smaller size).

use grain_adaptive::tuner::TunerConfig;
use grain_autotune::{Autotune, AutotuneConfig, CostModel};

/// Work units per modeled job (busy-work iterations).
const MODEL_UNITS: u64 = 1 << 20;
/// Jobs per tenant in the modeled storm.
const MODEL_JOBS: usize = 12;

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: autotune [--quick]\n\
         Runs the deterministic grain-convergence storm (stdout is\n\
         bit-replayable)."
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 })
}

/// Outcome of one tenant's modeled storm: what the pass/fail check needs.
struct StormResult {
    tenant: &'static str,
    jobs_to_converge: Option<usize>,
    to_ratio_vs_optimal: f64,
}

/// Run one tenant's modeled storm, printing a deterministic per-job
/// trace.
fn modeled_storm(model: &CostModel, tenant: &'static str, initial_nx: usize) -> StormResult {
    let optimal = model.optimal_grain(MODEL_UNITS, &TunerConfig::default());
    let auto = Autotune::new(AutotuneConfig {
        cores: model.cores,
        tuner: TunerConfig {
            initial_nx,
            ..TunerConfig::default()
        },
        ..AutotuneConfig::default()
    });
    let mut jobs_to_converge = None;
    let mut final_grain = initial_nx as u64;
    println!("tenant {tenant}: start grain {initial_nx} (optimum {optimal})");
    for j in 0..MODEL_JOBS {
        let g = auto.grain_for(tenant);
        final_grain = g;
        let sig = model.signal(MODEL_UNITS, g);
        println!(
            "  job {j:>2}: grain {g:>8}  idle {:>5.3}  overhead {:>5.3}  tasks/core {:>8.2}  {}",
            sig.idle_rate,
            sig.overhead_frac,
            sig.tasks_per_core,
            if auto.converged(tenant) {
                "frozen"
            } else {
                "probing"
            },
        );
        auto.observe(tenant, &sig);
        if jobs_to_converge.is_none() && auto.converged(tenant) {
            jobs_to_converge = Some(j + 1);
        }
    }
    let wall_ratio = model.wall_ns(MODEL_UNITS, final_grain) / model.wall_ns(MODEL_UNITS, optimal);
    let to_ratio = model.measured_overhead_ns(MODEL_UNITS, final_grain)
        / model.measured_overhead_ns(MODEL_UNITS, optimal);
    println!(
        "  -> converged {} after {} jobs, grain {final_grain}, wall {wall_ratio:.3}x optimal, \
         t_o {to_ratio:.3}x optimal",
        jobs_to_converge.is_some(),
        jobs_to_converge.map_or(-1i64, |j| j as i64),
    );
    StormResult {
        tenant,
        jobs_to_converge,
        to_ratio_vs_optimal: to_ratio,
    }
}

fn main() {
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => {}
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let model = CostModel {
        overhead_ns_per_task: 2_000.0,
        ns_per_unit: 1.0,
        cores: 4,
    };
    let optimal = model.optimal_grain(MODEL_UNITS, &TunerConfig::default());
    println!(
        "autotune convergence storm: {MODEL_UNITS} units/job, modeled t_o \
         {}ns, {} cores, optimum grain {optimal}",
        model.overhead_ns_per_task as u64, model.cores,
    );
    println!();
    let coarse_start = (optimal.saturating_mul(10)).min(MODEL_UNITS) as usize;
    let fine_start = ((optimal / 100).max(16)) as usize;
    let tuned_start = (optimal / 8).max(16) as usize;
    let storms = [
        modeled_storm(&model, "coarse-10x", coarse_start),
        modeled_storm(&model, "fine-0.01x", fine_start),
        modeled_storm(&model, "reasonable", tuned_start),
    ];
    println!();
    let mut failed = false;
    for s in &storms {
        let converged = s.jobs_to_converge.is_some_and(|j| j <= 8);
        let near_opt = s.to_ratio_vs_optimal <= 1.10;
        if !converged || !near_opt {
            failed = true;
            println!(
                "FAIL tenant {}: converged<=8 {} t_o within 10% {}",
                s.tenant, converged, near_opt
            );
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("OK");
}
