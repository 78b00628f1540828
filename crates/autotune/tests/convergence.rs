//! Convergence storms for the autotune controller.
//!
//! The storms drive [`Autotune`] with signals from the deterministic
//! [`CostModel`] — the paper's `t_o + grain·w` cost on an idealized
//! machine — so every assertion here is exact, not statistical:
//!
//! * three tenants — one starting at a **pathologically coarse** grain
//!   (≥ 10× the hand-tuned optimum, one giant task), one
//!   **pathologically fine** (≤ 0.1×), one already **reasonable** —
//!   each follow a pinned per-job grain trajectory, converge within 8
//!   jobs, and end at a grain whose measured per-task overhead is within
//!   10% of the optimum's;
//! * once a tenant enters its hysteresis band it **never oscillates**
//!   under a steady workload;
//! * with `enabled = false` the expansion every job gets is
//!   **byte-identical** to the legacy fixed partition, forever.

use grain_adaptive::tuner::TunerConfig;
use grain_autotune::{Autotune, AutotuneConfig, CostModel, ShapedWork};
use grain_sim::storm::GraphFamily;

/// Work units per modeled job.
const UNITS: u64 = 1 << 20;
/// Jobs per tenant in a modeled storm.
const JOBS: usize = 12;

fn model() -> CostModel {
    CostModel {
        overhead_ns_per_task: 2_000.0,
        ns_per_unit: 1.0,
        cores: 4,
    }
}

fn cfg_with_initial(initial_nx: usize) -> AutotuneConfig {
    AutotuneConfig {
        tuner: TunerConfig {
            initial_nx,
            ..TunerConfig::default()
        },
        ..AutotuneConfig::default()
    }
}

/// Run one tenant's modeled storm: each job expands at the controller's
/// current grain, the model scores it, the controller observes the
/// score. Returns the grain trace (one entry per job, pre-observation)
/// and the job count after which the tenant first reported converged.
fn run_storm(initial_nx: usize, jobs: usize) -> (Vec<u64>, Option<usize>) {
    let m = model();
    let auto = Autotune::new(cfg_with_initial(initial_nx));
    let mut trace = Vec::with_capacity(jobs);
    let mut converged_at = None;
    for j in 0..jobs {
        let g = auto.grain_for("tenant");
        trace.push(g);
        auto.observe("tenant", &m.signal(UNITS, g));
        if converged_at.is_none() && auto.converged("tenant") {
            converged_at = Some(j + 1);
        }
    }
    (trace, converged_at)
}

/// The optimum grain the hand-tuned grid search finds for the model.
fn optimal() -> u64 {
    model().optimal_grain(UNITS, &TunerConfig::default())
}

/// A grain trajectory written as `(grain, jobs at that grain)` runs.
fn runs(expect: &[(u64, usize)]) -> Vec<u64> {
    expect
        .iter()
        .flat_map(|&(g, n)| std::iter::repeat_n(g, n))
        .collect()
}

/// Run a tenant's storm from `start` and check it against its pinned
/// trajectory (`expect`, as [`runs`]) and the job count after which it
/// reports converged. Then the two bars every tenant must clear:
/// converged within 8 jobs, and a final grain whose measured `t_o` is
/// within 10% of the optimum's.
fn assert_storm(start: usize, expect: &[(u64, usize)], converged_after: usize) {
    let (trace, converged_at) = run_storm(start, JOBS);
    assert_eq!(trace, runs(expect), "grain trajectory from {start}");
    assert_eq!(converged_at, Some(converged_after), "trace {trace:?}");
    assert!(
        converged_after <= 8,
        "converged after {converged_after} jobs (want ≤ 8)"
    );
    let m = model();
    let final_grain = *trace.last().expect("trace");
    let to_opt = m.measured_overhead_ns(UNITS, optimal());
    let to_conv = m.measured_overhead_ns(UNITS, final_grain);
    assert!(
        to_conv <= to_opt * 1.10,
        "converged t_o {to_conv:.0}ns not within 10% of optimal {to_opt:.0}ns (grain {final_grain} vs {})",
        optimal()
    );
}

#[test]
fn pathologically_coarse_tenant_converges_within_eight_jobs() {
    // ≥ 10× the optimum, clamped to the job itself: one giant task.
    let start = (optimal() * 10).min(UNITS) as usize;
    assert!(
        start as u64 >= optimal().saturating_mul(4),
        "start is coarse"
    );
    assert_storm(
        start,
        &[(1_048_576, 1), (524_288, 1), (262_144, 1), (131_072, 9)],
        5,
    );
}

#[test]
fn pathologically_fine_tenant_converges_within_eight_jobs() {
    // ≤ 0.1× the optimum — deep in the overhead-bound regime.
    let start = (optimal() / 100).max(16) as usize;
    assert!((start as u64) * 10 <= optimal(), "start is fine");
    assert_storm(start, &[(2_621, 1), (5_242, 11)], 3);
}

#[test]
fn reasonable_tenant_holds_its_grain() {
    // An eighth of the optimum: already in the band, so it never moves.
    let start = (optimal() / 8).max(16) as usize;
    assert_storm(start, &[(32_768, 12)], 2);
}

#[test]
fn a_sustained_regime_change_reopens_the_probe() {
    // The reasonable tenant freezes at 32768 under `t_o` = 2 µs. From
    // job 4 on, its per-task overhead is 16× that, which puts the frozen
    // grain's pressure at 0.5: past the 0.30 target plus the 0.15 band.
    // Three such jobs in a row re-open the probe, and the tenant
    // coarsens until it freezes again.
    let heavy = CostModel {
        overhead_ns_per_task: 32_768.0,
        ..model()
    };
    let auto = Autotune::new(cfg_with_initial((optimal() / 8) as usize));
    let mut trace = Vec::with_capacity(JOBS);
    for j in 0..JOBS {
        let m = if j < 4 { model() } else { heavy };
        let g = auto.grain_for("tenant");
        trace.push(g);
        auto.observe("tenant", &m.signal(UNITS, g));
    }
    assert_eq!(trace, runs(&[(32_768, 7), (65_536, 1), (131_072, 4)]));
    assert_eq!(auto.probes("tenant"), 2, "one probe re-opened");
    assert!(auto.converged("tenant"));
}

#[test]
fn no_oscillation_after_entering_the_hysteresis_band() {
    let m = model();
    let auto = Autotune::new(cfg_with_initial(UNITS as usize));
    // Drive to convergence.
    for _ in 0..12 {
        let g = auto.grain_for("tenant");
        auto.observe("tenant", &m.signal(UNITS, g));
    }
    assert!(auto.converged("tenant"));
    let frozen = auto.grain_for("tenant");
    let probes = auto.probes("tenant");
    let adjustments = auto.adjustments("tenant");
    // A steady workload must never move a frozen tenant again.
    for _ in 0..20 {
        let g = auto.grain_for("tenant");
        assert_eq!(g, frozen, "grain moved after convergence");
        auto.observe("tenant", &m.signal(UNITS, g));
        assert!(auto.converged("tenant"), "tenant left the band");
    }
    assert_eq!(
        auto.probes("tenant"),
        probes,
        "probe re-opened on steady load"
    );
    assert_eq!(auto.adjustments("tenant"), adjustments);
}

#[test]
fn storms_replay_bit_identically() {
    let coarse = || run_storm(UNITS as usize, JOBS);
    let fine = || run_storm(64, JOBS);
    assert_eq!(coarse(), coarse());
    assert_eq!(fine(), fine());
}

#[test]
fn disabled_autotune_is_byte_identical_to_the_fixed_partition() {
    let fixed_grain = 4096usize;
    let auto = Autotune::new(AutotuneConfig {
        enabled: false,
        ..cfg_with_initial(fixed_grain)
    });
    let shape = ShapedWork::Graph {
        family: GraphFamily::Stencil,
        total_iters: UNITS,
        payload_bytes: 32,
        seed: 41,
        cov: grain_taskbench::Cov::Bimodal {
            heavy_pct: 10,
            ratio: 8,
        },
    };
    // The legacy behavior: the submitter's partition, untouched.
    let reference = shape
        .expand(fixed_grain as u64)
        .graph
        .expect("graph shape")
        .fingerprint();
    let m = model();
    for _ in 0..10 {
        let g = auto.grain_for("tenant");
        assert_eq!(g, fixed_grain as u64, "disabled controller moved");
        let expanded = shape.expand(g);
        assert_eq!(
            expanded.graph.expect("graph shape").fingerprint(),
            reference,
            "disabled expansion diverged from the fixed partition"
        );
        // Feed it hostile signals; a pinned tenant must ignore them.
        auto.observe("tenant", &m.signal(UNITS, g));
    }
    assert_eq!(auto.adjustments("tenant"), 0);
    assert_eq!(auto.probes("tenant"), 0);
}
