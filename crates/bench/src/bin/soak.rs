//! soak — chaos-soak harness for the service's overload resilience.
//!
//! Replays a seeded overload-and-fault storm ([`grain_sim::storm`])
//! against a real [`JobService`] for N *virtual* seconds (scaled to
//! ~20 ms of wall clock each), three times:
//!
//! 1. resilience **on** (pressure loop + per-tenant breakers, the
//!    defaults),
//! 2. resilience **off** (legacy behavior: fixed budget, queued
//!    deadline expiries become `TimedOut`),
//! 3. resilience **on** again with the same seed, to show the storm
//!    replays and the invariants hold deterministically.
//!
//! Two well-behaved tenants (`alpha`, `beta`) submit deadline jobs at
//! roughly 2× the service's drain rate while a `chaos` tenant floods it
//! with panicking retry jobs during the first 60 % of the horizon, then
//! recovers. After each pass the harness drains the service and checks
//! the overload invariants:
//!
//! * every submitted job reached a terminal state;
//! * the in-flight budget is exactly restored (no leak), queues and
//!   running set are empty;
//! * conservation: `admitted + rejected + shed + queued-timeouts`
//!   equals `submitted`;
//! * the `shed` counter equals the number of outcomes reporting
//!   `RejectReason::Shed`, and the breakers' rejection count equals the
//!   outcomes reporting `RejectReason::BreakerOpen`;
//! * with resilience on, the chaos tenant's breaker opened at least
//!   once and re-closed by the end, and the well-behaved tenants' job
//!   timeout count is lower than in the unprotected pass.
//!
//! Usage: `soak [--virtual-seconds N] [--seed N]`

use grain_service::{
    AdmissionConfig, FailurePolicy, JobHandle, JobService, JobSpec, JobState, RejectReason,
    ServiceConfig,
};
use grain_sim::storm::{GraphFamily, StormPlan, TenantStorm};
use grain_taskbench::{storm as shapes, Calibration};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Real wall-clock time per virtual second of storm time.
const TIME_SCALE: f64 = 0.02;

/// Scale a virtual duration from the storm plan to wall-clock time.
fn real(d: Duration) -> Duration {
    d.mul_f64(TIME_SCALE)
}

/// Keep a core busy for roughly `d` of real work.
fn spin_for(d: Duration) {
    let t0 = Instant::now();
    let mut x = 0u64;
    while t0.elapsed() < d {
        for i in 0..64u64 {
            x = x.wrapping_add(std::hint::black_box(i) * i);
        }
    }
    std::hint::black_box(x);
}

/// The storm cast: two well-behaved deadline tenants at a combined ~2×
/// the two-worker drain rate, one flooding tenant that panics during
/// the first 60 % of the horizon and then recovers. The well-behaved
/// tenants submit *graph-shaped* jobs (a taskbench stencil and tree
/// reduce-broadcast respectively), so shedding and breakers are
/// exercised against dependency-structured work, not just flat spawn
/// loops; chaos keeps the legacy flat shape.
fn profiles() -> Vec<TenantStorm> {
    vec![
        TenantStorm::steady(
            "alpha",
            Duration::from_millis(50),
            (2, 8),
            (Duration::from_millis(10), Duration::from_millis(25)),
        )
        .deadline(Duration::from_secs(2))
        .family(GraphFamily::Stencil),
        TenantStorm::steady(
            "beta",
            Duration::from_millis(80),
            (4, 12),
            (Duration::from_millis(15), Duration::from_millis(30)),
        )
        .deadline(Duration::from_secs(3))
        .family(GraphFamily::Tree),
        TenantStorm::steady(
            "chaos",
            Duration::from_millis(25),
            (1, 4),
            (Duration::from_millis(5), Duration::from_millis(10)),
        )
        .faulting_during(0.0, 0.6),
    ]
}

struct PassReport {
    label: &'static str,
    submitted: u64,
    admitted: u64,
    rejected: u64,
    shed: u64,
    completed: u64,
    timed_out: u64,
    failed: u64,
    cancelled: u64,
    /// Outcomes whose reject reason was `Shed`.
    shed_outcomes: u64,
    /// Outcomes whose reject reason was `BreakerOpen`.
    breaker_outcomes: u64,
    /// Rejections metered inside the breakers themselves.
    breaker_rejected: u64,
    /// `TimedOut` outcomes that never spawned a task (expired queued).
    queued_timeouts: u64,
    /// Well-behaved (`alpha`+`beta`) `TimedOut` outcomes.
    wb_timeouts: u64,
    /// Well-behaved completions.
    wb_completed: u64,
    /// Handles still non-terminal after the drain (invariant: 0).
    non_terminal: u64,
    /// `/service/tasks/budget-in-use` after the drain (invariant: 0).
    budget_in_use: f64,
    queue_len: usize,
    running_len: usize,
    chaos_opens: u64,
    chaos_closed: bool,
}

fn run_pass(label: &'static str, plan: &StormPlan, resilience: bool) -> PassReport {
    let mut config = ServiceConfig {
        runtime: grain_service::grain_runtime::RuntimeConfig::with_workers(2),
        admission: AdmissionConfig {
            max_in_flight_tasks: 16,
            max_queued_jobs: 64,
        },
        poll_interval: Duration::from_micros(200),
        ..ServiceConfig::default()
    };
    config.pressure.enabled = resilience;
    config.breaker.enabled = resilience;
    // The storm is short in wall-clock terms; trip and cool fast.
    config.breaker.min_samples = 4;
    config.breaker.window = 16;
    config.breaker.open_for = Duration::from_millis(40);
    config.breaker.probe_every = Duration::from_millis(5);
    let service = JobService::new(config);
    let cal = Calibration::quick();

    let t0 = Instant::now();
    let mut handles: Vec<(String, JobHandle)> = Vec::new();
    for (idx, e) in plan.events.iter().enumerate() {
        let due = real(e.at);
        if let Some(sleep) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(sleep);
        }
        let grain = real(e.grain);
        // Family tenants run a taskbench graph of ~`tasks` nodes at the
        // same per-task grain; `Flat` keeps the legacy spawn loop. The
        // shape depends only on the (deterministic) plan, so replays
        // resubmit identical bodies.
        let graph = shapes::spec_for_event(e.family, e.tasks, cal.iters_for(grain), 32, idx as u64)
            .map(|s| Arc::new(s.build()));
        let estimated = graph.as_ref().map_or(e.tasks, |g| g.len() as u64);
        let mut spec =
            JobSpec::new(e.name.clone(), e.tenant.clone()).estimated_tasks(estimated + 1);
        if let Some(d) = e.deadline {
            spec = spec.deadline(real(d));
        }
        if e.faulty {
            spec = spec.failure_policy(FailurePolicy::RetryWithBackoff {
                max_attempts: 3,
                base: Duration::from_micros(500),
                cap: Duration::from_millis(5),
            });
        }
        let faulty = e.faulty;
        let tasks = e.tasks;
        let handle = service.submit(spec, move |ctx| {
            if faulty {
                panic!("storm-planned fault");
            }
            match &graph {
                Some(g) => shapes::spawn_in_job(ctx, g),
                None => {
                    for _ in 0..tasks {
                        ctx.spawn(move |_| spin_for(grain));
                    }
                }
            }
        });
        handles.push((e.tenant.clone(), handle));
    }
    service.wait_all();

    let mut r = PassReport {
        label,
        submitted: service.counters().submitted.get(),
        admitted: service.counters().admitted.get(),
        rejected: service.counters().rejected.get(),
        shed: service.counters().shed.get(),
        completed: service.counters().completed.get(),
        timed_out: service.counters().timed_out.get(),
        failed: service.counters().failed.get(),
        cancelled: service.counters().cancelled.get(),
        shed_outcomes: 0,
        breaker_outcomes: 0,
        breaker_rejected: service.breaker_rejections(),
        queued_timeouts: 0,
        wb_timeouts: 0,
        wb_completed: 0,
        non_terminal: 0,
        budget_in_use: service
            .registry()
            .query("/service/tasks/budget-in-use")
            .map(|v| v.value)
            .unwrap_or(f64::NAN),
        queue_len: service.queue_len(),
        running_len: service.running_len(),
        chaos_opens: service.breaker_opens("chaos"),
        chaos_closed: service.breaker_state("chaos") != Some(grain_service::BreakerState::Open),
    };
    for (tenant, h) in &handles {
        if !h.state().is_terminal() {
            r.non_terminal += 1;
            continue;
        }
        let o = h.wait();
        let well_behaved = tenant != "chaos";
        match o.state {
            JobState::Completed if well_behaved => r.wb_completed += 1,
            JobState::TimedOut => {
                if well_behaved {
                    r.wb_timeouts += 1;
                }
                if o.tasks_spawned == 0 {
                    r.queued_timeouts += 1;
                }
            }
            JobState::Rejected => match o.reject_reason {
                Some(RejectReason::Shed) => r.shed_outcomes += 1,
                Some(RejectReason::BreakerOpen) => r.breaker_outcomes += 1,
                _ => {}
            },
            _ => {}
        }
    }
    r
}

/// Check the overload invariants; returns human-readable violations.
fn violations(r: &PassReport) -> Vec<String> {
    let mut v = Vec::new();
    if r.non_terminal != 0 {
        v.push(format!(
            "{} jobs never reached a terminal state",
            r.non_terminal
        ));
    }
    if r.budget_in_use != 0.0 {
        v.push(format!(
            "budget leak: {} tasks still charged",
            r.budget_in_use
        ));
    }
    if r.queue_len != 0 || r.running_len != 0 {
        v.push(format!(
            "not quiescent: {} queued, {} running",
            r.queue_len, r.running_len
        ));
    }
    let accounted = r.admitted + r.rejected + r.shed + r.queued_timeouts;
    if accounted != r.submitted {
        v.push(format!(
            "conservation broken: admitted {} + rejected {} + shed {} + queued-timeouts {} != submitted {}",
            r.admitted, r.rejected, r.shed, r.queued_timeouts, r.submitted
        ));
    }
    if r.shed != r.shed_outcomes {
        v.push(format!(
            "shed counter {} != outcomes reporting Shed {}",
            r.shed, r.shed_outcomes
        ));
    }
    if r.breaker_rejected != r.breaker_outcomes {
        v.push(format!(
            "breaker rejected counter {} != outcomes reporting BreakerOpen {}",
            r.breaker_rejected, r.breaker_outcomes
        ));
    }
    v
}

fn print_pass(r: &PassReport) {
    println!(
        "{:>10}: submitted {:>5}  admitted {:>5}  completed {:>5}  timed-out {:>4}  \
         failed {:>4}  cancelled {:>3}  rejected {:>5}  shed {:>4}  breaker-rej {:>4}",
        r.label,
        r.submitted,
        r.admitted,
        r.completed,
        r.timed_out,
        r.failed,
        r.cancelled,
        r.rejected,
        r.shed,
        r.breaker_rejected,
    );
    println!(
        "{:>10}  well-behaved: {} completed, {} timed out; chaos breaker: {} opens, closed at end: {}",
        "", r.wb_completed, r.wb_timeouts, r.chaos_opens, r.chaos_closed
    );
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: soak [--virtual-seconds N] [--seed N]\n\
         Replays a seeded overload+fault storm against the job service\n\
         (resilience on / off / on) and asserts the overload invariants."
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 })
}

fn main() {
    let mut virtual_seconds: u64 = 30;
    let mut seed: u64 = 7;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--virtual-seconds" => {
                virtual_seconds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .unwrap_or_else(|| usage("--virtual-seconds needs a positive integer"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    let horizon = Duration::from_secs(virtual_seconds);
    let plan = StormPlan::generate(seed, horizon, &profiles());
    let replay = StormPlan::generate(seed, horizon, &profiles());
    assert_eq!(
        plan.events, replay.events,
        "storm generation must be deterministic for one seed"
    );
    println!(
        "# soak: seed {seed}, {virtual_seconds} virtual seconds (~{:.1}s wall per pass), \
         {} events ({} faulty)",
        real(horizon).as_secs_f64(),
        plan.events.len(),
        plan.faulty_count()
    );

    let on = run_pass("shed on", &plan, true);
    let off = run_pass("shed off", &plan, false);
    let on2 = run_pass("on again", &plan, true);
    for r in [&on, &off, &on2] {
        print_pass(r);
        let v = violations(r);
        assert!(
            v.is_empty(),
            "invariants violated in pass `{}`:\n  {}",
            r.label,
            v.join("\n  ")
        );
    }

    // Resilience claims, checked on both protected passes.
    for r in [&on, &on2] {
        assert!(
            r.chaos_opens >= 1,
            "pass `{}`: the chaos tenant's breaker never opened",
            r.label
        );
        assert!(
            r.chaos_closed,
            "pass `{}`: the chaos breaker did not re-close after recovery",
            r.label
        );
        assert!(
            r.wb_timeouts <= off.wb_timeouts,
            "pass `{}`: shedding made well-behaved timeouts worse ({} > {})",
            r.label,
            r.wb_timeouts,
            off.wb_timeouts
        );
    }
    assert!(
        off.wb_timeouts > 0,
        "the unprotected pass must show timeouts for the comparison to mean anything"
    );
    assert!(
        on.wb_timeouts < off.wb_timeouts,
        "shedding must reduce well-behaved timeouts ({} vs {})",
        on.wb_timeouts,
        off.wb_timeouts
    );
    println!(
        "\nok: invariants held in all three passes; well-behaved timeouts {} -> {} with \
         shedding; chaos breaker opened and re-closed",
        off.wb_timeouts, on.wb_timeouts
    );
}
