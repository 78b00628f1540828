//! Open-loop load generator for the grain-service job layer.
//!
//! Three tenants with different grain profiles (the paper's central
//! variable) submit jobs on fixed schedules, Task-Bench style, against
//! one shared runtime:
//!
//! * `interactive` — many small jobs of fine-grained tasks, weight 4,
//!   `Interactive` priority;
//! * `batch` — medium jobs of medium tasks, weight 2;
//! * `background` — few large jobs of coarse tasks, weight 1,
//!   `BestEffort` priority.
//!
//! On top of the steady load the harness provokes the two unhappy paths:
//! a runaway background job that is cancelled mid-flight, and a burst
//! that overflows the admission queue so submissions bounce with
//! `Rejected`. The report shows per-tenant throughput, exact p50/p99
//! turnaround, the service counter surface, and one job's counter paths.
//!
//! A final phase serves **taskbench-family tenants**: tenants whose jobs
//! are dependency graphs (stencil halo, tree reduce, parallel sweep)
//! submitted as work *shapes*, once with the autotune grain controller
//! enabled and once pinned to the submitter's (deliberately coarse)
//! partition. The per-tenant grain trajectory and wall-clock totals of
//! both runs are printed as one table.

use grain_adaptive::tuner::TunerConfig;
use grain_autotune::{Autotune, AutotuneConfig, ShapedWork};
use grain_bench::Cli;
use grain_metrics::table;
use grain_service::{
    AdmissionConfig, JobHandle, JobPriority, JobService, JobSpec, JobState, ServiceConfig,
};
use grain_sim::storm::GraphFamily;
use grain_taskbench::Cov;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keep a core busy for roughly `us` microseconds of real work.
fn spin_for(us: u64) {
    let t0 = Instant::now();
    let mut x = 0u64;
    while t0.elapsed() < Duration::from_micros(us) {
        for i in 0..64u64 {
            x = x.wrapping_add(std::hint::black_box(i) * i);
        }
    }
    std::hint::black_box(x);
}

struct Profile {
    tenant: &'static str,
    priority: JobPriority,
    tasks: u64,
    grain_us: u64,
    jobs: usize,
    inter_arrival: Duration,
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let cli = Cli::parse();
    let workers = grain_topology::host::available_cores().clamp(2, 4);
    let scale = if cli.quick { 1 } else { 4 };

    let config = ServiceConfig {
        runtime: grain_service::grain_runtime::RuntimeConfig::with_workers(workers),
        admission: AdmissionConfig {
            max_in_flight_tasks: 256,
            max_queued_jobs: 8,
            default_tenant_weight: 1,
            tenant_weights: vec![("interactive".into(), 4), ("batch".into(), 2)],
        },
        poll_interval: Duration::from_micros(200),
        ..ServiceConfig::default()
    };
    let max_budget = config.admission.max_in_flight_tasks;
    let queue_limit = config.admission.max_queued_jobs;
    let service = JobService::new(config);
    println!(
        "# service_bench: {workers} workers, budget {max_budget} tasks, queue limit {queue_limit}"
    );

    // ---- Unhappy path 1: a runaway job, cancelled mid-flight. -------
    // Its cost claims the whole budget, so while it runs everything else
    // must wait in the tenant queues.
    let release_probe = Arc::new(AtomicBool::new(false));
    let probe = Arc::clone(&release_probe);
    let runaway = service.submit(
        JobSpec::new("runaway", "background")
            .priority(JobPriority::BestEffort)
            .estimated_tasks(max_budget),
        move |ctx| {
            probe.store(true, Ordering::SeqCst);
            for _ in 0..4 {
                ctx.spawn(|c| {
                    while !c.is_cancelled() {
                        spin_for(50);
                    }
                });
            }
        },
    );
    while !release_probe.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_micros(100));
    }

    // ---- Unhappy path 2: burst past the queue bound. ----------------
    let mut burst: Vec<JobHandle> = Vec::new();
    for i in 0..queue_limit + 4 {
        burst.push(service.submit(
            JobSpec::new(format!("burst-{i}"), "batch").estimated_tasks(2),
            |ctx| {
                ctx.spawn(|_| spin_for(5));
            },
        ));
    }
    let bounced = burst
        .iter()
        .filter(|h| h.state() == JobState::Rejected)
        .count();
    runaway.cancel();
    let runaway_outcome = runaway.wait();
    println!(
        "# runaway cancelled: state={} completed={} skipped={}; burst rejected {bounced}/{}",
        runaway_outcome.state,
        runaway_outcome.tasks_completed,
        runaway_outcome.tasks_skipped,
        burst.len()
    );
    assert_eq!(runaway_outcome.state, JobState::Cancelled);
    assert!(bounced >= 1, "burst must overflow the admission queue");

    // ---- Steady open-loop load across three tenants. ----------------
    let profiles = [
        Profile {
            tenant: "interactive",
            priority: JobPriority::Interactive,
            tasks: 16,
            grain_us: 20,
            jobs: 12 * scale,
            inter_arrival: Duration::from_millis(2),
        },
        Profile {
            tenant: "batch",
            priority: JobPriority::Batch,
            tasks: 32,
            grain_us: 100,
            jobs: 6 * scale,
            inter_arrival: Duration::from_millis(4),
        },
        Profile {
            tenant: "background",
            priority: JobPriority::BestEffort,
            tasks: 64,
            grain_us: 400,
            jobs: 2 * scale,
            inter_arrival: Duration::from_millis(12),
        },
    ];

    let t0 = Instant::now();
    let mut handles: Vec<(&'static str, JobHandle)> = Vec::new();
    std::thread::scope(|scope| {
        // One generator thread per tenant: each submits on its own
        // clock (open loop), not when the service is ready for it.
        let generators: Vec<_> = profiles
            .iter()
            .map(|p| {
                let service = &service;
                let (tenant, priority, tasks, grain_us, jobs, gap) = (
                    p.tenant,
                    p.priority,
                    p.tasks,
                    p.grain_us,
                    p.jobs,
                    p.inter_arrival,
                );
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let start = Instant::now();
                    for j in 0..jobs {
                        // Sleep to the schedule, then submit regardless
                        // of service state.
                        let due = gap * j as u32;
                        if let Some(sleep) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(sleep);
                        }
                        let spec = JobSpec::new(format!("{tenant}-{j}"), tenant)
                            .priority(priority)
                            .estimated_tasks(tasks + 1);
                        mine.push(service.submit(spec, move |ctx| {
                            for _ in 0..tasks {
                                ctx.spawn(move |_| spin_for(grain_us));
                            }
                        }));
                    }
                    (tenant, mine)
                })
            })
            .collect();
        for t in generators {
            let (tenant, mine) = t.join().expect("generator thread panicked");
            handles.extend(mine.into_iter().map(|h| (tenant, h)));
        }
    });

    // Join every job and fold per-tenant stats.
    let mut rows = Vec::new();
    let mut all_turnarounds: Vec<Duration> = Vec::new();
    for p in &profiles {
        let mut turnarounds: Vec<Duration> = Vec::new();
        let mut states = [0usize; 4]; // completed, cancelled+timed-out, rejected, other
        let mut tasks_done = 0u64;
        for (tenant, h) in handles.iter().filter(|(t, _)| *t == p.tenant) {
            let _ = tenant;
            let o = h.wait();
            match o.state {
                JobState::Completed => states[0] += 1,
                JobState::Cancelled | JobState::TimedOut => states[1] += 1,
                JobState::Rejected => states[2] += 1,
                _ => states[3] += 1,
            }
            if o.state == JobState::Completed {
                turnarounds.push(o.turnaround);
                tasks_done += o.tasks_completed;
            }
        }
        turnarounds.sort();
        all_turnarounds.extend(turnarounds.iter().copied());
        rows.push(vec![
            p.tenant.to_string(),
            p.jobs.to_string(),
            states[0].to_string(),
            states[2].to_string(),
            table::fmt::count(tasks_done as f64),
            table::fmt::s(percentile(&turnarounds, 0.50).as_secs_f64()),
            table::fmt::s(percentile(&turnarounds, 0.99).as_secs_f64()),
        ]);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let headers = [
        "tenant", "jobs", "done", "rejected", "tasks", "p50 turn", "p99 turn",
    ];
    print!(
        "{}",
        table::render(
            &format!("service_bench: open-loop mixed-grain load, {elapsed:.2}s wall"),
            &headers,
            &rows
        )
    );
    if cli.csv {
        println!();
        print!("{}", table::csv(&headers, &rows));
    }

    all_turnarounds.sort();
    let total_jobs: usize = profiles.iter().map(|p| p.jobs).sum();
    println!(
        "\nthroughput: {:.1} jobs/s submitted, p50 {:.3} ms / p99 {:.3} ms turnaround (all tenants)",
        total_jobs as f64 / elapsed,
        percentile(&all_turnarounds, 0.50).as_secs_f64() * 1e3,
        percentile(&all_turnarounds, 0.99).as_secs_f64() * 1e3,
    );

    // ---- The counter surfaces. --------------------------------------
    // Join the burst stragglers too, so the gauges below read a fully
    // drained service.
    for h in &burst {
        let _ = h.wait();
    }
    let (_, sample) = handles.last().expect("load phase submitted jobs");
    println!(
        "\nper-job counters of {} ({}):",
        sample.instance(),
        sample.state()
    );
    for path in sample.counter_paths() {
        let v = service
            .registry()
            .query(&path)
            .map(|v| v.value)
            .unwrap_or(f64::NAN);
        println!("  {path} = {v:.0}");
    }
    println!("\nservice counters:");
    for path in [
        "/service/jobs/submitted",
        "/service/jobs/admitted",
        "/service/jobs/completed",
        "/service/jobs/cancelled",
        "/service/jobs/timed-out",
        "/service/jobs/rejected",
        "/service/queue/length",
        "/service/tasks/budget-in-use",
        "/service/time/admission-latency",
        "/service/time/turnaround",
    ] {
        let v = service.registry().query(path).expect("registered").value;
        println!("  {path} = {v:.0}");
    }
    let counters = service.counters();
    println!("\nturnaround histogram (log2 ns buckets):");
    print!("{}", counters.turnaround.render("ns", 40));
    println!(
        "histogram quantile floors: p50 >= {} ns, p99 >= {} ns",
        counters.turnaround.quantile_floor(0.50),
        counters.turnaround.quantile_floor(0.99)
    );

    assert!(counters.cancelled.get() >= 1, "at least one cancelled job");
    assert!(counters.rejected.get() >= 1, "at least one rejected job");

    // ---- Overload resilience: one misbehaving tenant, before/after. --
    // The same 2× oversubmission storm with a panicking `chaos` tenant,
    // run once with the pressure loop + breakers disabled and once with
    // the defaults, comparing the well-behaved tenants' outcomes.
    println!();
    let baseline = overload_phase(false, workers, scale);
    let resilient = overload_phase(true, workers, scale);
    let headers = [
        "resilience",
        "done",
        "timed-out",
        "shed",
        "breaker-rej",
        "p50 turn",
        "p99 turn",
    ];
    let rows = vec![baseline.row("off"), resilient.row("on")];
    print!(
        "{}",
        table::render(
            "service_bench: overload storm, well-behaved tenants (alpha+beta) vs chaos",
            &headers,
            &rows
        )
    );
    if cli.csv {
        println!();
        print!("{}", table::csv(&headers, &rows));
    }
    println!(
        "\nchaos tenant: breaker opened {}x with resilience on (0 expected off: {})",
        resilient.breaker_opens, baseline.breaker_opens
    );
    assert!(
        resilient.breaker_opens >= 1,
        "the chaos tenant's breaker must trip under the storm"
    );
    // ---- Taskbench-family tenants, autotune on/off. -----------------
    // Graph-shaped tenants submit work shapes starting from one giant
    // task per job; the controller re-chunks the "on" run while the
    // "off" run keeps the submitter's partition.
    println!();
    let tuned = autotune_phase(true, workers);
    let pinned = autotune_phase(false, workers);
    let headers = [
        "tenant",
        "autotune",
        "grain 0",
        "grain N",
        "converged",
        "total",
    ];
    let mut rows = Vec::new();
    for r in tuned.iter().chain(pinned.iter()) {
        rows.push(r.row());
    }
    print!(
        "{}",
        table::render(
            "service_bench: taskbench-family tenants, shaped submission",
            &headers,
            &rows
        )
    );
    if cli.csv {
        println!();
        print!("{}", table::csv(&headers, &rows));
    }
    for r in &tuned {
        assert!(
            r.final_grain < r.start_grain,
            "{}: controller must break up one-task jobs",
            r.tenant
        );
    }
    for r in &pinned {
        assert_eq!(
            r.final_grain, r.start_grain,
            "{}: disabled autotune must not re-chunk",
            r.tenant
        );
    }

    println!("\nok: >=3 tenants served, >=1 job cancelled, >=1 rejected, overload compared");
}

struct OverloadResult {
    completed: usize,
    timed_out: usize,
    shed: usize,
    breaker_rejected: u64,
    p50: Duration,
    p99: Duration,
    breaker_opens: u64,
}

impl OverloadResult {
    fn row(&self, label: &str) -> Vec<String> {
        vec![
            label.to_string(),
            self.completed.to_string(),
            self.timed_out.to_string(),
            self.shed.to_string(),
            self.breaker_rejected.to_string(),
            table::fmt::s(self.p50.as_secs_f64()),
            table::fmt::s(self.p99.as_secs_f64()),
        ]
    }
}

/// One seeded overload storm: two well-behaved tenants submit deadline
/// jobs at 2× the service's drain rate while a `chaos` tenant floods it
/// with panicking retry jobs. Returns the well-behaved tenants' fate.
fn overload_phase(resilience: bool, workers: usize, scale: usize) -> OverloadResult {
    let mut config = ServiceConfig {
        runtime: grain_service::grain_runtime::RuntimeConfig::with_workers(workers),
        admission: AdmissionConfig {
            max_in_flight_tasks: 16,
            max_queued_jobs: 64,
            default_tenant_weight: 1,
            tenant_weights: Vec::new(),
        },
        poll_interval: Duration::from_micros(200),
        ..ServiceConfig::default()
    };
    config.pressure.enabled = resilience;
    config.breaker.enabled = resilience;
    // Trip fast: the storm is short.
    config.breaker.min_samples = 4;
    config.breaker.window = 8;
    config.breaker.open_for = Duration::from_millis(50);
    let service = JobService::new(config);

    let jobs_per_tenant = 24 * scale;
    let deadline = Duration::from_millis(60);
    let mut well_behaved: Vec<JobHandle> = Vec::new();
    let mut chaos_handles: Vec<JobHandle> = Vec::new();
    std::thread::scope(|scope| {
        let generators: Vec<_> = ["alpha", "beta"]
            .into_iter()
            .map(|tenant| {
                let service = &service;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for j in 0..jobs_per_tenant {
                        let spec = JobSpec::new(format!("{tenant}-{j}"), tenant)
                            .deadline(deadline)
                            .estimated_tasks(5);
                        mine.push(service.submit(spec, |ctx| {
                            for _ in 0..4 {
                                ctx.spawn(|_| spin_for(300));
                            }
                        }));
                        // 2× oversubscription: 4 tasks × 300 µs per job
                        // over `workers` cores drains in ~1.2/workers ms;
                        // submit at twice that rate.
                        std::thread::sleep(Duration::from_micros(600 / workers as u64));
                    }
                    mine
                })
            })
            .collect();
        let chaos = scope.spawn(|| {
            let mut mine = Vec::new();
            for j in 0..2 * jobs_per_tenant {
                let spec = JobSpec::new(format!("chaos-{j}"), "chaos")
                    .estimated_tasks(2)
                    .failure_policy(grain_service::FailurePolicy::RetryWithBackoff {
                        max_attempts: 3,
                        base: Duration::from_micros(500),
                        cap: Duration::from_millis(5),
                    });
                // Burns real worker time before crashing: a misbehaving
                // tenant steals capacity, it doesn't just fail cheaply —
                // and each retry steals it again.
                mine.push(service.submit(spec, |_| {
                    spin_for(500);
                    panic!("chaos tenant always faults")
                }));
                std::thread::sleep(Duration::from_micros(300 / workers as u64));
            }
            mine
        });
        for g in generators {
            well_behaved.extend(g.join().expect("generator thread panicked"));
        }
        chaos_handles.extend(chaos.join().expect("chaos thread panicked"));
    });

    let mut turnarounds: Vec<Duration> = Vec::new();
    let mut completed = 0;
    let mut timed_out = 0;
    let mut shed = 0;
    for h in &well_behaved {
        let o = h.wait();
        match o.state {
            JobState::Completed => {
                completed += 1;
                turnarounds.push(o.turnaround);
            }
            JobState::TimedOut => timed_out += 1,
            JobState::Rejected if o.reject_reason == Some(grain_service::RejectReason::Shed) => {
                shed += 1;
            }
            _ => {}
        }
    }
    for h in &chaos_handles {
        let _ = h.wait();
    }
    turnarounds.sort();
    OverloadResult {
        completed,
        timed_out,
        shed,
        breaker_rejected: service.breaker_rejections(),
        p50: percentile(&turnarounds, 0.50),
        p99: percentile(&turnarounds, 0.99),
        breaker_opens: service.breaker_opens("chaos"),
    }
}

struct AutotuneRow {
    tenant: &'static str,
    enabled: bool,
    start_grain: u64,
    final_grain: u64,
    converged: bool,
    total: Duration,
}

impl AutotuneRow {
    fn row(&self) -> Vec<String> {
        vec![
            self.tenant.to_string(),
            if self.enabled { "on" } else { "off" }.to_string(),
            self.start_grain.to_string(),
            self.final_grain.to_string(),
            self.converged.to_string(),
            table::fmt::s(self.total.as_secs_f64()),
        ]
    }
}

/// Serve three taskbench-family tenants through shaped submission, each
/// starting from a one-task-per-job partition. Jobs run back-to-back per
/// tenant so the turnaround-derived signal is clean.
fn autotune_phase(enabled: bool, workers: usize) -> Vec<AutotuneRow> {
    const TOTAL_ITERS: u64 = 1 << 21;
    const JOBS: usize = 6;
    // The sweep tenant runs lognormally dispersed node durations
    // (COV 1.0), so the controller tunes a mean grain, not a constant.
    let profiles = [
        ("tb-stencil", GraphFamily::Stencil, Cov::Uniform),
        ("tb-tree", GraphFamily::Tree, Cov::Uniform),
        (
            "tb-sweep",
            GraphFamily::Sweep,
            Cov::Lognormal { cov_centi: 100 },
        ),
    ];
    let auto = Autotune::new(AutotuneConfig {
        enabled,
        cores: workers,
        tuner: TunerConfig {
            initial_nx: TOTAL_ITERS as usize,
            max_nx: TOTAL_ITERS as usize,
            ..TunerConfig::default()
        },
    });
    let service = JobService::new(ServiceConfig {
        policy: Some(auto.policy_hook()),
        runtime: grain_service::grain_runtime::RuntimeConfig::with_workers(workers),
        ..ServiceConfig::default()
    });
    auto.attach(&service).expect("autotune counters");
    profiles
        .into_iter()
        .map(|(tenant, family, cov)| {
            let shape = ShapedWork::Graph {
                family,
                total_iters: TOTAL_ITERS,
                payload_bytes: 16,
                seed: 29,
                cov,
            };
            let start_grain = auto.grain_for(tenant);
            let mut total = Duration::ZERO;
            for j in 0..JOBS {
                let o = auto
                    .submit_shaped(&service, &format!("{tenant}-{j}"), tenant, &shape)
                    .wait();
                assert_eq!(o.state, JobState::Completed, "{tenant} job {j}");
                total += o.turnaround;
            }
            AutotuneRow {
                tenant,
                enabled,
                start_grain,
                final_grain: auto.grain_for(tenant),
                converged: auto.converged(tenant),
                total,
            }
        })
        .collect()
}
