//! Overload-resilience behavior: load shedding, per-tenant circuit
//! breakers, and deadline-budget propagation through the service.

#[path = "../../runtime/tests/support/pace.rs"]
mod pace;

use grain_counters::sync::{AtomicBool, Mutex, Ordering};
use grain_service::{
    AdmissionConfig, BreakerState, JobService, JobSpec, JobState, PressureLevel, RejectReason,
    ServiceConfig,
};
use pace::pace;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn base_config() -> ServiceConfig {
    ServiceConfig::with_workers(1)
}

/// Spin until `cond` holds or the timeout trips (returns success).
fn wait_until(timeout: Duration, cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        pace(Duration::from_micros(200));
    }
    cond()
}

#[test]
fn shed_jobs_report_shed_and_meter_the_shed_counter() {
    // One blocker pins the single-task budget; five victims with short
    // deadlines pile up behind it and must all be shed — metered on the
    // `shed` counter, not `rejected`.
    let config = ServiceConfig {
        admission: AdmissionConfig {
            max_in_flight_tasks: 1,
            ..AdmissionConfig::default()
        },
        ..base_config()
    };
    let service = JobService::new(config);
    let release = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&release);
    let blocker = service.submit(JobSpec::new("blocker", "tenant-a"), move |_| {
        while !r.load(Ordering::SeqCst) {
            pace(Duration::from_micros(200));
        }
    });
    assert!(wait_until(Duration::from_secs(5), || {
        blocker.state() == JobState::Running
    }));

    let victims: Vec<_> = (0..5)
        .map(|i| {
            service.submit(
                JobSpec::new(format!("victim-{i}"), "tenant-a").deadline(Duration::from_millis(15)),
                |_| unreachable!("must be shed while queued"),
            )
        })
        .collect();
    let outcomes: Vec<_> = victims.iter().map(|v| v.wait()).collect();
    release.store(true, Ordering::SeqCst);
    assert_eq!(blocker.wait().state, JobState::Completed);

    for o in &outcomes {
        assert_eq!(o.state, JobState::Rejected);
        assert_eq!(o.reject_reason, Some(RejectReason::Shed));
        assert_eq!(o.tasks_spawned, 0, "shed before admission, never ran");
    }
    let counters = service.counters();
    assert_eq!(counters.shed.get(), 5, "one shed increment per victim");
    assert_eq!(counters.rejected.get(), 0, "shed is not rejected");
    assert_eq!(counters.timed_out.get(), 0, "shed is not timed out");
    assert_eq!(
        service
            .registry()
            .query("/service/jobs/shed")
            .expect("registered")
            .value,
        5.0
    );
}

#[test]
fn breaker_trips_on_a_faulting_tenant_and_recloses_after_a_good_probe() {
    let mut config = base_config();
    config.breaker.min_samples = 4;
    config.breaker.window = 8;
    // Wide margins: the open window must comfortably outlast the
    // bounced-submission and other-tenant checks below even on a slow,
    // loaded machine.
    config.breaker.open_for = Duration::from_millis(300);
    config.breaker.probe_every = Duration::from_millis(5);
    let service = JobService::new(config);

    // Four straight faults cross the 50 % threshold at min_samples.
    for i in 0..4 {
        let job = service.submit(JobSpec::new(format!("bad-{i}"), "chaos"), |_| {
            panic!("chaos job faults")
        });
        assert_eq!(job.wait().state, JobState::Failed);
    }
    assert_eq!(service.breaker_state("chaos"), Some(BreakerState::Open));
    assert_eq!(service.breaker_opens("chaos"), 1);

    // While open, submissions bounce with a BreakerOpen reason...
    let bounced = service.submit(JobSpec::new("bounced", "chaos"), |_| {
        unreachable!("breaker is open")
    });
    let o = bounced.wait();
    assert_eq!(o.state, JobState::Rejected);
    assert_eq!(o.reject_reason, Some(RejectReason::BreakerOpen));
    assert!(service.breaker_rejections() >= 1);

    // ...but other tenants sail through untouched.
    let fine = service.submit(JobSpec::new("fine", "steady"), |ctx| {
        ctx.spawn(|_| std::hint::black_box(()));
    });
    assert_eq!(fine.wait().state, JobState::Completed);
    assert_eq!(service.breaker_state("steady"), Some(BreakerState::Closed));

    // After the cooldown a healthy job is admitted as the half-open
    // probe; its success re-closes the breaker.
    pace(Duration::from_millis(350));
    let probe = service.submit(JobSpec::new("probe", "chaos"), |ctx| {
        ctx.spawn(|_| std::hint::black_box(()));
    });
    assert_eq!(probe.wait().state, JobState::Completed);
    assert!(wait_until(Duration::from_secs(5), || {
        service.breaker_state("chaos") == Some(BreakerState::Closed)
    }));

    // And the tenant serves normally again.
    let after = service.submit(JobSpec::new("after", "chaos"), |ctx| {
        ctx.spawn(|_| std::hint::black_box(()));
    });
    assert_eq!(after.wait().state, JobState::Completed);
}

#[test]
fn open_breaker_denies_the_retry_budget() {
    // A retrying tenant faults enough to trip its breaker; the faulted
    // job then fails outright instead of spending more attempts.
    let mut config = base_config();
    config.breaker.min_samples = 2;
    config.breaker.window = 4;
    config.breaker.open_for = Duration::from_secs(30); // never cools in-test
    let service = JobService::new(config);

    let jobs: Vec<_> = (0..3)
        .map(|i| {
            service.submit(
                JobSpec::new(format!("flappy-{i}"), "chaos").failure_policy(
                    grain_service::FailurePolicy::RetryWithBackoff {
                        max_attempts: 50,
                        base: Duration::from_millis(1),
                        cap: Duration::from_millis(2),
                    },
                ),
                |_| panic!("always faults"),
            )
        })
        .collect();
    for j in &jobs {
        assert_eq!(j.wait().state, JobState::Failed);
    }
    assert_eq!(service.breaker_state("chaos"), Some(BreakerState::Open));
    let total_retries: u64 = jobs.iter().map(|j| j.wait().retries).sum();
    // 3 jobs × 50 attempts would be 147 retries; the breaker cuts the
    // spree short as soon as it trips.
    assert!(
        total_retries < 10,
        "open breaker must stop the retry spree (saw {total_retries})"
    );
}

#[test]
fn a_submission_the_queue_refuses_leaves_the_probe_slot_free() {
    // One queue slot and one in-flight task: a running blocker and a
    // queued filler leave no room.
    let mut config = ServiceConfig {
        admission: AdmissionConfig {
            max_in_flight_tasks: 1,
            max_queued_jobs: 1,
        },
        ..base_config()
    };
    (config.breaker.min_samples, config.breaker.window) = (1, 1);
    config.breaker.open_for = Duration::from_millis(50);
    config.breaker.probe_every = Duration::from_secs(3600);
    let service = JobService::new(config);
    let bad = service.submit(JobSpec::new("bad", "chaos"), |_| panic!("chaos job faults"));
    assert_eq!(bad.wait().state, JobState::Failed);
    assert_eq!(service.breaker_state("chaos"), Some(BreakerState::Open));
    let release = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&release);
    let blocker = service.submit(JobSpec::new("blocker", "steady"), move |_| {
        while !r.load(Ordering::SeqCst) {
            pace(Duration::from_micros(200));
        }
    });
    assert!(wait_until(Duration::from_secs(5), || {
        blocker.state() == JobState::Running
    }));
    let filler = service.submit(JobSpec::new("filler", "steady"), |_| {});
    assert_eq!(filler.state(), JobState::Queued);

    // Cooled, but the queue is full: the would-be probe is refused there.
    pace(Duration::from_millis(80));
    let refused = service.submit(JobSpec::new("refused", "chaos"), |_| {});
    assert_eq!(refused.wait().reject_reason, Some(RejectReason::QueueFull));
    // With a slot free again, well inside `probe_every`, the next
    // submission is the probe — not bounced for a probe that never ran.
    filler.cancel();
    let probe = service.submit(JobSpec::new("probe", "chaos"), |_| {});
    release.store(true, Ordering::SeqCst);
    assert_eq!(probe.rejection(), None);
    assert_eq!(probe.wait().state, JobState::Completed);
    assert_eq!(service.breaker_state("chaos"), Some(BreakerState::Closed));
    assert_eq!(service.breaker_rejections(), 0, "nothing saw BreakerOpen");
}

#[test]
fn deadline_budget_propagates_to_dispatch() {
    // Admission installs the job's deadline as its group's budget: every
    // task of the job, the root and a child, reads what is left of it.
    // That the runtime skips a member whose budget is spent at dispatch
    // is `groups.rs::exhausted_budget_skips_queued_members_at_dispatch`.
    let service = JobService::new(base_config());
    let deadline = Duration::from_secs(60);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = Arc::clone(&seen);
    let submitted = Instant::now();
    let job = service.submit(
        JobSpec::new("budgeted", "tenant-a").deadline(deadline),
        move |ctx| {
            s.lock().push(ctx.remaining_budget());
            let s = Arc::clone(&s);
            ctx.spawn(move |c| s.lock().push(c.remaining_budget()));
        },
    );
    assert_eq!(job.wait().state, JobState::Completed);
    let elapsed = submitted.elapsed();
    let seen = seen.lock().clone();
    assert_eq!(seen.len(), 2, "root and child both ran");
    for left in seen {
        let left = left.expect("the deadline is the group's budget");
        assert!(
            left <= deadline && left + elapsed >= deadline,
            "{left:?} left of a {deadline:?} budget, {elapsed:?} after submission"
        );
    }
    // A job without a deadline runs unbudgeted.
    let none = Arc::new(AtomicBool::new(false));
    let n = Arc::clone(&none);
    let job = service.submit(JobSpec::new("unbudgeted", "tenant-a"), move |ctx| {
        n.store(ctx.remaining_budget().is_none(), Ordering::SeqCst);
    });
    assert_eq!(job.wait().state, JobState::Completed);
    assert!(none.load(Ordering::SeqCst));
}

#[test]
fn pressure_signal_reports_queue_fill_and_shrinks_nothing_when_calm() {
    let service = JobService::new(base_config());
    let sig = service.pressure_signal();
    assert_eq!(sig.level, PressureLevel::Nominal);
    // The budget limit starts at the full configured budget.
    assert_eq!(
        sig.budget_limit,
        AdmissionConfig::default().max_in_flight_tasks
    );
    // A healthy run leaves the level nominal.
    let job = service.submit(JobSpec::new("calm", "tenant-a"), |ctx| {
        for _ in 0..8 {
            ctx.spawn(|_| std::hint::black_box(()));
        }
    });
    assert_eq!(job.wait().state, JobState::Completed);
    assert_eq!(service.pressure_signal().level, PressureLevel::Nominal);
}
