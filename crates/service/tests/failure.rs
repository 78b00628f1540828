//! Failure-policy behavior of the job service: fail-fast, retry with
//! backoff (until success and until exhaustion), continue-remaining,
//! and fault reporting through `JobOutcome`.

use grain_counters::sync::{AtomicU64, Ordering};
use grain_runtime::TaskError;
use grain_service::{FailurePolicy, JobService, JobSpec, JobState, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

fn single_worker_config() -> ServiceConfig {
    ServiceConfig::with_workers(1)
}

#[test]
fn fail_fast_fails_the_job_and_skips_the_queued_tail() {
    let service = JobService::new(single_worker_config());
    let tail_ran = Arc::new(AtomicU64::new(0));

    let t = Arc::clone(&tail_ran);
    // Default policy is FailFast: the first fault cancels the group.
    let job = service.submit(JobSpec::new("crashy", "tenant-a"), move |ctx| {
        ctx.spawn(|_| panic!("first child down"));
        for _ in 0..50 {
            let t = Arc::clone(&t);
            ctx.spawn(move |_| {
                t.fetch_add(1, Ordering::SeqCst);
            });
        }
    });

    let outcome = job.wait();
    assert_eq!(outcome.state, JobState::Failed);
    assert!(outcome.fault.is_some(), "a Failed job must carry its fault");
    assert!(matches!(
        outcome.fault.as_ref().map(TaskError::root_cause),
        Some(TaskError::Panicked { .. })
    ));
    assert_eq!(outcome.tasks_faulted, 1);
    assert!(
        outcome.tasks_skipped > 0,
        "fail-fast should cancel the queued tail, outcome: {outcome:?}"
    );
    assert!(
        tail_ran.load(Ordering::SeqCst) < 50,
        "every tail task ran despite fail-fast"
    );
    assert_eq!(outcome.retries, 0);
    assert_eq!(
        service
            .registry()
            .query("/service/jobs/failed")
            .expect("service counters registered")
            .value,
        1.0
    );
}

#[test]
fn retry_with_backoff_recovers_a_flaky_job() {
    let service = JobService::new(single_worker_config());
    let attempts = Arc::new(AtomicU64::new(0));

    let a = Arc::clone(&attempts);
    let job = service.submit(
        JobSpec::new("flaky", "tenant-a").retry(5, Duration::from_millis(1)),
        move |ctx| {
            // First two attempts fault; the third runs clean. The body is
            // FnMut exactly so a retry can re-run it.
            let n = a.fetch_add(1, Ordering::SeqCst);
            ctx.spawn(move |_| {
                if n < 2 {
                    panic!("flaky attempt {n}");
                }
            });
        },
    );

    let outcome = job.wait();
    assert_eq!(outcome.state, JobState::Completed, "outcome: {outcome:?}");
    assert_eq!(outcome.retries, 2);
    assert_eq!(attempts.load(Ordering::SeqCst), 3);
    // Fault state is per-attempt: a successful retry reports a clean run.
    assert_eq!(outcome.fault, None);
    assert_eq!(outcome.tasks_faulted, 0);
    assert_eq!(
        service
            .registry()
            .query("/service/jobs/retried")
            .expect("service counters registered")
            .value,
        2.0
    );
    assert_eq!(
        job.query_counter("tasks/retried")
            .expect("job counters registered")
            .value,
        2.0
    );
    assert_eq!(
        service
            .registry()
            .query("/service/jobs/completed")
            .expect("service counters registered")
            .value,
        1.0
    );
}

#[test]
fn retry_exhaustion_fails_the_job_with_its_last_fault() {
    let service = JobService::new(single_worker_config());
    let attempts = Arc::new(AtomicU64::new(0));

    let a = Arc::clone(&attempts);
    let job = service.submit(
        JobSpec::new("doomed", "tenant-a").retry(3, Duration::from_millis(1)),
        move |ctx| {
            a.fetch_add(1, Ordering::SeqCst);
            ctx.spawn(|_| panic!("always down"));
        },
    );

    let outcome = job.wait();
    assert_eq!(outcome.state, JobState::Failed);
    assert_eq!(outcome.retries, 2, "3 attempts = 2 retries");
    assert_eq!(attempts.load(Ordering::SeqCst), 3);
    assert!(matches!(
        outcome.fault.as_ref().map(TaskError::root_cause),
        Some(TaskError::Panicked { message }) if message.contains("always down")
    ));
}

#[test]
fn continue_remaining_lets_siblings_finish_before_failing() {
    let service = JobService::new(single_worker_config());
    let tail_ran = Arc::new(AtomicU64::new(0));

    let t = Arc::clone(&tail_ran);
    let job = service.submit(
        JobSpec::new("stoic", "tenant-a").failure_policy(FailurePolicy::ContinueRemaining),
        move |ctx| {
            ctx.spawn(|_| panic!("one child down"));
            for _ in 0..20 {
                let t = Arc::clone(&t);
                ctx.spawn(move |_| {
                    t.fetch_add(1, Ordering::SeqCst);
                });
            }
        },
    );

    let outcome = job.wait();
    assert_eq!(outcome.state, JobState::Failed);
    assert_eq!(outcome.tasks_faulted, 1);
    assert_eq!(outcome.tasks_skipped, 0, "nothing may be cancelled");
    assert_eq!(tail_ran.load(Ordering::SeqCst), 20);
    // root + 20 siblings completed; the faulted child did not.
    assert_eq!(outcome.tasks_completed, 21);
}

#[test]
fn dependency_faults_inside_a_job_keep_their_cause_chain() {
    let service = JobService::new(single_worker_config());

    let job = service.submit(JobSpec::new("dag", "tenant-a"), move |ctx| {
        let a = ctx.async_call(|_| -> u32 { panic!("root cause here") });
        ctx.dataflow(&[a], |_, v| *v[0] + 1);
    });

    let outcome = job.wait();
    assert_eq!(outcome.state, JobState::Failed);
    let fault = outcome.fault.expect("job faulted");
    assert!(matches!(
        fault.root_cause(),
        TaskError::Panicked { message } if message.contains("root cause here")
    ));
}
