//! Where admission runs: on the submitting and settling threads, one
//! drain at a time, with the budget checked and charged in one critical
//! section — and the dispatcher woken only for what a clock must do.

#[path = "../../runtime/tests/support/pace.rs"]
mod pace;

use grain_counters::sync::{AtomicU64, Ordering};
use grain_service::{AdmissionConfig, JobService, JobSpec, JobState, PolicyHook, ServiceConfig};
use pace::pace;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn count(service: &JobService, path: &str) -> u64 {
    service
        .registry()
        .query(path)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .as_count()
}

/// Four submitters and two settling workers all admit; none may charge
/// a job on a budget reading another admitter has already spent. Every
/// job reads the budget gauge from inside its body, where its own cost
/// is already counted, and no reading may pass the limit.
#[test]
fn concurrent_admitters_never_overdraw_the_budget() {
    const COST: u64 = 4;
    const LIMIT: u64 = 2 * COST;
    const PER_SUBMITTER: u64 = 150;
    let service = Arc::new(JobService::new(ServiceConfig {
        admission: AdmissionConfig {
            max_in_flight_tasks: LIMIT,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::with_workers(2)
    }));
    let peak = Arc::new(AtomicU64::new(0));
    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let service = Arc::clone(&service);
            let peak = Arc::clone(&peak);
            grain_counters::sync::spawn(format!("submitter-{t}"), move || {
                for i in 0..PER_SUBMITTER {
                    let registry = Arc::clone(service.registry());
                    let peak = Arc::clone(&peak);
                    let spec =
                        JobSpec::new(format!("b{t}-{i}"), format!("t{t}")).estimated_tasks(COST);
                    service.submit(spec, move |ctx| {
                        let in_use = registry
                            .query("/service/tasks/budget-in-use")
                            .map_or(u64::MAX, |v| v.as_count());
                        peak.fetch_max(in_use, Ordering::SeqCst);
                        for _ in 1..COST {
                            ctx.spawn(|_| {
                                let t0 = Instant::now();
                                while t0.elapsed() < Duration::from_micros(20) {
                                    std::hint::spin_loop();
                                }
                            });
                        }
                    });
                }
            })
            .unwrap()
        })
        .collect();
    for submitter in submitters {
        submitter.join().expect("a submitter panicked");
    }
    service.wait_all();
    let peak = peak.load(Ordering::SeqCst);
    assert!(
        peak <= LIMIT,
        "a job ran with {peak} tasks charged, limit {LIMIT}"
    );
    let submitted = count(&service, "/service/jobs/submitted");
    let admitted = count(&service, "/service/jobs/admitted");
    let rejected = count(&service, "/service/jobs/rejected");
    let shed = count(&service, "/service/jobs/shed");
    assert_eq!(submitted, 4 * PER_SUBMITTER);
    assert_eq!(admitted + rejected + shed, submitted);
    assert_eq!(count(&service, "/service/jobs/completed"), admitted);
    assert_eq!(count(&service, "/service/tasks/budget-in-use"), 0);
}

/// A policy hook counting the settles that run on the thread `name`.
fn settles_on(name: &'static str) -> (Option<PolicyHook>, Arc<AtomicU64>) {
    let settles = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&settles);
    let hook = PolicyHook::new(move |_, _| {
        if std::thread::current().name() == Some(name) {
            s.fetch_add(1, Ordering::SeqCst);
        }
    });
    (Some(hook), settles)
}

/// A settle that frees room for the whole queue admits all of it on its
/// own thread. Admission is a loop, not a chain of settles each starting
/// the next admission, so a 256 KiB stack holds a 5 000-job drain: every
/// job it admits settles on a worker, never inline below the drain.
///
/// The empty jobs settle on the workers while the drain runs, and read as
/// pure overhead (Eq. 1) with the queue still deep: the pressure loop
/// must not sample then, or it halves the budget under the drain
/// (ROADMAP item 6(c)).
#[test]
fn a_deep_queue_drains_on_a_small_stack() {
    const JOBS: u64 = 5_000;
    let (policy, drainer_settles) = settles_on("drainer");
    let service = JobService::new(ServiceConfig {
        // Room for twice the queue: the dispatcher samples pressure every
        // millisecond while jobs wait, and a queue filled past three
        // quarters reads as critical, where CoDel drops the oldest job
        // every 100 ms — not the subject here.
        admission: AdmissionConfig {
            max_in_flight_tasks: JOBS,
            max_queued_jobs: 2 * JOBS as usize,
        },
        // A tick admits only when it opened a backoff gate or regrew the
        // budget, neither of which happens here: no tick can take the
        // drain away from the cancelling thread.
        policy,
        ..ServiceConfig::with_workers(2)
    });
    // The blocker holds the whole budget with a dataflow node whose
    // input never arrives: only a cancel retires it, and its settle then
    // runs on the cancelling thread.
    let (_promise, never) = grain_service::grain_runtime::channel::<u32>();
    let blocker = service.submit(
        JobSpec::new("blocker", "t").estimated_tasks(JOBS),
        move |ctx| {
            let _ = ctx.dataflow(std::slice::from_ref(&never), |_, _| {
                unreachable!("input never arrives")
            });
        },
    );
    let root_done = || {
        blocker
            .query_counter("threads/count/cumulative")
            .is_ok_and(|v| v.as_count() == 1)
    };
    assert!(wait_until(Duration::from_secs(5), root_done));
    let jobs: Vec<_> = (0..JOBS)
        .map(|i| service.submit(JobSpec::new(format!("zero-{i}"), "t"), |_| {}))
        .collect();
    assert_eq!(
        service.queue_len(),
        JOBS as usize,
        "all wait behind the blocker"
    );
    let cancel = blocker.clone();
    grain_counters::sync::spawn_with_stack("drainer", 256 * 1024, move || cancel.cancel())
        .expect("spawn the small-stack thread")
        .join()
        .expect("the small-stack thread finished");
    assert_eq!(
        service.queue_len(),
        0,
        "the cancelling thread admitted every job"
    );
    assert_eq!(blocker.wait().state, JobState::Cancelled);
    for job in &jobs {
        assert_eq!(job.wait().state, JobState::Completed);
    }
    assert_eq!(
        drainer_settles.load(Ordering::SeqCst),
        1,
        "only the blocker settles on the thread that drained the queue"
    );
}

/// The dispatcher is a timer thread: jobs with no deadline that never
/// wait for budget give it nothing to do, so 1 000 of them, one after
/// another, wake it at most a handful of times. Admission runs on the
/// submitter, but no settle — and no policy hook — ever does.
#[test]
fn closed_loop_jobs_without_deadlines_leave_the_dispatcher_asleep() {
    let (policy, submitter_settles) = settles_on("submitter");
    let service = Arc::new(JobService::new(ServiceConfig {
        policy,
        ..ServiceConfig::with_workers(2)
    }));
    let submitter = Arc::clone(&service);
    grain_counters::sync::spawn("submitter", move || {
        for i in 0..1_000 {
            let job = submitter.submit(
                JobSpec::new(format!("closed-{i}"), "t").estimated_tasks(3),
                |ctx| {
                    for _ in 0..2 {
                        ctx.spawn(|_| std::hint::black_box(()));
                    }
                },
            );
            assert_eq!(job.wait().state, JobState::Completed);
        }
    })
    .expect("spawn the submitter")
    .join()
    .expect("the submitter finished");
    let wakes = count(&service, "/service/dispatcher/wakes");
    assert!(wakes <= 5, "{wakes} dispatcher wakes for 1 000 jobs");
    assert_eq!(submitter_settles.load(Ordering::SeqCst), 0);
}

/// A deadline is a timer the dispatcher sleeps until, not a reason to
/// tick: 50 closed-loop jobs with a 10 s deadline and a 5 ms body all
/// finish before the first deadline, so the dispatcher need run no pass
/// for them; the bound allows one per job. A dispatcher that ticked
/// every 500 µs while any timer existed would wake about ten per job.
#[test]
fn deadline_jobs_wake_the_dispatcher_at_most_once_each() {
    const JOBS: u64 = 50;
    let service = JobService::with_workers(2);
    for i in 0..JOBS {
        let job = service.submit(
            JobSpec::new(format!("timed-{i}"), "t").deadline(Duration::from_secs(10)),
            |_| pace(Duration::from_millis(5)),
        );
        assert_eq!(job.wait().state, JobState::Completed);
    }
    let wakes = count(&service, "/service/dispatcher/wakes");
    assert!(
        wakes <= JOBS + 5,
        "{wakes} dispatcher wakes for {JOBS} deadline jobs"
    );
}

/// A deadline is a timer: the dispatcher wakes for it and times the job
/// out, though admission never needed it.
#[test]
fn a_deadline_still_times_out_through_the_dispatcher() {
    let service = JobService::with_workers(2);
    let deadline = Duration::from_millis(50);
    let job = service.submit(JobSpec::new("late", "t").deadline(deadline), |ctx| {
        ctx.spawn(|c| {
            // Never finishes on its own; relies on the deadline.
            while !c.is_cancelled() {
                pace(Duration::from_micros(200));
            }
        });
    });
    let outcome = job
        .wait_timeout(Duration::from_secs(10))
        .expect("the dispatcher never timed the job out");
    assert_eq!(outcome.state, JobState::TimedOut);
    assert!(outcome.turnaround >= deadline, "{:?}", outcome.turnaround);
    assert!(count(&service, "/service/dispatcher/wakes") >= 1);
}

/// Zero-grain jobs waiting behind the budget are the paper's "too fine"
/// regime, and the pressure loop answers them as such (ROADMAP item
/// 6(c), reading 1): a one-worker service whose jobs are all dispatch
/// halves the budget down to its floor while they wait. The budget is
/// cut only while the windowed overhead (Eq. 1) sits at or above the cut
/// threshold with work queued (`pressure.rs`'s
/// `overhead_just_below_the_cut_threshold_leaves_the_budget`), so
/// reaching the floor shows three samples read it there; the overhead a
/// one-worker service reads afterwards depends on the host, and is not
/// asserted.
#[test]
fn zero_grain_jobs_behind_the_budget_cut_it_to_the_floor() {
    /// `pressure.rs`'s `MIN_BUDGET`.
    const FLOOR: u64 = 8;
    /// Each job estimates the whole budget: one runs, the rest wait.
    const COST: u64 = 64;
    const OUTSTANDING: usize = 32;
    let service = JobService::new(ServiceConfig {
        admission: AdmissionConfig {
            max_in_flight_tasks: COST,
            max_queued_jobs: 1_024,
        },
        ..ServiceConfig::with_workers(1)
    });
    let gauge = |path: &str| {
        service
            .registry()
            .query(path)
            .unwrap_or_else(|e| panic!("{path}: {e}"))
            .value
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut live = std::collections::VecDeque::new();
    let mut jobs = 0u64;
    while gauge("/service/tasks/budget-limit") > FLOOR as f64 && Instant::now() < deadline {
        while live.len() < OUTSTANDING {
            let spec = JobSpec::new(format!("zero-{jobs}"), "t").estimated_tasks(COST);
            live.push_back(service.submit(spec, |_| {}));
            jobs += 1;
        }
        let oldest = live.pop_front().expect("a job is live");
        assert_eq!(oldest.wait().state, JobState::Completed);
    }
    let limit = gauge("/service/tasks/budget-limit");
    service.wait_all();
    assert_eq!(
        limit, FLOOR as f64,
        "the budget fell to its floor within {jobs} jobs"
    );
}
