//! End-to-end behavior of the job service: cancellation, deadlines,
//! admission backpressure, fair share, and counter isolation.

use grain_counters::sync::Mutex;
use grain_service::{
    AdmissionConfig, AdmissionError, JobService, JobSpec, JobState, PolicyHook, RejectReason,
    ServiceConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn single_worker_config() -> ServiceConfig {
    ServiceConfig {
        poll_interval: Duration::from_micros(200),
        ..ServiceConfig::with_workers(1)
    }
}

/// Spin until `cond` holds or the timeout trips (returns success).
fn wait_until(timeout: Duration, cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    cond()
}

#[test]
fn cancellation_mid_dag_skips_the_queued_tail() {
    let service = JobService::new(single_worker_config());
    let started = Arc::new(AtomicBool::new(false));
    let tail_ran = Arc::new(AtomicU64::new(0));

    let s = Arc::clone(&started);
    let t = Arc::clone(&tail_ran);
    let job = service.submit(JobSpec::new("dag", "tenant-a"), move |ctx| {
        // First child holds the single worker until cancelled...
        let s = Arc::clone(&s);
        ctx.spawn(move |c| {
            s.store(true, Ordering::SeqCst);
            while !c.is_cancelled() {
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        // ...so this tail sits queued behind it.
        for _ in 0..50 {
            let t = Arc::clone(&t);
            ctx.spawn(move |_| {
                t.fetch_add(1, Ordering::SeqCst);
            });
        }
    });

    assert!(
        wait_until(Duration::from_secs(5), || started.load(Ordering::SeqCst)),
        "blocker never started"
    );
    job.cancel();
    let outcome = job.wait();

    assert_eq!(outcome.state, JobState::Cancelled);
    assert_eq!(outcome.tasks_spawned, 52, "root + blocker + 50 tail tasks");
    assert_eq!(outcome.tasks_skipped, 50, "the queued tail never ran");
    assert_eq!(
        outcome.tasks_completed, 2,
        "root and the cooperative blocker"
    );
    assert_eq!(tail_ran.load(Ordering::SeqCst), 0);
}

#[test]
fn deadline_expiry_times_a_running_job_out() {
    let service = JobService::new(single_worker_config());
    let deadline = Duration::from_millis(30);
    let job = service.submit(JobSpec::new("slow", "tenant-a").deadline(deadline), |ctx| {
        ctx.spawn(|c| {
            // Never finishes on its own; relies on the deadline.
            while !c.is_cancelled() {
                std::thread::sleep(Duration::from_micros(200));
            }
        });
    });
    let outcome = job.wait();
    assert_eq!(outcome.state, JobState::TimedOut);
    assert!(
        outcome.turnaround >= deadline,
        "cannot time out before the deadline: {:?}",
        outcome.turnaround
    );
}

/// Submit a blocker that pins the single-task budget, then a victim
/// with a short deadline that expires while queued. Returns the
/// victim's outcome with the blocker released and completed.
fn queued_deadline_expiry(config: ServiceConfig) -> grain_service::JobOutcome {
    let service = JobService::new(config);
    let release = Arc::new(AtomicBool::new(false));

    let r = Arc::clone(&release);
    let blocker = service.submit(JobSpec::new("blocker", "tenant-a"), move |_| {
        while !r.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
    });
    assert!(wait_until(Duration::from_secs(5), || {
        blocker.state() == JobState::Running
    }));

    let victim = service.submit(
        JobSpec::new("victim", "tenant-a").deadline(Duration::from_millis(20)),
        |_| unreachable!("expires while queued; the body must never run"),
    );
    // Release the blocker before asserting anything: a failed assert
    // must not leave it spinning through the service's drop.
    let outcome = victim.wait();
    release.store(true, Ordering::SeqCst);
    assert_eq!(blocker.wait().state, JobState::Completed);
    assert_eq!(outcome.tasks_spawned, 0, "never admitted, never ran");
    outcome
}

/// Budget of 1 task: the blocker occupies it, the victim waits past its
/// deadline. With the pressure loop on (the default), the shedder drops
/// it as `Rejected` with a `Shed` reason — not `TimedOut`.
#[test]
fn deadline_expiry_sheds_a_job_stuck_in_the_queue() {
    let config = ServiceConfig {
        admission: AdmissionConfig {
            max_in_flight_tasks: 1,
            ..AdmissionConfig::default()
        },
        ..single_worker_config()
    };
    let outcome = queued_deadline_expiry(config);
    assert_eq!(outcome.state, JobState::Rejected);
    assert_eq!(outcome.reject_reason, Some(RejectReason::Shed));
}

/// The same expiry with the pressure loop disabled keeps the legacy
/// behavior: the dispatcher's deadline scan ends the job as `TimedOut`.
#[test]
fn deadline_expiry_times_out_a_queued_job_with_shedding_disabled() {
    let mut config = ServiceConfig {
        admission: AdmissionConfig {
            max_in_flight_tasks: 1,
            ..AdmissionConfig::default()
        },
        ..single_worker_config()
    };
    config.pressure.enabled = false;
    let outcome = queued_deadline_expiry(config);
    assert_eq!(outcome.state, JobState::TimedOut);
    assert_eq!(outcome.reject_reason, None);
}

#[test]
fn deadline_on_a_dormant_dataflow_reservation_settles_from_the_dispatcher() {
    // At expiry the job's only in-flight member is a dormant dataflow
    // reservation, so the dispatcher's cancel retires the group's last
    // member and runs settle() inline on the dispatcher thread.
    // Regression: the deadline scan used to hold the running lock across
    // cancel(), self-deadlocking on settle()'s running.lock().
    let service = JobService::new(single_worker_config());
    let (_promise, never) = grain_runtime::channel::<u32>();
    let job = service.submit(
        JobSpec::new("dormant", "tenant-a").deadline(Duration::from_millis(30)),
        move |ctx| {
            let _ = ctx.dataflow(std::slice::from_ref(&never), |_, _| {
                unreachable!("input never arrives")
            });
        },
    );
    let outcome = job
        .wait_timeout(Duration::from_secs(5))
        .expect("dispatcher deadlocked settling an expired dormant job");
    assert_eq!(outcome.state, JobState::TimedOut);
    assert_eq!(outcome.tasks_skipped, 1, "the reservation was released");
}

#[test]
fn racing_cancel_with_admission_never_leaks_budget_or_running_entries() {
    // Hammer the Queued→Cancelled vs Queued→Admitted race: each job is
    // cancelled right after submission, while the dispatcher may be
    // admitting it. Regression: a cancel landing between admission's
    // state transitions could either leak the budget reservation (the
    // job stayed in the running list forever) or be overwritten back to
    // a non-terminal state.
    let service = JobService::new(single_worker_config());
    let jobs: Vec<_> = (0..200)
        .map(|i| {
            let job = service.submit(JobSpec::new(format!("racy-{i}"), "tenant-a"), |_| {});
            job.cancel();
            job
        })
        .collect();
    for job in &jobs {
        let outcome = job
            .wait_timeout(Duration::from_secs(5))
            .expect("cancel/admit race lost the terminal transition");
        assert!(
            matches!(outcome.state, JobState::Cancelled | JobState::Completed),
            "unexpected terminal state {}",
            outcome.state
        );
        assert!(job.state().is_terminal(), "terminal state was overwritten");
    }
    assert!(
        wait_until(Duration::from_secs(5), || service.running_len() == 0
            && service.queue_len() == 0),
        "a settled job leaked budget or a running-list entry"
    );
}

#[test]
fn wait_all_covers_jobs_in_the_admission_window() {
    // Regression: between the dispatcher popping a job off the queues
    // and pushing it into the running list, wait_all used to see it in
    // neither structure and return while work was about to start.
    let service = JobService::new(single_worker_config());
    for round in 0..50 {
        let jobs: Vec<_> = (0..4)
            .map(|i| service.submit(JobSpec::new(format!("w{round}-{i}"), "tenant-a"), |_| {}))
            .collect();
        service.wait_all();
        for job in &jobs {
            assert!(
                job.state().is_terminal(),
                "wait_all returned while a job was still {}",
                job.state()
            );
        }
    }
}

#[test]
fn wait_all_is_woken_by_the_last_settle_not_by_the_poll_tick() {
    // Regression: wait_all slept `poll_interval` between checks, so with
    // a parked dispatcher (3600 s, as resilience.rs uses) it would have
    // slept an hour past a job that finished in a millisecond.
    let service = Arc::new(JobService::new(ServiceConfig {
        poll_interval: Duration::from_secs(3600),
        ..ServiceConfig::with_workers(1)
    }));
    let (release, gate) = std::sync::mpsc::channel::<()>();
    let job = service.submit(JobSpec::new("short", "tenant-a"), move |_| {
        let _ = gate.recv();
    });
    assert!(wait_until(Duration::from_secs(5), || service.running_len() == 1));
    let (entering, entered) = std::sync::mpsc::channel();
    let (done, finished) = std::sync::mpsc::channel();
    let s = Arc::clone(&service);
    let waiter = std::thread::spawn(move || {
        entering.send(()).expect("the test is listening");
        s.wait_all();
        let _ = done.send(());
    });
    entered.recv().expect("waiter started");
    // Either order of this release and the waiter's first check must
    // work; the pause only makes the order that used to hang the likely
    // one.
    std::thread::sleep(Duration::from_millis(50));
    release.send(()).expect("the job is holding the gate");
    finished
        .recv_timeout(Duration::from_secs(1))
        .expect("wait_all outlived the last settle by more than a second");
    waiter.join().expect("waiter panicked");
    assert_eq!(job.state(), JobState::Completed);
}

#[test]
fn terminal_queue_entries_do_not_count_against_the_queue_bound() {
    // A job cancelled while queued leaves a terminal entry behind until
    // the dispatcher reaps it; submit() must not let it cause a spurious
    // QueueFull rejection.
    let config = ServiceConfig {
        admission: AdmissionConfig {
            max_in_flight_tasks: 1,
            max_queued_jobs: 2,
            ..AdmissionConfig::default()
        },
        ..single_worker_config()
    };
    let service = JobService::new(config);
    let release = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&release);
    let blocker = service.submit(JobSpec::new("blocker", "tenant-a"), move |_| {
        while !r.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
    });
    assert!(wait_until(Duration::from_secs(5), || {
        blocker.state() == JobState::Running
    }));
    let q1 = service.submit(JobSpec::new("q1", "tenant-a"), |_| {});
    let q2 = service.submit(JobSpec::new("q2", "tenant-a"), |_| {});
    assert!(q1.rejection().is_none() && q2.rejection().is_none());
    // The queue sits at its bound of 2; cancelling q1 leaves a terminal
    // entry that must no longer count toward it.
    q1.cancel();
    assert_eq!(q1.wait().state, JobState::Cancelled);
    let q3 = service.submit(JobSpec::new("q3", "tenant-a"), |_| {});
    assert!(
        q3.rejection().is_none(),
        "terminal queue entry caused a spurious rejection: {:?}",
        q3.rejection()
    );
    release.store(true, Ordering::SeqCst);
    assert_eq!(blocker.wait().state, JobState::Completed);
    assert_eq!(q2.wait().state, JobState::Completed);
    assert_eq!(q3.wait().state, JobState::Completed);
}

#[test]
fn backpressure_rejects_when_the_queue_is_full() {
    let config = ServiceConfig {
        admission: AdmissionConfig {
            max_in_flight_tasks: 1,
            max_queued_jobs: 2,
            ..AdmissionConfig::default()
        },
        ..single_worker_config()
    };
    let service = JobService::new(config);
    let release = Arc::new(AtomicBool::new(false));

    let r = Arc::clone(&release);
    let blocker = service.submit(JobSpec::new("blocker", "tenant-a"), move |_| {
        while !r.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
    });
    assert!(wait_until(Duration::from_secs(5), || {
        blocker.state() == JobState::Running
    }));

    // The budget is full, so these two sit in the queue...
    let q1 = service.submit(JobSpec::new("waiter", "tenant-a"), |_| {});
    let q2 = service.submit(JobSpec::new("waiter", "tenant-a"), |_| {});
    // ...and the third submission bounces.
    let rejected = service.submit(JobSpec::new("overflow", "tenant-a"), |_| {});

    assert_eq!(rejected.state(), JobState::Rejected);
    match rejected.rejection() {
        Some(AdmissionError::QueueFull { queued, limit }) => {
            assert_eq!(queued, 2);
            assert_eq!(limit, 2);
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(
        service
            .registry()
            .query("/service/jobs/rejected")
            .unwrap()
            .as_count(),
        1
    );

    release.store(true, Ordering::SeqCst);
    assert_eq!(blocker.wait().state, JobState::Completed);
    assert_eq!(q1.wait().state, JobState::Completed);
    assert_eq!(q2.wait().state, JobState::Completed);
}

#[test]
fn fair_share_biases_admission_toward_the_heavier_tenant() {
    let config = ServiceConfig {
        admission: AdmissionConfig {
            // One job's budget at a time: admission order == run order.
            max_in_flight_tasks: 1,
            tenant_weights: vec![("heavy".into(), 3), ("light".into(), 1)],
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::with_workers(2)
    };
    let service = JobService::new(config);
    let release = Arc::new(AtomicBool::new(false));
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    // Hold the budget while both tenants pile up their backlogs.
    let r = Arc::clone(&release);
    let blocker = service.submit(JobSpec::new("blocker", "warmup"), move |_| {
        while !r.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
    });
    assert!(wait_until(Duration::from_secs(5), || {
        blocker.state() == JobState::Running
    }));

    let mut handles = Vec::new();
    for tenant in ["heavy", "light"] {
        for _ in 0..8 {
            let o = Arc::clone(&order);
            let t = tenant.to_string();
            handles.push(service.submit(JobSpec::new("work", tenant), move |_| {
                o.lock().push(t.clone());
            }));
        }
    }
    release.store(true, Ordering::SeqCst);
    for h in handles {
        assert_eq!(h.wait().state, JobState::Completed);
    }

    let order = order.lock();
    let heavy_in_first_8 = order[..8].iter().filter(|t| *t == "heavy").count();
    // Weight 3 vs 1: the heavy tenant owns ~3/4 of early admissions
    // (exactly 6 of 8 under strict stride; allow scheduling slack).
    assert!(
        heavy_in_first_8 >= 5,
        "heavy tenant under-served: {:?}",
        &order[..]
    );
    assert!(
        order[..8].iter().any(|t| t == "light"),
        "light tenant fully starved: {:?}",
        &order[..]
    );
}

#[test]
fn per_job_counters_are_isolated_and_retired() {
    let service = JobService::with_workers(2);

    let job_a = service.submit(
        JobSpec::new("alpha", "tenant-a").estimated_tasks(11),
        |ctx| {
            for _ in 0..10 {
                ctx.spawn(|_| {
                    std::hint::black_box(0u64);
                });
            }
        },
    );
    assert_eq!(job_a.wait().state, JobState::Completed);
    let path_a = format!("/jobs{{{}}}/threads/count/cumulative", job_a.instance());
    assert_eq!(service.registry().query(&path_a).unwrap().as_count(), 11);

    let job_b = service.submit(JobSpec::new("beta", "tenant-b").estimated_tasks(6), |ctx| {
        for _ in 0..5 {
            ctx.spawn(|_| {
                std::hint::black_box(0u64);
            });
        }
    });
    assert_eq!(job_b.wait().state, JobState::Completed);

    // Job B's work moved B's counters, not A's.
    assert_eq!(
        job_b
            .query_counter("threads/count/cumulative")
            .unwrap()
            .as_count(),
        6
    );
    assert_eq!(
        service.registry().query(&path_a).unwrap().as_count(),
        11,
        "job A's cumulative count must not see job B's tasks"
    );
    assert_ne!(job_a.instance(), job_b.instance());

    // Dropping the last handle retires the job's counter namespace.
    drop(job_a);
    assert!(
        wait_until(Duration::from_secs(5), || {
            service.registry().query(&path_a).is_err()
        }),
        "job A's namespace should unregister once its last handle drops"
    );

    // Service-wide lifecycle counters saw both jobs.
    assert_eq!(
        service
            .registry()
            .query("/service/jobs/completed")
            .unwrap()
            .as_count(),
        2
    );
}

#[test]
fn concurrent_jobs_share_the_runtime_without_interference() {
    let service = JobService::with_workers(4);
    let mut handles = Vec::new();
    for round in 0..3 {
        for tenant in ["a", "b", "c"] {
            let spec = JobSpec::new(format!("mix-{round}"), tenant).estimated_tasks(17);
            handles.push(service.submit(spec, move |ctx| {
                let total = Arc::new(AtomicU64::new(0));
                for i in 0..16u64 {
                    let total = Arc::clone(&total);
                    ctx.spawn(move |_| {
                        total.fetch_add(std::hint::black_box(i), Ordering::Relaxed);
                    });
                }
            }));
        }
    }
    for h in handles {
        let outcome = h.wait();
        assert_eq!(outcome.state, JobState::Completed);
        assert_eq!(outcome.tasks_completed, 17, "root + 16 children each");
        assert_eq!(outcome.tasks_skipped, 0);
    }
    assert_eq!(
        service
            .registry()
            .query("/service/jobs/completed")
            .unwrap()
            .as_count(),
        9
    );
}

/// A job's `TaskGroup` dies with the job. Grouped dataflow nodes hold
/// their group, so a group that held them back strongly would live on
/// after every completed job — a service that only ever sees jobs
/// complete would grow without bound.
#[test]
fn completed_dataflow_jobs_leave_no_live_task_group() {
    const JOBS: usize = 1_000;
    let service = JobService::new(single_worker_config());
    let groups = Arc::new(Mutex::new(Vec::with_capacity(JOBS)));
    for round in 0..JOBS / 4 {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let groups = Arc::clone(&groups);
                let spec = JobSpec::new(format!("chain-{round}-{i}"), "tenant-a");
                service.submit(spec, move |ctx| {
                    let group = ctx.group().expect("a job body runs in the job's group");
                    groups.lock().push(Arc::downgrade(group));
                    let mut tail = ctx.async_call(|_| 0u64);
                    for _ in 0..4 {
                        tail = ctx.dataflow(&[tail], |_, v| *v[0] + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            let outcome = h.wait();
            assert_eq!(outcome.state, JobState::Completed);
            assert_eq!(outcome.tasks_completed, 6, "root, source, four nodes");
        }
    }
    service.wait_all();
    let live = || {
        let groups = groups.lock();
        assert_eq!(groups.len(), JOBS);
        groups.iter().filter(|g| g.strong_count() > 0).count()
    };
    assert!(
        wait_until(Duration::from_secs(5), || live() == 0),
        "{} of {JOBS} completed jobs' groups are still alive",
        live()
    );
}

/// "Terminal" to a waiter means every observer has counted the job. The
/// settling thread makes the state terminal, then meters the job and
/// runs the policy hook, then publishes. A `wait()` that *arrives* in
/// that window must block until the hook returns — it used to see the
/// terminal state and return with the hook still running (the autotune
/// flake: a submitter re-reading the controller before it had counted
/// the job). The channels force the interleaving.
#[test]
fn a_waiter_arriving_while_the_policy_hook_runs_blocks_until_it_returns() {
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let service = JobService::new(ServiceConfig {
        // Errors ignored: a failed assertion below drops the test's ends
        // of both channels, and that must release the hook, not panic it.
        policy: Some(PolicyHook::new(move |_, _| {
            let _ = entered_tx.send(());
            let _ = release_rx.lock().recv();
        })),
        ..single_worker_config()
    });
    // Re-bound after `service`, so an unwinding assertion drops it first
    // and so releases the hook that the service's drop waits for.
    let release_tx = release_tx;
    let job = service.submit(JobSpec::new("hooked", "tenant-a"), |_| {});
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the job settles and its hook starts");
    // The body is done and the state reads terminal, but nobody may
    // collect the outcome yet.
    assert_eq!(job.state(), JobState::Completed);
    assert!(job.outcome().is_none(), "outcome published mid-hook");
    assert!(job.wait_timeout(Duration::from_millis(20)).is_none());
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn({
        let job = job.clone();
        move || {
            let _ = done_tx.send(job.wait().state);
        }
    });
    assert!(
        done_rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "wait() returned while the policy hook was still running"
    );
    release_tx.send(()).expect("hook is blocked on this");
    assert_eq!(
        done_rx.recv_timeout(Duration::from_secs(10)),
        Ok(JobState::Completed)
    );
    waiter.join().expect("waiter thread");
    assert_eq!(job.outcome().map(|o| o.state), Some(JobState::Completed));
}

#[test]
fn dropping_the_service_mid_flight_tears_down_on_the_dropping_thread() {
    // Settlement hooks on worker threads hold transient Arc clones of
    // the service internals. Dropping the service while jobs are still
    // settling used to race: a worker could end up owning the last
    // reference, drop the runtime from inside itself, and self-join
    // (EDEADLK). Drop now waits the transients out; a batch of quick
    // jobs dropped mid-flight must tear down cleanly every time.
    for round in 0..8 {
        let service = JobService::new(ServiceConfig {
            poll_interval: Duration::from_micros(200),
            ..ServiceConfig::with_workers(2)
        });
        let handles: Vec<_> = (0..16)
            .map(|i| {
                service.submit(
                    JobSpec::new(format!("flash-{round}-{i}"), "tenant-a"),
                    |ctx| {
                        for _ in 0..4 {
                            ctx.spawn(|_| std::hint::black_box(()));
                        }
                    },
                )
            })
            .collect();
        // Drop with jobs in every stage: queued, running, settling.
        drop(service);
        drop(handles);
    }
}
