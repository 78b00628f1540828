//! Failover chaos tests: jobs survive locality death.
//!
//! Each test builds a 3-locality world — gateway on 0, fleet workers on
//! 1 and 2 — and drives one failure mode end to end against the
//! gateway's exactly-once ledger:
//!
//! * kill a worker mid-run → the lease is orphaned and re-dispatched
//!   exactly once, completing elsewhere;
//! * kill a worker *after* its job completed → a late duplicate push
//!   cannot double-count the completion;
//! * drain a loaded worker → queued jobs hand back with zero loss and
//!   finish on the survivor;
//! * Hold-partition the gateway from a worker, let the worker finish
//!   behind the cut, hedge the job elsewhere, then heal → the stale
//!   push is fenced by epoch, not double-counted, and each worker's
//!   pushes balance: every one sent was acknowledged or re-armed;
//! * fall below the capacity quorum → deadline-carrying jobs are shed
//!   at once with `FleetUnavailable { retry_after }`, deadline-less jobs
//!   wait;
//! * spend a job's dispatch budget on worker refusals → the outcome
//!   names the refusing locality and its reason.

#[path = "../../runtime/tests/support/pace.rs"]
mod pace;

use grain_counters::sync::Ordering;
use grain_fleet::gateway::SHED_RETRY_AFTER;
use grain_fleet::wire::{FleetOutcome, ACTION_COMPLETE};
use grain_fleet::{
    FleetConfig, FleetGateway, FleetJobHandle, FleetJobSpec, FleetWorker, FleetWorkerConfig,
    Placement,
};
use grain_net::bootstrap::Fabric;
use grain_net::locality::NetConfig;
use grain_runtime::RuntimeConfig;
use grain_service::{JobOutcome, JobState, RejectReason};
use grain_sim::{NetPlan, PartitionMode};
use pace::pace;
use std::time::{Duration, Instant};

const PATIENCE: Duration = Duration::from_secs(30);

fn eventually(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + PATIENCE;
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        pace(Duration::from_millis(2));
    }
    true
}

/// A completed routed job's Eq. 1 sums crossed the wire: its worker
/// charged both at the clock reads that ended each phase, so the
/// outcome holds Σt_exec ≤ Σt_func, both non-zero.
fn assert_window_carried(o: &JobOutcome) {
    assert!(0 < o.exec_ns && o.exec_ns <= o.func_ns, "{o:?}");
}

fn loopback_world() -> Fabric {
    Fabric::loopback(3, |i| RuntimeConfig {
        workers: 1,
        locality_id: i,
    })
}

#[test]
fn kill_during_run_redispatches_exactly_once() {
    let fabric = loopback_world();
    let w1 = FleetWorker::install(fabric.locality(1), FleetWorkerConfig::new(0, 1));
    let w2 = FleetWorker::install(fabric.locality(2), FleetWorkerConfig::new(0, 1));
    let mut cfg = FleetConfig::new(vec![1, 2]);
    cfg.placement = Placement::Prefer(1);
    let gateway = FleetGateway::install(fabric.locality(0), cfg);

    // A parked job: it reaches worker 1 and starts running, but holds
    // at the latch so the kill is guaranteed to land mid-run.
    let handle = gateway.submit(FleetJobSpec::new("victim", "tenant-a").tasks(4).park(true));
    let key = handle.key();
    assert!(
        eventually(|| gateway.lease_of(key) == Some(1)),
        "job never leased on worker 1"
    );
    assert!(
        eventually(|| w1.tracked_keys().contains(&key)),
        "worker 1 never tracked the job"
    );

    fabric.kill(1);

    // The orphaned lease re-dispatches; Prefer(1) is dead, so placement
    // falls through to worker 2, where the copy parks again.
    assert!(
        eventually(|| w2.tracked_keys().contains(&key)),
        "orphaned job never re-dispatched to worker 2"
    );
    w2.release_parked();
    let outcome = handle.wait_timeout(PATIENCE).expect("job settles");
    assert_eq!(outcome.state, JobState::Completed);
    assert_window_carried(&outcome);
    assert_eq!(
        outcome.origin_locality,
        Some(2),
        "completion must name the locality that actually ran it"
    );

    let ledger = gateway.ledger();
    assert_eq!(ledger.completed, 1, "exactly one completion: {ledger:?}");
    assert_eq!(
        ledger.orphaned, 1,
        "the kill orphaned one lease: {ledger:?}"
    );
    assert_eq!(
        ledger.redispatches, 1,
        "orphan re-dispatched exactly once: {ledger:?}"
    );
    assert_eq!(ledger.dispatches, 2, "{ledger:?}");
    assert!(ledger.conserved(), "ledger leaked: {ledger:?}");

    drop(gateway);
    drop(w2);
    drop(w1);
    fabric.shutdown();
}

#[test]
fn kill_after_complete_does_not_double_count() {
    let fabric = loopback_world();
    let w1 = FleetWorker::install(fabric.locality(1), FleetWorkerConfig::new(0, 1));
    let w2 = FleetWorker::install(fabric.locality(2), FleetWorkerConfig::new(0, 1));
    let mut cfg = FleetConfig::new(vec![1, 2]);
    cfg.placement = Placement::Prefer(1);
    let gateway = FleetGateway::install(fabric.locality(0), cfg);

    let handle = gateway.submit(FleetJobSpec::new("done-then-die", "tenant-a").tasks(4));
    let key = handle.key();
    let outcome = handle.wait_timeout(PATIENCE).expect("job settles");
    assert_eq!(outcome.state, JobState::Completed);
    assert_window_carried(&outcome);
    assert_eq!(outcome.origin_locality, Some(1));

    // The worker dies *after* the completion was recorded. Nothing is
    // orphaned — the job is already terminal.
    fabric.kill(1);
    pace(Duration::from_millis(20));
    let ledger = gateway.ledger();
    assert_eq!(ledger.completed, 1);
    assert_eq!(
        ledger.orphaned, 0,
        "terminal jobs are not orphaned: {ledger:?}"
    );
    assert_eq!(ledger.redispatches, 0, "{ledger:?}");

    // A replayed completion push for the settled job (the frame a dying
    // worker might have re-sent) is absorbed as a counted duplicate.
    let forged = FleetOutcome {
        key,
        epoch: 1,
        origin: 1,
        state: JobState::Completed,
        tasks_completed: 4,
        tasks_spawned: 4,
        tasks_faulted: 0,
        exec_ns: 1,
        func_ns: 1,
        retries: 0,
        fault_msg: None,
        reject: None,
    };
    let verdict = fabric
        .locality(2)
        .async_remote::<FleetOutcome, u8>(0, ACTION_COMPLETE, &forged)
        .wait()
        .expect("forged push settles");
    assert_eq!(*verdict, 1, "duplicate push must be refused");

    let ledger = gateway.ledger();
    assert_eq!(ledger.completed, 1, "no double count: {ledger:?}");
    assert_eq!(ledger.duplicates, 1, "{ledger:?}");
    assert_eq!(
        (ledger.orphaned, ledger.redispatches),
        (0, 0),
        "a duplicate push re-dispatches nothing: {ledger:?}"
    );
    assert!(ledger.conserved(), "ledger leaked: {ledger:?}");

    drop(gateway);
    drop(w2);
    drop(w1);
    fabric.shutdown();
}

#[test]
fn drain_hands_back_queued_jobs_with_zero_loss() {
    let fabric = loopback_world();
    // Worker 1 only has task budget for one 4-task job at a time, so
    // the follow-on jobs queue behind the parked one.
    let mut w1_cfg = FleetWorkerConfig::new(0, 1);
    w1_cfg.service.admission.max_in_flight_tasks = 4;
    let w1 = FleetWorker::install(fabric.locality(1), w1_cfg);
    let w2 = FleetWorker::install(fabric.locality(2), FleetWorkerConfig::new(0, 1));
    let mut cfg = FleetConfig::new(vec![1, 2]);
    cfg.placement = Placement::Prefer(1);
    let gateway = FleetGateway::install(fabric.locality(0), cfg);

    let blocker = gateway.submit(FleetJobSpec::new("blocker", "tenant-a").tasks(4).park(true));
    assert!(eventually(|| gateway.lease_of(blocker.key()) == Some(1)));
    let queued: Vec<_> = (0..2)
        .map(|i| gateway.submit(FleetJobSpec::new(format!("queued-{i}"), "tenant-a").tasks(4)))
        .collect();
    for h in &queued {
        assert!(
            eventually(|| gateway.lease_of(h.key()) == Some(1)),
            "queued job never leased on worker 1"
        );
    }

    let handed = gateway.drain(1).expect("drain settles");
    assert_eq!(handed.len(), 2, "both queued jobs hand back: {handed:?}");
    assert!(w1.draining());

    // Handed-back jobs re-dispatch to the survivor and complete there;
    // the running job finishes on the draining worker (drain is
    // graceful, not a kill).
    for h in &queued {
        let o = h.wait_timeout(PATIENCE).expect("handed-back job settles");
        assert_eq!(o.state, JobState::Completed, "zero loss across a drain");
        assert_window_carried(&o);
        assert_eq!(o.origin_locality, Some(2));
    }
    w1.release_parked();
    let o = blocker.wait_timeout(PATIENCE).expect("running job settles");
    assert_eq!(o.state, JobState::Completed);
    assert_window_carried(&o);
    assert_eq!(o.origin_locality, Some(1));

    let ledger = gateway.ledger();
    assert_eq!(ledger.completed, 3, "{ledger:?}");
    assert_eq!(ledger.handed_back, 2, "{ledger:?}");
    assert_eq!(ledger.redispatches, 2, "{ledger:?}");
    assert_eq!(ledger.orphaned, 0, "{ledger:?}");
    assert!(ledger.conserved(), "ledger leaked: {ledger:?}");

    drop(gateway);
    drop(w2);
    drop(w1);
    fabric.shutdown();
}

#[test]
fn partition_then_heal_fences_stale_epoch() {
    let fabric = Fabric::chaotic(
        3,
        NetPlan::clean(0xF1EE7).latency(1_000, 0),
        |_| NetConfig::default(),
        |i| RuntimeConfig {
            workers: 1,
            locality_id: i,
        },
    );
    let w1 = FleetWorker::install(fabric.locality(1), FleetWorkerConfig::new(0, 1));
    let w2 = FleetWorker::install(fabric.locality(2), FleetWorkerConfig::new(0, 1));
    let mut cfg = FleetConfig::new(vec![1, 2]);
    cfg.placement = Placement::Prefer(1);
    // No liveness monitor runs here, so a Hold partition does not sever
    // links: death detection never fires and failover rides the hedge
    // timer + ack timeout + breaker instead.
    cfg.lease_timeout = Some(Duration::from_millis(200));
    cfg.ack_timeout = Duration::from_millis(100);
    cfg.retry_backoff = Duration::from_millis(10);
    cfg.breaker_failures = 1;
    cfg.breaker_cooldown = Duration::from_secs(60);
    let gateway = FleetGateway::install(fabric.locality(0), cfg);
    let net = fabric.net().expect("chaotic world");

    let handle = gateway.submit(FleetJobSpec::new("fenced", "tenant-a").tasks(4).park(true));
    let key = handle.key();
    assert!(eventually(|| gateway.lease_of(key) == Some(1)));
    assert!(eventually(|| w1.tracked_keys().contains(&key)));

    // Cut gateway↔worker-1 in Hold mode: frames park at the cut instead
    // of dying. The worker finishes behind the partition — its epoch-1
    // completion push is now parked in the cut.
    net.partition_now(0, 1, PartitionMode::Hold);
    w1.release_parked();

    // The hedge re-dispatches: first retry at worker 1 parks at the cut
    // and times out (tripping the breaker), then placement falls to
    // worker 2 under a fresh epoch.
    assert!(
        eventually(|| w2.tracked_keys().contains(&key)),
        "hedged job never reached worker 2"
    );
    assert!(eventually(|| gateway.lease_of(key) == Some(2)));

    // Heal while worker 2's copy is still parked: the stale epoch-1
    // push flushes out of the cut and must be *fenced*, because the
    // job's current epoch has moved past it.
    net.heal_now(0, 1);
    assert!(
        eventually(|| gateway.ledger().fenced >= 1),
        "stale-epoch push was not fenced: {:?}",
        gateway.ledger()
    );
    assert_eq!(
        gateway.ledger().completed,
        0,
        "fenced push must not settle the job"
    );

    w2.release_parked();
    let outcome = handle.wait_timeout(PATIENCE).expect("job settles");
    assert_eq!(outcome.state, JobState::Completed);
    assert_eq!(outcome.origin_locality, Some(2));

    let ledger = gateway.ledger();
    assert_eq!(ledger.completed, 1, "{ledger:?}");
    assert_eq!(
        ledger.completions, 1,
        "exactly one push accepted: {ledger:?}"
    );
    assert!(ledger.hedged >= 1, "{ledger:?}");
    assert!(ledger.fenced >= 1, "{ledger:?}");
    assert!(ledger.conserved(), "ledger leaked: {ledger:?}");
    assert!(gateway.breaker_opens(1) >= 1, "breaker must have tripped");

    // Each worker's completion pushes balance once none is in flight:
    // acknowledged for the current epoch, or re-armed.
    for w in [&w1, &w2] {
        let c = w.counters();
        let pushes = || {
            (
                c.pushes_sent.load(Ordering::SeqCst),
                c.pushes_acked.load(Ordering::SeqCst),
                c.pushes_rearmed.load(Ordering::SeqCst),
            )
        };
        assert!(
            eventually(|| {
                let (sent, acked, rearmed) = pushes();
                sent == acked + rearmed
            }),
            "pushes (sent, acked, re-armed) never balanced: {:?}",
            pushes()
        );
        assert!(pushes().1 >= 1, "no push acknowledged: {:?}", pushes());
    }

    drop(gateway);
    drop(w2);
    drop(w1);
    fabric.shutdown();
}

#[test]
fn below_quorum_sheds_deadline_jobs_and_parks_the_rest() {
    let fabric = loopback_world();
    let w1 = FleetWorker::install(fabric.locality(1), FleetWorkerConfig::new(0, 1));
    let w2 = FleetWorker::install(fabric.locality(2), FleetWorkerConfig::new(0, 1));
    let mut cfg = FleetConfig::new(vec![1, 2]);
    cfg.quorum = 1.0; // both workers must be accepting
    let gateway = FleetGateway::install(fabric.locality(0), cfg);

    fabric.kill(2);
    assert!(eventually(|| gateway.accepting_workers() == vec![1]));

    // Below quorum, a job with a deadline is shed at once with a
    // retry-after hint instead of hanging: inside `submit`, before any
    // pump pass could place it.
    let shed: Vec<FleetJobHandle> = (0..4)
        .map(|i| {
            let h = gateway.submit(
                FleetJobSpec::new(format!("deadline-{i}"), "tenant-a")
                    .tasks(4)
                    .deadline(Duration::from_secs(5)),
            );
            assert!(h.outcome().is_some(), "deadline job not shed at submit");
            h
        })
        .collect();
    for h in &shed {
        let o = h.wait_timeout(PATIENCE).expect("shed job settles fast");
        assert_eq!(o.state, JobState::Rejected);
        match o.reject_reason {
            Some(RejectReason::FleetUnavailable { retry_after }) => {
                assert_eq!(retry_after, SHED_RETRY_AFTER);
            }
            other => panic!("expected FleetUnavailable, got {other:?}"),
        }
    }
    // A deadline-less job is patient: it parks pending rather than shed.
    let patient = gateway.submit(FleetJobSpec::new("patient", "tenant-a").tasks(4));
    pace(Duration::from_millis(50));
    assert!(
        patient.outcome().is_none(),
        "deadline-less job must wait, not shed"
    );

    let ledger = gateway.ledger();
    assert_eq!(ledger.shed, 4, "{ledger:?}");
    assert_eq!(ledger.settled(), 4, "{ledger:?}");

    drop(gateway);
    drop(w2);
    drop(w1);
    fabric.shutdown();
}

#[test]
fn worker_refusal_names_its_origin_in_the_outcome() {
    let fabric = loopback_world();
    // Every submission passes through the worker's queue, so cap it at
    // one waiter: the hog runs (parked), the filler takes the only
    // queue slot, and the third job is refused with `QueueFull`.
    let mut w1_cfg = FleetWorkerConfig::new(0, 1);
    w1_cfg.service.admission.max_in_flight_tasks = 4;
    w1_cfg.service.admission.max_queued_jobs = 1;
    let w1 = FleetWorker::install(fabric.locality(1), w1_cfg);
    let mut cfg = FleetConfig::new(vec![1]);
    cfg.max_dispatches = 2;
    cfg.retry_backoff = Duration::from_millis(10);
    cfg.breaker_failures = 10;
    let gateway = FleetGateway::install(fabric.locality(0), cfg);

    let blocker = gateway.submit(FleetJobSpec::new("hog", "tenant-a").tasks(4).park(true));
    assert!(eventually(|| gateway.lease_of(blocker.key()) == Some(1)));
    let filler = gateway.submit(FleetJobSpec::new("filler", "tenant-a").tasks(4));
    assert!(eventually(|| gateway.lease_of(filler.key()) == Some(1)));
    // Both dispatch attempts come back refused, and the refusal that
    // lands in the outcome names the refusing locality.
    let refused = gateway.submit(FleetJobSpec::new("refused", "tenant-a").tasks(4));
    let o = refused.wait_timeout(PATIENCE).expect("refusal settles");
    assert_eq!(o.state, JobState::Rejected);
    assert_eq!(o.origin_locality, Some(1), "refusal must name its origin");
    assert!(
        matches!(o.reject_reason, Some(RejectReason::QueueFull)),
        "{:?}",
        o.reject_reason
    );
    w1.release_parked();
    let done = blocker.wait_timeout(PATIENCE).expect("hog settles");
    assert_eq!(done.state, JobState::Completed);
    let queued = filler.wait_timeout(PATIENCE).expect("filler settles");
    assert_eq!(queued.state, JobState::Completed);

    let ledger = gateway.ledger();
    assert_eq!(
        (ledger.completed, ledger.rejected, ledger.worker_rejects),
        (2, 1, 2),
        "{ledger:?}"
    );
    assert!(ledger.conserved(), "ledger leaked: {ledger:?}");

    drop(gateway);
    drop(w1);
    fabric.shutdown();
}
