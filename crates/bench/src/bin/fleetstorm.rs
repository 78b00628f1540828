//! `fleetstorm` — a seeded multi-tenant storm against the fleet
//! gateway, with kill / drain / partition / heal chaos, replayed twice
//! to prove the whole serving plane is deterministic.
//!
//! Part A replays a [`StormPlan`] (three tenants, one with a fault
//! window) through a [`FleetGateway`] over three fleet workers, with
//! [`StormPlan::with_fleet_chaos`] events applied at **quiesced
//! boundaries**: every job submitted before a chaos event is waited to
//! a terminal state before the event fires. That discipline makes the
//! per-batch terminal buckets a pure function of the plan — placement,
//! retry timing, and partition weather can vary the *route* a job
//! takes, never the bucket it lands in — so the report replays
//! byte-identically. The harness keeps a liveness invariant (at least
//! one accepting worker at all times) by skipping chaos events that
//! would empty the fleet; skips are plan-deterministic and reported.
//!
//! Part B drives five targeted failover stages with exact expected
//! counts, pinning jobs with the worker park latch:
//!
//! 1. **kill mid-run** — the lease is orphaned and re-dispatched
//!    exactly once; the completion names the surviving locality.
//! 2. **kill after complete** — a forged duplicate completion push for
//!    the settled job is absorbed, not double-counted.
//! 3. **drain under load** — queued jobs hand back with zero loss and
//!    finish on the survivor; the running job finishes where it is.
//! 4. **partition + heal** — the worker finishes behind a Hold cut;
//!    the hedge re-dispatches under a fresh epoch; on heal the stale
//!    push is fenced by epoch, and exactly one completion is accepted.
//! 5. **quorum shed** — below quorum, deadline-carrying jobs are shed
//!    immediately with `FleetUnavailable { retry_after }` instead of
//!    hanging; deadline-less jobs wait.
//!
//! Every stage asserts the gateway ledger identity `submitted ==
//! completed + failed + timed-out + cancelled + rejected + shed`. The
//! full storm runs **twice from the same seed** and the two reports are
//! compared byte-for-byte (`scripts/verify.sh` additionally runs the
//! binary twice and `cmp`s across process boundaries). A watchdog
//! kills the process if anything hangs.
//!
//! Flags: `--quick` (smaller storm, used by `scripts/verify.sh`),
//! `--seed <n>` (default 42).

use grain_bench::{eventually, WATCHDOG_POLL};
use grain_fleet::wire::{FleetOutcome, ACTION_COMPLETE};
use grain_fleet::{
    FleetConfig, FleetGateway, FleetJobHandle, FleetJobSpec, FleetLedger, FleetWorker,
    FleetWorkerConfig, Placement,
};
use grain_net::bootstrap::Fabric;
use grain_net::locality::NetConfig;
use grain_runtime::RuntimeConfig;
use grain_service::{JobState, RejectReason};
use grain_sim::storm::{FleetAction, FleetChaos, GraphFamily, StormEvent, StormPlan, TenantStorm};
use grain_sim::{NetPlan, PartitionMode};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Duration;

// ---------------------------------------------------------------------
// Part A: the storm with fleet chaos at quiesced boundaries.
// ---------------------------------------------------------------------

/// Three tenants; `cron` faults through the middle of the horizon.
fn storm_tenants() -> Vec<TenantStorm> {
    vec![
        TenantStorm::steady(
            "api",
            Duration::from_millis(40),
            (8, 16),
            (Duration::from_micros(10), Duration::from_micros(40)),
        )
        .family(GraphFamily::Tree),
        TenantStorm::steady(
            "batch",
            Duration::from_millis(70),
            (12, 24),
            (Duration::from_micros(20), Duration::from_micros(60)),
        )
        .family(GraphFamily::RandomDag),
        TenantStorm::steady(
            "cron",
            Duration::from_millis(100),
            (8, 16),
            (Duration::from_micros(10), Duration::from_micros(30)),
        )
        .faulting_during(0.4, 0.6),
    ]
}

fn spec_of(event: &StormEvent, seed: u64, idx: usize) -> FleetJobSpec {
    FleetJobSpec::new(event.name.clone(), event.tenant.clone())
        .family(event.family)
        .tasks(event.tasks)
        // Virtual grain → bounded busy-work, as in netstorm: chaos, not
        // compute, should dominate the run.
        .grain_iters((event.grain.as_micros() as u64).clamp(1, 100))
        .payload_bytes(64)
        .seed(seed ^ ((idx as u64) << 8))
        .faulty(event.faulty)
}

/// Harness-side fleet membership bookkeeping for the liveness invariant.
struct FleetState {
    workers: Vec<usize>,
    killed: BTreeSet<usize>,
    drained: BTreeSet<usize>,
    partitioned: BTreeSet<usize>,
}

impl FleetState {
    fn accepting(&self) -> Vec<usize> {
        self.workers
            .iter()
            .copied()
            .filter(|w| {
                !self.killed.contains(w)
                    && !self.drained.contains(w)
                    && !self.partitioned.contains(w)
            })
            .collect()
    }
}

fn run_part_a(seed: u64, quick: bool, report: &mut String) {
    let horizon = Duration::from_millis(if quick { 1_500 } else { 4_000 });
    let workers = vec![1usize, 2, 3];
    let chaos = FleetChaos {
        kills: 1,
        drains: 1,
        partitions: 1,
        partition_window: horizon / 5,
    };
    let plan = StormPlan::generate(seed, horizon, &storm_tenants())
        .with_fleet_chaos(seed, &workers, &chaos);
    let _ = writeln!(
        report,
        "partA seed={seed} horizon={}ms jobs={} fleet_events={}",
        horizon.as_millis(),
        plan.events.len(),
        plan.fleet.len()
    );

    let fabric = Fabric::chaotic(
        4,
        NetPlan::clean(seed ^ 0xF1EE).latency(1_000, 500),
        |_| NetConfig::default(),
        |i| RuntimeConfig {
            workers: 1,
            locality_id: i,
            ..RuntimeConfig::default()
        },
    );
    let fleet_workers: Vec<FleetWorker> = workers
        .iter()
        .map(|w| FleetWorker::install(fabric.locality(*w), FleetWorkerConfig::new(0, 1)))
        .collect();
    let mut cfg = FleetConfig::new(workers.clone());
    // Storm tuning: fail over *fast* around held partitions, and never
    // let routing churn exhaust a job's dispatch budget.
    cfg.ack_timeout = Duration::from_millis(150);
    cfg.retry_backoff = Duration::from_millis(15);
    cfg.max_dispatches = 64;
    cfg.breaker_failures = 2;
    cfg.breaker_cooldown = Duration::from_millis(300);
    let gateway = FleetGateway::install(fabric.locality(0), cfg);
    let net = fabric.net().expect("chaotic world");

    let mut state = FleetState {
        workers: workers.clone(),
        killed: BTreeSet::new(),
        drained: BTreeSet::new(),
        partitioned: BTreeSet::new(),
    };

    let mut handles: Vec<(FleetJobHandle, bool)> = Vec::new();
    let mut submitted = 0usize;
    let mut next_job = 0usize;
    let mut last = gateway.ledger();

    // Submit every job planned before `until`, then wait the fleet
    // quiescent and report the batch's terminal-bucket delta.
    let mut quiesce = |until: Duration,
                       label: &str,
                       next_job: &mut usize,
                       handles: &mut Vec<(FleetJobHandle, bool)>,
                       last: &mut FleetLedger,
                       report: &mut String| {
        let mut batch_jobs = 0usize;
        let mut batch_faulty = 0usize;
        while *next_job < plan.events.len() && plan.events[*next_job].at < until {
            let e = &plan.events[*next_job];
            handles.push((gateway.submit(spec_of(e, seed, *next_job)), e.faulty));
            batch_jobs += 1;
            batch_faulty += usize::from(e.faulty);
            *next_job += 1;
        }
        submitted += batch_jobs;
        for (h, _) in handles.iter() {
            if h.wait_timeout(WATCHDOG_POLL).is_none() {
                eprintln!("--- partial report at hang ---\n{report}");
                panic!(
                    "storm job hung at a chaos boundary: key={} phase={} workers={} ledger={:?}",
                    h.key(),
                    gateway.debug_phase(h.key()),
                    gateway.debug_workers(),
                    gateway.ledger()
                );
            }
        }
        let now = gateway.ledger();
        let d_completed = now.completed - last.completed;
        let d_failed = now.failed - last.failed;
        // The buckets are plan-determined: chaos may re-route a job
        // but never change where it settles.
        assert_eq!(
            d_completed + d_failed,
            batch_jobs as u64,
            "batch jobs leaked: {now:?}"
        );
        assert_eq!(
            d_failed, batch_faulty as u64,
            "fault window drifted: {now:?}"
        );
        assert_eq!(now.shed + now.rejected, 0, "storm must not shed: {now:?}");
        assert!(now.conserved(), "ledger leaked: {now:?}");
        let _ = writeln!(
                report,
                "partA {label}: jobs={batch_jobs} completed=+{d_completed} failed=+{d_failed} conserved={}",
                now.conserved()
            );
        *last = now;
    };

    for (i, ev) in plan.fleet.iter().enumerate() {
        quiesce(
            ev.at,
            &format!("batch[{i}]"),
            &mut next_job,
            &mut handles,
            &mut last,
            report,
        );
        // Apply the event — unless it would leave the fleet with no
        // accepting worker (or target an unreachable peer). Skips are a
        // pure function of the plan, so the report stays replayable.
        let decision: &str = match ev.action {
            FleetAction::Kill { worker } => {
                if state.accepting() == vec![worker] {
                    "skipped(last-accepting-worker)"
                } else {
                    state.killed.insert(worker);
                    fabric.kill(worker);
                    "applied"
                }
            }
            FleetAction::Drain { worker } => {
                if state.killed.contains(&worker) {
                    "skipped(worker-dead)"
                } else if state.partitioned.contains(&worker) {
                    "skipped(worker-partitioned)"
                } else if state.accepting() == vec![worker] {
                    "skipped(last-accepting-worker)"
                } else {
                    let handed = gateway.drain(worker).expect("drain reachable worker");
                    // Quiesced boundary: nothing is queued, so nothing
                    // hands back — targeted drains run in part B.
                    assert!(handed.is_empty(), "quiesced drain handed back {handed:?}");
                    state.drained.insert(worker);
                    "applied"
                }
            }
            FleetAction::Partition { worker } => {
                if state.accepting() == vec![worker] {
                    "skipped(last-accepting-worker)"
                } else {
                    net.partition_now(0, worker, PartitionMode::Hold);
                    state.partitioned.insert(worker);
                    "applied"
                }
            }
            FleetAction::Heal { worker } => {
                if state.partitioned.remove(&worker) {
                    net.heal_now(0, worker);
                    "applied"
                } else {
                    "skipped(partition-not-applied)"
                }
            }
        };
        let _ = writeln!(
            report,
            "partA event[{i}] t={}ms {:?} {decision} accepting={:?}",
            ev.at.as_millis(),
            ev.action,
            state.accepting()
        );
    }
    quiesce(
        horizon + Duration::from_secs(1),
        "final",
        &mut next_job,
        &mut handles,
        &mut last,
        report,
    );

    let ledger = gateway.ledger();
    assert_eq!(ledger.submitted, plan.events.len() as u64);
    assert_eq!(
        ledger.orphaned, 0,
        "quiesced kills orphan nothing: {ledger:?}"
    );
    assert_eq!(ledger.hedged, 0, "hedging is off in part A: {ledger:?}");
    // Every re-dispatch traces to a counted cause (here: routing around
    // held or refusing workers). Exact counts are timing-shaped, so the
    // report carries the accounting *identity*, not the raw numbers.
    let accounted = ledger.redispatches
        <= ledger.orphaned
            + ledger.handed_back
            + ledger.hedged
            + ledger.dispatch_failures
            + ledger.worker_rejects;
    assert!(accounted, "unaccounted re-dispatch: {ledger:?}");
    let _ = writeln!(
        report,
        "partA ledger: submitted={} completed={} failed={} shed={} rejected={} conserved={} redispatches_accounted={accounted}",
        ledger.submitted, ledger.completed, ledger.failed, ledger.shed, ledger.rejected,
        ledger.conserved()
    );
    drop(gateway);
    drop(fleet_workers);
    fabric.shutdown();
}

// ---------------------------------------------------------------------
// Part B: targeted failover stages with exact expected counts.
// ---------------------------------------------------------------------

fn loopback_world() -> Fabric {
    Fabric::loopback(3, |i| RuntimeConfig {
        workers: 1,
        locality_id: i,
        ..RuntimeConfig::default()
    })
}

/// Stage 1: kill the worker mid-run; the orphan re-dispatches once.
fn stage_kill_mid_run(report: &mut String) {
    let fabric = loopback_world();
    let w1 = FleetWorker::install(fabric.locality(1), FleetWorkerConfig::new(0, 1));
    let w2 = FleetWorker::install(fabric.locality(2), FleetWorkerConfig::new(0, 1));
    let mut cfg = FleetConfig::new(vec![1, 2]);
    cfg.placement = Placement::Prefer(1);
    let gateway = FleetGateway::install(fabric.locality(0), cfg);

    let handle = gateway.submit(FleetJobSpec::new("victim", "t").tasks(4).park(true));
    let key = handle.key();
    assert!(eventually(|| gateway.lease_of(key) == Some(1)));
    assert!(eventually(|| w1.tracked_keys().contains(&key)));
    fabric.kill(1);
    assert!(eventually(|| w2.tracked_keys().contains(&key)));
    w2.release_parked();
    let outcome = handle.wait_timeout(WATCHDOG_POLL).expect("job settles");
    let ledger = gateway.ledger();
    assert_eq!(outcome.state, JobState::Completed);
    assert_eq!(outcome.origin_locality, Some(2));
    assert_eq!(
        (
            ledger.completed,
            ledger.orphaned,
            ledger.redispatches,
            ledger.dispatches
        ),
        (1, 1, 1, 2),
        "{ledger:?}"
    );
    assert!(ledger.conserved());
    let _ = writeln!(
        report,
        "partB kill-mid-run: completed={} orphaned={} redispatches={} origin={:?} conserved={}",
        ledger.completed,
        ledger.orphaned,
        ledger.redispatches,
        outcome.origin_locality,
        ledger.conserved()
    );
    drop(gateway);
    drop(w2);
    drop(w1);
    fabric.shutdown();
}

/// Stage 2: the worker dies *after* completing; a replayed completion
/// push must not double-count.
fn stage_kill_after_complete(report: &mut String) {
    let fabric = loopback_world();
    let w1 = FleetWorker::install(fabric.locality(1), FleetWorkerConfig::new(0, 1));
    let w2 = FleetWorker::install(fabric.locality(2), FleetWorkerConfig::new(0, 1));
    let mut cfg = FleetConfig::new(vec![1, 2]);
    cfg.placement = Placement::Prefer(1);
    let gateway = FleetGateway::install(fabric.locality(0), cfg);

    let handle = gateway.submit(FleetJobSpec::new("done-then-die", "t").tasks(4));
    let key = handle.key();
    let outcome = handle.wait_timeout(WATCHDOG_POLL).expect("job settles");
    assert_eq!(outcome.state, JobState::Completed);
    assert_eq!(outcome.origin_locality, Some(1));
    fabric.kill(1);

    let forged = FleetOutcome {
        key,
        epoch: 1,
        origin: 1,
        state: JobState::Completed,
        tasks_completed: 4,
        tasks_spawned: 4,
        tasks_faulted: 0,
        exec_ns: 1,
        retries: 0,
        fault_msg: None,
        reject: None,
    };
    let verdict = fabric
        .locality(2)
        .async_remote::<FleetOutcome, u8>(0, ACTION_COMPLETE, &forged)
        .wait()
        .expect("forged push settles");
    assert_eq!(*verdict, 1);
    let ledger = gateway.ledger();
    assert_eq!(
        (
            ledger.completed,
            ledger.duplicates,
            ledger.orphaned,
            ledger.redispatches
        ),
        (1, 1, 0, 0),
        "{ledger:?}"
    );
    assert!(ledger.conserved());
    let _ = writeln!(
        report,
        "partB kill-after-complete: completed={} duplicates={} redispatches={} conserved={}",
        ledger.completed,
        ledger.duplicates,
        ledger.redispatches,
        ledger.conserved()
    );
    drop(gateway);
    drop(w2);
    drop(w1);
    fabric.shutdown();
}

/// Stage 3: drain a loaded worker; queued jobs hand back, zero loss.
fn stage_drain(report: &mut String) {
    let fabric = loopback_world();
    let mut w1_cfg = FleetWorkerConfig::new(0, 1);
    w1_cfg.service.admission.max_in_flight_tasks = 4;
    let w1 = FleetWorker::install(fabric.locality(1), w1_cfg);
    let w2 = FleetWorker::install(fabric.locality(2), FleetWorkerConfig::new(0, 1));
    let mut cfg = FleetConfig::new(vec![1, 2]);
    cfg.placement = Placement::Prefer(1);
    let gateway = FleetGateway::install(fabric.locality(0), cfg);

    let blocker = gateway.submit(FleetJobSpec::new("blocker", "t").tasks(4).park(true));
    assert!(eventually(|| gateway.lease_of(blocker.key()) == Some(1)));
    let queued: Vec<FleetJobHandle> = (0..2)
        .map(|i| gateway.submit(FleetJobSpec::new(format!("queued-{i}"), "t").tasks(4)))
        .collect();
    for h in &queued {
        assert!(eventually(|| gateway.lease_of(h.key()) == Some(1)));
    }
    let handed = gateway.drain(1).expect("drain settles");
    assert_eq!(handed.len(), 2);
    for h in &queued {
        let o = h
            .wait_timeout(WATCHDOG_POLL)
            .expect("handed-back job settles");
        assert_eq!(o.state, JobState::Completed);
        assert_eq!(o.origin_locality, Some(2));
    }
    w1.release_parked();
    let o = blocker
        .wait_timeout(WATCHDOG_POLL)
        .expect("running job settles");
    assert_eq!(o.state, JobState::Completed);
    assert_eq!(o.origin_locality, Some(1));
    let ledger = gateway.ledger();
    assert_eq!(
        (
            ledger.completed,
            ledger.handed_back,
            ledger.redispatches,
            ledger.orphaned
        ),
        (3, 2, 2, 0),
        "{ledger:?}"
    );
    assert!(ledger.conserved());
    let _ = writeln!(
        report,
        "partB drain: completed={} handed_back={} redispatches={} zero_loss=true conserved={}",
        ledger.completed,
        ledger.handed_back,
        ledger.redispatches,
        ledger.conserved()
    );
    drop(gateway);
    drop(w2);
    drop(w1);
    fabric.shutdown();
}

/// Stage 4: partition + heal; the stale epoch's push is fenced.
fn stage_partition_fence(seed: u64, report: &mut String) {
    let fabric = Fabric::chaotic(
        3,
        NetPlan::clean(seed ^ 0xFE4CE).latency(1_000, 0),
        |_| NetConfig::default(),
        |i| RuntimeConfig {
            workers: 1,
            locality_id: i,
            ..RuntimeConfig::default()
        },
    );
    let w1 = FleetWorker::install(fabric.locality(1), FleetWorkerConfig::new(0, 1));
    let w2 = FleetWorker::install(fabric.locality(2), FleetWorkerConfig::new(0, 1));
    let mut cfg = FleetConfig::new(vec![1, 2]);
    cfg.placement = Placement::Prefer(1);
    cfg.lease_timeout = Some(Duration::from_millis(200));
    cfg.ack_timeout = Duration::from_millis(100);
    cfg.retry_backoff = Duration::from_millis(10);
    cfg.breaker_failures = 1;
    cfg.breaker_cooldown = Duration::from_secs(60);
    let gateway = FleetGateway::install(fabric.locality(0), cfg);
    let net = fabric.net().expect("chaotic world");

    let handle = gateway.submit(FleetJobSpec::new("fenced", "t").tasks(4).park(true));
    let key = handle.key();
    assert!(eventually(|| gateway.lease_of(key) == Some(1)));
    assert!(eventually(|| w1.tracked_keys().contains(&key)));
    net.partition_now(0, 1, PartitionMode::Hold);
    w1.release_parked();
    assert!(eventually(|| w2.tracked_keys().contains(&key)));
    assert!(eventually(|| gateway.lease_of(key) == Some(2)));
    net.heal_now(0, 1);
    assert!(eventually(|| gateway.ledger().fenced >= 1));
    assert_eq!(gateway.ledger().completed, 0, "fenced push must not settle");
    w2.release_parked();
    let outcome = handle.wait_timeout(WATCHDOG_POLL).expect("job settles");
    assert_eq!(outcome.state, JobState::Completed);
    assert_eq!(outcome.origin_locality, Some(2));
    let ledger = gateway.ledger();
    assert_eq!((ledger.completed, ledger.completions), (1, 1), "{ledger:?}");
    assert!(ledger.hedged >= 1 && ledger.fenced >= 1, "{ledger:?}");
    assert!(ledger.conserved());
    assert!(gateway.breaker_opens(1) >= 1);
    let _ = writeln!(
        report,
        "partB partition-fence: completed={} completions={} fenced_ge1={} hedged_ge1={} breaker_opened={} conserved={}",
        ledger.completed,
        ledger.completions,
        ledger.fenced >= 1,
        ledger.hedged >= 1,
        gateway.breaker_opens(1) >= 1,
        ledger.conserved()
    );
    drop(gateway);
    drop(w2);
    drop(w1);
    fabric.shutdown();
}

/// Stage 5: below quorum, deadline-carrying jobs shed immediately with
/// a retry-after hint; deadline-less jobs wait instead.
fn stage_quorum_shed(report: &mut String) {
    let fabric = loopback_world();
    let w1 = FleetWorker::install(fabric.locality(1), FleetWorkerConfig::new(0, 1));
    let w2 = FleetWorker::install(fabric.locality(2), FleetWorkerConfig::new(0, 1));
    let mut cfg = FleetConfig::new(vec![1, 2]);
    cfg.quorum = 1.0; // both workers must be accepting
    cfg.shed_retry_after = Duration::from_millis(250);
    let gateway = FleetGateway::install(fabric.locality(0), cfg);

    fabric.kill(2);
    assert!(eventually(|| gateway.accepting_workers() == vec![1]));

    let shed: Vec<FleetJobHandle> = (0..4)
        .map(|i| {
            gateway.submit(
                FleetJobSpec::new(format!("deadline-{i}"), "t")
                    .tasks(4)
                    .deadline(Duration::from_secs(5)),
            )
        })
        .collect();
    let mut retry_after_ms = 0u128;
    for h in &shed {
        let o = h
            .wait_timeout(WATCHDOG_POLL)
            .expect("shed job settles fast");
        assert_eq!(o.state, JobState::Rejected);
        match o.reject_reason {
            Some(RejectReason::FleetUnavailable { retry_after }) => {
                retry_after_ms = retry_after.as_millis();
            }
            other => panic!("expected FleetUnavailable, got {other:?}"),
        }
    }
    // A deadline-less job is patient: it parks pending rather than shed.
    let patient = gateway.submit(FleetJobSpec::new("patient", "t").tasks(4));
    std::thread::sleep(Duration::from_millis(50));
    let still_pending = patient.outcome().is_none();
    assert!(still_pending, "deadline-less job must wait, not shed");

    let ledger = gateway.ledger();
    assert_eq!(ledger.shed, 4, "{ledger:?}");
    assert_eq!(ledger.settled(), 4, "{ledger:?}");
    let _ = writeln!(
        report,
        "partB quorum-shed: shed={} retry_after_ms={retry_after_ms} deadline_less_waits={still_pending}",
        ledger.shed
    );
    drop(gateway);
    drop(w2);
    drop(w1);
    fabric.shutdown();
}

/// Stage 6: a worker refusal surfaces the *originating* locality and
/// reason in the terminal outcome once the dispatch budget is spent.
fn stage_reject_origin(report: &mut String) {
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

    let blocker = gateway.submit(FleetJobSpec::new("hog", "t").tasks(4).park(true));
    assert!(eventually(|| gateway.lease_of(blocker.key()) == Some(1)));
    let filler = gateway.submit(FleetJobSpec::new("filler", "t").tasks(4));
    assert!(eventually(|| gateway.lease_of(filler.key()) == Some(1)));
    // Both dispatch attempts come back refused, and the refusal that
    // lands in the outcome names the refusing locality.
    let refused = gateway.submit(FleetJobSpec::new("refused", "t").tasks(4));
    let o = refused
        .wait_timeout(WATCHDOG_POLL)
        .expect("refusal settles");
    assert_eq!(o.state, JobState::Rejected);
    assert_eq!(o.origin_locality, Some(1), "refusal must name its origin");
    assert!(
        matches!(o.reject_reason, Some(RejectReason::QueueFull)),
        "{:?}",
        o.reject_reason
    );
    w1.release_parked();
    let done = blocker.wait_timeout(WATCHDOG_POLL).expect("hog settles");
    assert_eq!(done.state, JobState::Completed);
    let queued = filler.wait_timeout(WATCHDOG_POLL).expect("filler settles");
    assert_eq!(queued.state, JobState::Completed);
    let ledger = gateway.ledger();
    assert_eq!(
        (ledger.completed, ledger.rejected, ledger.worker_rejects),
        (2, 1, 2),
        "{ledger:?}"
    );
    assert!(ledger.conserved());
    let _ = writeln!(
        report,
        "partB reject-origin: rejected={} origin={:?} reason={:?} worker_rejects={} conserved={}",
        ledger.rejected,
        o.origin_locality,
        o.reject_reason,
        ledger.worker_rejects,
        ledger.conserved()
    );
    drop(gateway);
    drop(w1);
    fabric.shutdown();
}

/// One complete storm; the returned string is the replay unit.
fn run_once(seed: u64, quick: bool) -> String {
    let mut report = String::new();
    run_part_a(seed, quick, &mut report);
    stage_kill_mid_run(&mut report);
    stage_kill_after_complete(&mut report);
    stage_drain(&mut report);
    stage_partition_fence(seed, &mut report);
    stage_quorum_shed(&mut report);
    stage_reject_origin(&mut report);
    report
}

fn main() {
    grain_bench::replay_main(
        "fleetstorm",
        "multi-tenant storm against the fleet gateway under kill/drain/partition/heal chaos",
        "placement signals saturate and stages serialize, but every invariant still holds",
        run_once,
    );
}
