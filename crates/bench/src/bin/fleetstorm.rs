//! `fleetstorm` — a seeded multi-tenant storm against the fleet
//! gateway, with kill / drain / partition / heal chaos, replayed twice
//! to prove the whole serving plane is deterministic.
//!
//! It replays a [`StormPlan`] (three tenants, one with a fault window)
//! through a [`FleetGateway`] over three fleet workers, with
//! [`StormPlan::with_fleet_chaos`] events applied at **quiesced
//! boundaries**: every job submitted before a chaos event is waited to
//! a terminal state before the event fires. That discipline makes the
//! per-batch terminal buckets a pure function of the plan — placement,
//! retry timing, and partition weather can vary the *route* a job
//! takes, never the bucket it lands in — so the report replays
//! byte-identically. The harness keeps a liveness invariant (at least
//! one accepting worker at all times) by skipping chaos events that
//! would empty the fleet; skips are plan-deterministic and reported.
//! The targeted failover modes (kill mid-run, kill after complete,
//! drain under load, partition + heal, quorum shed, reject origin) are
//! the tier-1 tests in `crates/fleet/tests/failover.rs`.
//!
//! Every batch asserts the gateway ledger identity `submitted ==
//! completed + failed + timed-out + cancelled + rejected + shed`. The
//! storm runs **twice from the same seed** and the two reports are
//! compared byte-for-byte; `scripts/verify.sh` then diffs stdout
//! against `results/fleetstorm.txt`. A watchdog kills the process if
//! anything hangs.
//!
//! Flags: `--quick` (smaller storm, used by `scripts/verify.sh`),
//! `--seed <n>` (default 42).

use grain_bench::WATCHDOG_POLL;
use grain_fleet::{
    FleetConfig, FleetGateway, FleetJobHandle, FleetJobSpec, FleetLedger, FleetWorker,
    FleetWorkerConfig,
};
use grain_net::bootstrap::Fabric;
use grain_net::locality::NetConfig;
use grain_runtime::RuntimeConfig;
use grain_sim::storm::{FleetAction, FleetChaos, GraphFamily, StormEvent, StormPlan, TenantStorm};
use grain_sim::{NetPlan, PartitionMode};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Duration;

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

fn run_storm(seed: u64, quick: bool, report: &mut String) {
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
                    // hands back (failover.rs drains a loaded worker).
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
    assert_eq!(ledger.hedged, 0, "the storm never hedges: {ledger:?}");
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

/// One complete storm; the returned string is the replay unit.
fn run_once(seed: u64, quick: bool) -> String {
    let mut report = String::new();
    run_storm(seed, quick, &mut report);
    report
}

fn main() {
    grain_bench::replay_main(
        "fleetstorm",
        "multi-tenant storm against the fleet gateway under kill/drain/partition/heal chaos",
        "placement signals saturate, but every invariant still holds",
        run_once,
    );
}
