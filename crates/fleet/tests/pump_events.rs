//! The pumps run when something happens, not when a timer says so.
//!
//! No pump has a tick: the gateway's sleeps until kicked or until a
//! deadline a live job names (an ack or a lease timing out, a backoff
//! ending), so a job that is only running costs it no pass; the
//! worker's sleeps while no push is due, and the service dispatcher's
//! while no timer exists. So a job's placement, its completion push —
//! including the push of a job that ended while queued — and a
//! gateway's or worker's teardown all finish well inside one second, a
//! job's gateway passes do not grow with its run time, and a quiescent
//! fleet is not scheduled at all.
//!
//! The tests hold one lock each, so the idle count sees no other test's
//! fleet threads.

#[path = "../../runtime/tests/support/pace.rs"]
mod pace;
#[path = "../../runtime/tests/support/switches.rs"]
mod switches;

use grain_counters::sync::{AtomicU64, Mutex, Ordering};
use grain_fleet::{FleetConfig, FleetGateway, FleetJobSpec, FleetWorker, FleetWorkerConfig};
use grain_net::bootstrap::Fabric;
use grain_runtime::RuntimeConfig;
use grain_service::{JobState, PolicyHook, RejectReason};
use pace::pace;
use std::sync::Arc;
use std::time::{Duration, Instant};
use switches::thread_switches;

const PATIENCE: Duration = Duration::from_secs(5);
const PROMPT: Duration = Duration::from_secs(1);

static SERIAL: Mutex<()> = Mutex::new(());

fn fleet(fabric: &Fabric, worker: FleetWorkerConfig) -> (FleetGateway, FleetWorker) {
    let worker = FleetWorker::install(fabric.locality(1), worker);
    let gateway = FleetGateway::install(fabric.locality(0), FleetConfig::new(vec![1]));
    (gateway, worker)
}

#[test]
fn a_job_and_a_teardown_wait_for_no_tick() {
    let _serial = SERIAL.lock();
    let fabric = Fabric::loopback(2, |_| RuntimeConfig::with_workers(1));
    let (gateway, worker) = fleet(&fabric, FleetWorkerConfig::new(0, 1));

    for round in 0..3 {
        let t0 = Instant::now();
        let outcome = gateway
            .submit(
                FleetJobSpec::new("empty", "tenant-a")
                    .tasks(1)
                    .grain_iters(0),
            )
            .wait_timeout(PATIENCE)
            .expect("job settles");
        let took = t0.elapsed();
        assert_eq!(outcome.state, JobState::Completed);
        assert!(took < PROMPT, "job {round} took {took:?}: something ticked");
    }
    assert!(gateway.ledger().conserved());

    let t0 = Instant::now();
    drop(gateway);
    let took = t0.elapsed();
    assert!(took < PROMPT, "dropping the gateway took {took:?}");
    let t0 = Instant::now();
    drop(worker);
    let took = t0.elapsed();
    assert!(took < PROMPT, "dropping the worker took {took:?}");
    fabric.shutdown();
}

#[test]
fn the_callers_policy_hook_still_sees_every_job_once() {
    let _serial = SERIAL.lock();
    let fabric = Fabric::loopback(2, |_| RuntimeConfig::with_workers(1));
    let seen = Arc::new(AtomicU64::new(0));
    let mut config = FleetWorkerConfig::new(0, 1);
    config.service.policy = Some(PolicyHook::new({
        let seen = Arc::clone(&seen);
        move |_, outcome| {
            assert_eq!(outcome.state, JobState::Completed);
            seen.fetch_add(1, Ordering::SeqCst);
        }
    }));
    let (gateway, _worker) = fleet(&fabric, config);

    const JOBS: u64 = 5;
    for _ in 0..JOBS {
        let outcome = gateway
            .submit(
                FleetJobSpec::new("observed", "tenant-a")
                    .tasks(2)
                    .grain_iters(0),
            )
            .wait_timeout(PATIENCE)
            .expect("job settles");
        assert_eq!(outcome.state, JobState::Completed);
    }
    // The hook runs before the outcome is published, so before the push.
    assert_eq!(seen.load(Ordering::SeqCst), JOBS);
    fabric.shutdown();
}

/// A job that ends while queued on the worker — here shed by the
/// service when its deadline can no longer be met, behind a parked job
/// that holds the whole budget — is announced like a settle, so its
/// push leaves at once: nothing waits for a pump tick to find it.
#[test]
fn a_job_shed_while_queued_is_pushed_without_a_tick() {
    let _serial = SERIAL.lock();
    let fabric = Fabric::loopback(2, |_| RuntimeConfig::with_workers(1));
    let mut config = FleetWorkerConfig::new(0, 1);
    config.service.admission.max_in_flight_tasks = 1;
    let (gateway, worker) = fleet(&fabric, config);

    let parked = gateway.submit(FleetJobSpec::new("parked", "tenant-a").park(true));
    let t0 = Instant::now();
    while gateway.lease_of(parked.key()).is_none() {
        assert!(t0.elapsed() < PATIENCE, "the parked job was never leased");
        pace(Duration::from_millis(1));
    }
    let deadline = Duration::from_millis(50);
    let t0 = Instant::now();
    let doomed = gateway.submit(FleetJobSpec::new("doomed", "tenant-a").deadline(deadline));
    let outcome = doomed
        .wait_timeout(PROMPT)
        .unwrap_or_else(|| panic!("no outcome {:?} after submission", t0.elapsed()));
    assert_eq!(outcome.state, JobState::Rejected);
    assert_eq!(outcome.reject_reason, Some(RejectReason::Shed));
    assert_eq!(outcome.origin_locality, Some(1));

    worker.release_parked();
    let outcome = parked.wait_timeout(PATIENCE).expect("the parked job ends");
    assert_eq!(outcome.state, JobState::Completed);
    assert!(gateway.ledger().conserved());
    drop(gateway);
    drop(worker);
    fabric.shutdown();
}

/// The gateway passes and dispatches of one job whose body runs `body`,
/// on a fresh loopback fleet of one worker. A first job fills the
/// gateway's stats, which stay fresh for the rest of the run, so no
/// poll's reply kicks a pass of its own; the measured job parks on the
/// worker's latch until `body` has passed since its lease.
fn one_parked_job(body: Duration) -> (u64, u64) {
    let fabric = Fabric::loopback(2, |_| RuntimeConfig::with_workers(1));
    let worker = FleetWorker::install(fabric.locality(1), FleetWorkerConfig::new(0, 1));
    let config = FleetConfig {
        stats_max_age: Duration::from_secs(3600),
        ..FleetConfig::new(vec![1])
    };
    let gateway = FleetGateway::install(fabric.locality(0), config);
    let registry = fabric.locality(0).runtime().registry();
    let passes = || {
        let path = "/fleet{locality#0/total}/gateway/passes";
        registry.query(path).expect("the pass counter").value as u64
    };
    let warm = gateway.submit(FleetJobSpec::new("warm", "tenant-a").grain_iters(0));
    let outcome = warm.wait_timeout(PATIENCE).expect("job settles");
    assert_eq!(outcome.state, JobState::Completed);
    // The passes the first job's last replies kicked finish first.
    loop {
        let seen = passes();
        pace(Duration::from_millis(20));
        if passes() == seen {
            break;
        }
    }

    let (passes_before, dispatches_before) = (passes(), gateway.ledger().dispatches);
    let job = gateway.submit(FleetJobSpec::new("timed", "tenant-a").park(true));
    let t0 = Instant::now();
    while gateway.lease_of(job.key()).is_none() {
        assert!(t0.elapsed() < PATIENCE, "the job was never leased");
        pace(Duration::from_millis(1));
    }
    pace(body);
    worker.release_parked();
    let outcome = job.wait_timeout(PATIENCE).expect("job settles");
    assert_eq!(outcome.state, JobState::Completed);
    let cost = (
        passes() - passes_before,
        gateway.ledger().dispatches - dispatches_before,
    );
    assert!(gateway.ledger().conserved());
    drop(gateway);
    drop(worker);
    fabric.shutdown();
    cost
}

/// The pass rung of the gateway: one job costs the passes its events
/// kick — its submission and its ack — and none while it runs, so a
/// 5 ms body and a 50 ms body cost the same number, at most 4, and one
/// dispatch each. A pump that swept every millisecond while a job was
/// live read about one pass per millisecond of body.
#[test]
fn a_jobs_gateway_passes_do_not_grow_with_its_run_time() {
    const MAX_PASSES: u64 = 4;
    let _serial = SERIAL.lock();
    let (short, short_dispatches) = one_parked_job(Duration::from_millis(5));
    let (long, long_dispatches) = one_parked_job(Duration::from_millis(50));
    assert_eq!((short_dispatches, long_dispatches), (1, 1));
    assert!(
        short <= MAX_PASSES,
        "a 5 ms job cost {short} gateway passes (budget {MAX_PASSES})"
    );
    assert_eq!(
        long, short,
        "a 50 ms job cost {long} passes, a 5 ms one {short}"
    );
}

/// The names every fleet pump and service dispatcher thread starts with.
const PUMPS: &[&str] = &["grain-fleet-", "grain-service-d"];

/// The idle rung of the fleet: a gateway and one worker that have run
/// one job and gone quiet are not scheduled. The gateway's pump, the
/// worker's pump and the worker service's dispatcher all sleep with no
/// timeout; pumps that woke every millisecond would read about 400
/// switches in the 200 ms window.
#[test]
fn a_quiescent_fleet_is_not_scheduled() {
    const BUDGET: u64 = 4;
    let _serial = SERIAL.lock();
    let fabric = Fabric::loopback(2, |_| RuntimeConfig::with_workers(1));
    let (gateway, worker) = fleet(&fabric, FleetWorkerConfig::new(0, 1));
    let outcome = gateway
        .submit(FleetJobSpec::new("one", "tenant-a").tasks(1).grain_iters(0))
        .wait_timeout(PATIENCE)
        .expect("job settles");
    assert_eq!(outcome.state, JobState::Completed);
    // The passes the job's last events kicked (the push's reply on the
    // worker, the ack and the completion on the gateway) finish first.
    let t0 = Instant::now();
    while worker.counters().pushes_acked.load(Ordering::SeqCst) == 0 {
        assert!(t0.elapsed() < PATIENCE, "the push was never acknowledged");
        pace(Duration::from_millis(1));
    }
    pace(Duration::from_millis(20));
    let Some(before) = thread_switches(PUMPS) else {
        return;
    };
    assert!(before.len() >= 3, "gateway pump, worker pump, dispatcher");
    pace(Duration::from_millis(200));
    let after = thread_switches(PUMPS).expect("/proc was there a moment ago");
    let switches: u64 = after
        .iter()
        .map(|(tid, n)| n - before.get(tid).copied().unwrap_or(0))
        .sum();
    assert!(
        switches <= BUDGET,
        "{switches} fleet thread context switches in a 200 ms quiescent window (budget {BUDGET})"
    );
    drop(gateway);
    drop(worker);
    fabric.shutdown();
}
