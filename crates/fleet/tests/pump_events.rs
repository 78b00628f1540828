//! The pumps run when something happens, not when a timer says so.
//!
//! With `pump_interval` set to five seconds on both sides, anything
//! that still waited for a tick would take that long: a job's
//! placement, its completion push, and a gateway's or worker's
//! teardown must all finish well inside one second.

use grain_fleet::{FleetConfig, FleetGateway, FleetJobSpec, FleetWorker, FleetWorkerConfig};
use grain_net::bootstrap::Fabric;
use grain_runtime::RuntimeConfig;
use grain_service::{JobState, PolicyHook};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TICK: Duration = Duration::from_secs(5);
const PROMPT: Duration = Duration::from_secs(1);

fn slow_ticking_fleet(fabric: &Fabric, worker: FleetWorkerConfig) -> (FleetGateway, FleetWorker) {
    let worker = FleetWorker::install(
        fabric.locality(1),
        FleetWorkerConfig {
            pump_interval: TICK,
            ..worker
        },
    );
    let gateway = FleetGateway::install(
        fabric.locality(0),
        FleetConfig {
            pump_interval: TICK,
            ..FleetConfig::new(vec![1])
        },
    );
    (gateway, worker)
}

#[test]
fn a_job_and_a_teardown_wait_for_no_tick() {
    let fabric = Fabric::loopback(2, |_| RuntimeConfig::with_workers(1));
    let (gateway, worker) = slow_ticking_fleet(&fabric, FleetWorkerConfig::new(0, 1));

    for round in 0..3 {
        let t0 = Instant::now();
        let outcome = gateway
            .submit(
                FleetJobSpec::new("empty", "tenant-a")
                    .tasks(1)
                    .grain_iters(0),
            )
            .wait_timeout(TICK)
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
    let (gateway, _worker) = slow_ticking_fleet(&fabric, config);

    const JOBS: u64 = 5;
    for _ in 0..JOBS {
        let outcome = gateway
            .submit(
                FleetJobSpec::new("observed", "tenant-a")
                    .tasks(2)
                    .grain_iters(0),
            )
            .wait_timeout(TICK)
            .expect("job settles");
        assert_eq!(outcome.state, JobState::Completed);
    }
    // The hook runs before the outcome is published, so before the push.
    assert_eq!(seen.load(Ordering::SeqCst), JOBS);
    fabric.shutdown();
}
