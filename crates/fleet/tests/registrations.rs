//! The books balance when a component is dropped.
//!
//! Every counter enters a runtime's registry through a scope its owner
//! holds, so after any component is dropped the registry holds exactly
//! the paths it held before that component was built: a gateway, a
//! locality and a whole world, here. A key a scope builds is never
//! parsed on insert, so the last test parses every path a fleet world
//! publishes back to itself.

use grain_counters::sync::Ordering;
use grain_counters::{CounterPath, Registry, RegistryError};
use grain_fleet::{FleetConfig, FleetGateway, FleetJobSpec, FleetWorker, FleetWorkerConfig};
use grain_net::bootstrap::Fabric;
use grain_net::{Locality, NetConfig};
use grain_runtime::{Runtime, RuntimeConfig};
use grain_service::JobState;
use grain_sim::NetPlan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

const PATIENCE: Duration = Duration::from_secs(5);

fn one_worker(_: usize) -> RuntimeConfig {
    RuntimeConfig::with_workers(1)
}

/// Run one empty job through `gateway` and return its locality's
/// `/fleet{…}/jobs/completed` reading afterwards.
fn one_job(gateway: &FleetGateway, registry: &Registry) -> f64 {
    let outcome = gateway
        .submit(FleetJobSpec::new("empty", "t").tasks(1).grain_iters(0))
        .wait_timeout(PATIENCE)
        .expect("job settles");
    assert_eq!(outcome.state, JobState::Completed);
    registry
        .query("/fleet{locality#0/total}/jobs/completed")
        .expect("a live gateway's ledger is published")
        .value
}

#[test]
fn a_gateway_installed_and_dropped_three_times_leaves_the_paths_it_found() {
    let world = Fabric::loopback(2, one_worker);
    let _worker = FleetWorker::install(world.locality(1), FleetWorkerConfig::new(0, 1));
    let registry = world.locality(0).runtime().registry();
    let before = registry.paths();
    assert!(before.iter().all(|p| !p.starts_with("/fleet")));
    for round in 0..3 {
        assert_eq!(registry.paths(), before, "before install {round}");
        let gateway = FleetGateway::install(world.locality(0), FleetConfig::new(vec![1]));
        assert_eq!(registry.discover("/fleet/*").expect("pattern").len(), 18);
        // Each gateway reads its own ledger, and its own fleet/complete
        // action settles the job.
        assert_eq!(one_job(&gateway, registry), 1.0, "round {round}");
        drop(gateway);
    }
    assert_eq!(registry.paths(), before);
    world.shutdown();
}

/// A gateway installed after another was dropped runs its jobs: the
/// worker that served the first still holds that gateway's finished
/// keys, and answers a key it knows with the recorded outcome instead
/// of running the job. So each round's job settles as its own body says,
/// failed or completed, and the worker never takes one for a duplicate.
#[test]
fn a_reinstalled_gateway_runs_its_jobs_on_the_worker_the_last_one_used() {
    let world = Fabric::loopback(2, one_worker);
    let worker = FleetWorker::install(world.locality(1), FleetWorkerConfig::new(0, 1));
    for (round, faulty) in [true, false, true, false].into_iter().enumerate() {
        let gateway = FleetGateway::install(world.locality(0), FleetConfig::new(vec![1]));
        let spec = FleetJobSpec::new("j", "t").tasks(1).grain_iters(0);
        let outcome = gateway
            .submit(spec.faulty(faulty))
            .wait_timeout(PATIENCE)
            .expect("job settles");
        let expected = if faulty {
            JobState::Failed
        } else {
            JobState::Completed
        };
        assert_eq!(outcome.state, expected, "round {round}");
        drop(gateway);
    }
    assert_eq!(worker.counters().deduped.load(Ordering::Relaxed), 0);
    world.shutdown();
}

#[test]
fn a_second_live_gateway_on_one_locality_is_refused() {
    let world = Fabric::loopback(2, one_worker);
    let _worker = FleetWorker::install(world.locality(1), FleetWorkerConfig::new(0, 1));
    let first = FleetGateway::install(world.locality(0), FleetConfig::new(vec![1]));
    let second = catch_unwind(AssertUnwindSafe(|| {
        FleetGateway::install(world.locality(0), FleetConfig::new(vec![1]))
    }));
    let message = second
        .err()
        .and_then(|e| e.downcast_ref::<String>().cloned())
        .expect("the second install panics");
    assert!(
        message.contains("one live gateway per locality"),
        "{message}"
    );
    // The refused install took nothing over: the first still completes
    // jobs through its own action and ledger.
    assert_eq!(one_job(&first, world.locality(0).runtime().registry()), 1.0);
    drop(first);
    world.shutdown();
}

#[test]
fn a_locality_retires_its_parcel_counters_with_its_last_handle() {
    let rt = Arc::new(Runtime::with_workers(1));
    let before = rt.registry().paths();
    let locality = Locality::new(Arc::clone(&rt), 0, 1).expect("fresh runtime");
    assert_eq!(
        rt.registry().discover("/parcels/*").expect("pattern").len(),
        11
    );
    // A second live locality with the same id would publish the same
    // paths.
    assert!(matches!(
        Locality::new(Arc::clone(&rt), 0, 1),
        Err(RegistryError::Duplicate(_))
    ));
    let clone = locality.clone();
    drop(locality);
    assert_eq!(
        rt.registry().discover("/parcels/*").expect("pattern").len(),
        11
    );
    drop(clone);
    assert_eq!(rt.registry().paths(), before);
    drop(Locality::new(Arc::clone(&rt), 0, 1).expect("the id is free again"));
    assert_eq!(rt.registry().paths(), before);
}

#[test]
fn dropping_a_chaotic_world_empties_every_registry_it_built() {
    let world = Fabric::chaotic(2, NetPlan::clean(5), |_| NetConfig::default(), one_worker);
    world.locality(1).register_action("echo", |x: u64| x);
    let echoed = world
        .locality(0)
        .async_remote::<u64, u64>(1, "echo", &7)
        .wait_timeout(PATIENCE)
        .expect("call settles");
    assert_eq!(*echoed, 7);
    let registries: Vec<Arc<Registry>> = (0..2)
        .map(|i| Arc::clone(world.locality(i).runtime().registry()))
        .collect();
    assert_eq!(registries[0].discover("/net/*").expect("pattern").len(), 11);
    for registry in &registries {
        round_trips(registry);
    }
    world.shutdown();
    drop(world);
    for (i, registry) in registries.iter().enumerate() {
        assert!(registry.is_empty(), "locality {i}: {:?}", registry.paths());
    }
}

/// Every path in `registry` parses back to itself and queries by it.
fn round_trips(registry: &Registry) -> usize {
    let paths = registry.paths();
    for path in &paths {
        let parsed: CounterPath = path.parse().expect("a registered path parses");
        assert_eq!(&parsed.to_string(), path);
        registry.query(path).expect("a registered path queries");
    }
    paths.len()
}

#[test]
fn every_path_a_fleet_world_publishes_parses_back_to_itself() {
    let world = Fabric::loopback(3, one_worker);
    let workers: Vec<FleetWorker> = (1..3)
        .map(|i| FleetWorker::install(world.locality(i), FleetWorkerConfig::new(0, 1)))
        .collect();
    let gateway = FleetGateway::install(world.locality(0), FleetConfig::new(vec![1, 2]));
    assert_eq!(
        one_job(&gateway, world.locality(0).runtime().registry()),
        1.0
    );
    let mut paths = 0;
    for i in 0..3 {
        paths += round_trips(world.locality(i).runtime().registry());
    }
    for worker in &workers {
        paths += round_trips(worker.service().registry());
    }
    // Three one-worker runtime trees, two services' own trees with the
    // `/service/…` family, three parcel families and the gateway's
    // ledger, and the breaker of the worker the job ran on.
    assert!(
        paths > 3 * 27 + 2 * (27 + 18) + 3 * 11 + 18,
        "{paths} paths"
    );
    drop(gateway);
    drop(workers);
    world.shutdown();
}
