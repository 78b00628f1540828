//! The thread inventory. Every thread the workspace starts goes through
//! `grain_counters::sync::spawn`, which counts it, so the threads each
//! stack starts are a count, pinned here. Each number is derived from
//! the code in the comment above it: a stack that starts one thread more
//! (another pump, say) fails until the number and its derivation change
//! together. One test in a binary of its own, since the count is
//! process-wide and a neighbouring test would start threads of its own.

use grain_counters::sync::threads_started;
use grain_fleet::{FleetConfig, FleetGateway, FleetWorker, FleetWorkerConfig};
use grain_net::{tcp_join, tcp_root, Fabric, TcpNode};
use grain_runtime::{Runtime, RuntimeConfig};
use grain_service::JobService;
use std::time::Duration;

/// The threads `build` starts, and what it built, alive until the count
/// is read.
fn started<T>(build: impl FnOnce() -> T) -> (u64, T) {
    let before = threads_started();
    let built = build();
    (threads_started() - before, built)
}

/// `n` one-worker localities joined over 127.0.0.1, every link of the
/// full mesh up.
fn tcp_world(n: usize) -> Vec<TcpNode> {
    let root = tcp_root("127.0.0.1:0", n, RuntimeConfig::with_workers(1)).expect("root");
    let addr = root.listen_addr().to_string();
    let mut nodes = vec![root];
    for _ in 1..n {
        nodes.push(tcp_join(&addr, RuntimeConfig::with_workers(1)).expect("join"));
    }
    for node in &nodes {
        assert!(node.wait_for_world(Duration::from_secs(10)), "no full mesh");
    }
    nodes
}

#[test]
fn each_stack_starts_the_threads_its_code_names() {
    // Its one worker.
    let (n, rt) = started(|| Runtime::new(RuntimeConfig::with_workers(1)));
    assert_eq!(n, 1, "a one-worker runtime");
    drop(rt);

    // The runtime's worker and the dispatcher's pump.
    let (n, service) = started(|| JobService::with_workers(1));
    assert_eq!(n, 2, "a one-worker job service");
    drop(service);

    // Two one-worker runtimes and one loopback link each way, each with
    // its writer; no monitor, since no deadline is configured.
    let (n, fabric) = started(|| Fabric::loopback(2, |_| RuntimeConfig::with_workers(1)));
    assert_eq!(n, 2 + 2, "a two-locality loopback fabric");
    fabric.shutdown();
    drop(fabric);

    // Three one-worker runtimes, the root's accept thread and each
    // joiner's, and both ends of the mesh's three links, each end a
    // writer and a reader.
    let (n, world) = started(|| tcp_world(3));
    assert_eq!(n, 3 + 3 + 3 * 2 * 2, "a three-locality TCP world");

    // The gateway's pump; each fleet worker's one-worker job service
    // (its worker and dispatcher pump) and its own pump.
    let (n, (gateway, workers)) = started(|| {
        let workers: Vec<FleetWorker> = (1..3)
            .map(|i| FleetWorker::install(world[i].locality(), FleetWorkerConfig::new(0, 1)))
            .collect();
        let gateway = FleetGateway::install(world[0].locality(), FleetConfig::new(vec![1, 2]));
        (gateway, workers)
    });
    assert_eq!(n, 1 + 2 * 3, "a gateway and two fleet workers");
    drop(gateway);
    drop(workers);
    for node in &world {
        node.locality().shutdown();
    }
}
