//! Chaos-hardening integration tests: localities talking across a
//! simulated network that drops, duplicates, delays, and partitions
//! frames under a seeded plan.
//!
//! The invariants under test are the PR's acceptance bar:
//! * duplicated `Call`s execute **once** (idempotent dispatch);
//! * dropped frames settle their futures by deadline, never hang;
//! * a silently-blackholed peer is severed by liveness monitoring;
//! * every future outstanding at partition time settles **exactly
//!   once** — counted per future, not sampled;
//! * a kill under partition names the dead locality in every error;
//! * the fabric's parcel ledger conserves at quiescence.

use grain_net::bootstrap::Fabric;
use grain_net::locality::NetConfig;
use grain_runtime::{RuntimeConfig, SharedFuture, TaskError};
use grain_sim::{NetPlan, PartitionMode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded watchdog for every blocking join in this file: a hung future
/// is a test failure, not a hung suite.
const WATCHDOG: Duration = Duration::from_secs(30);

fn one_worker(_: usize) -> RuntimeConfig {
    RuntimeConfig::with_workers(1)
}

/// Poll until `cond` holds or the watchdog expires; returns whether it
/// held.
fn eventually(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + WATCHDOG;
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

#[test]
fn duplicated_calls_execute_exactly_once() {
    // Every parcel is duplicated: each Call and each Reply crosses the
    // wire twice. Dedup must suppress every second copy.
    let fabric = Fabric::chaotic(
        2,
        NetPlan::clean(101).duplicate(1.0),
        |_| NetConfig::default(),
        one_worker,
    );
    let executions = Arc::new(AtomicUsize::new(0));
    {
        let executions = Arc::clone(&executions);
        fabric.locality(1).register_action("bump", move |x: u64| {
            executions.fetch_add(1, Ordering::SeqCst);
            x + 1
        });
    }

    const CALLS: u64 = 50;
    let futures: Vec<SharedFuture<u64>> = (0..CALLS)
        .map(|i| fabric.locality(0).async_remote::<u64, u64>(1, "bump", &i))
        .collect();
    for (i, f) in futures.iter().enumerate() {
        let v = f.wait_timeout(WATCHDOG).expect("call settles ok");
        assert_eq!(*v, i as u64 + 1);
    }

    assert_eq!(
        executions.load(Ordering::SeqCst),
        CALLS as usize,
        "duplicated Calls must not re-execute the action"
    );

    let net = fabric.net().expect("chaotic world has a fabric");
    assert!(net.wait_quiescent(WATCHDOG), "fabric drains");
    let p0 = fabric.locality(0).parcels();
    let p1 = fabric.locality(1).parcels();
    // Every duplicate the network manufactured was suppressed somewhere.
    assert_eq!(p1.deduped.get(), CALLS, "every duplicate Call suppressed");
    assert_eq!(p0.deduped.get(), CALLS, "every duplicate Reply suppressed");
    assert_eq!(p0.duplicated.get(), CALLS, "sender booked the Call dups");
    assert_eq!(p0.calls_issued.get(), CALLS);
    assert_eq!(p0.calls_settled.get(), CALLS, "exactly-once, counted");
    // Clean books: received counts post-dedup traffic only.
    assert_eq!(p0.sent.get(), p1.received.get());
    assert_eq!(p1.sent.get(), p0.received.get());
    let ledger = net.ledger();
    assert!(ledger.conserved(), "ledger conserved: {ledger:?}");
    fabric.shutdown();
}

#[test]
fn dropped_frames_settle_by_deadline_not_hang() {
    // The network destroys every parcel; nothing ever arrives. Without a
    // call deadline each future would wait forever.
    let fabric = Fabric::chaotic(
        2,
        NetPlan::clean(7).drop(1.0),
        |_| NetConfig {
            call_deadline: Some(Duration::from_millis(100)),
            ..NetConfig::default()
        },
        one_worker,
    );
    fabric.locality(1).register_action("echo", |x: u64| x);

    const CALLS: u64 = 10;
    let futures: Vec<SharedFuture<u64>> = (0..CALLS)
        .map(|i| fabric.locality(0).async_remote::<u64, u64>(1, "echo", &i))
        .collect();
    for f in &futures {
        match f.wait_timeout(WATCHDOG) {
            Err(TaskError::Timeout { .. }) => {}
            other => panic!("expected Timeout for a dropped call, got {other:?}"),
        }
    }

    let p0 = fabric.locality(0).parcels();
    assert_eq!(p0.calls_issued.get(), CALLS);
    assert_eq!(p0.calls_settled.get(), CALLS, "every future settled once");
    assert_eq!(p0.dropped.get(), CALLS, "sender booked every chaos drop");
    let net = fabric.net().expect("fabric");
    assert!(net.wait_quiescent(WATCHDOG));
    assert!(net.ledger().conserved(), "ledger: {:?}", net.ledger());
    fabric.shutdown();
}

#[test]
fn liveness_monitor_severs_a_blackholed_peer() {
    // A Drop-mode partition destroys parcels AND control frames: the
    // peer is silently unreachable, indistinguishable from a dead host.
    // Only the liveness monitor can convert that into a disconnect.
    let fabric = Fabric::chaotic(
        2,
        NetPlan::clean(5),
        |_| NetConfig {
            liveness_deadline: Some(Duration::from_millis(250)),
            ..NetConfig::default()
        },
        one_worker,
    );
    fabric.locality(1).register_action("echo", |x: u64| x);

    // Prove the link works first.
    let ok = fabric
        .locality(0)
        .async_remote::<u64, u64>(1, "echo", &1)
        .wait_timeout(WATCHDOG)
        .expect("pre-partition call works");
    assert_eq!(*ok, 1);

    let net = fabric.net().expect("fabric");
    net.partition_now(0, 1, PartitionMode::Drop);

    let fut = fabric.locality(0).async_remote::<u64, u64>(1, "echo", &2);
    match fut.wait_timeout(WATCHDOG) {
        Err(TaskError::Disconnected { locality }) => assert_eq!(locality, 1),
        other => panic!("expected Disconnected from liveness sever, got {other:?}"),
    }
    assert!(
        eventually(|| fabric.locality(0).connected_peers().is_empty()),
        "blackholed peer removed from the link table"
    );
    let p0 = fabric.locality(0).parcels();
    assert_eq!(p0.calls_issued.get(), 2);
    assert_eq!(p0.calls_settled.get(), 2);
    fabric.shutdown();
}

#[test]
fn futures_across_a_partition_heal_settle_exactly_once() {
    // Hold-mode partition: frames park at the cut and flush on heal.
    // Every future outstanding at partition time must settle exactly
    // once — each settle is counted per future, not sampled.
    let fabric = Fabric::chaotic(2, NetPlan::clean(21), |_| NetConfig::default(), one_worker);
    fabric.locality(1).register_action("echo", |x: u64| x * 3);
    let net = fabric.net().expect("fabric");

    net.partition_now(0, 1, PartitionMode::Hold);

    const CALLS: usize = 20;
    let settle_counts: Vec<Arc<AtomicUsize>> =
        (0..CALLS).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let futures: Vec<SharedFuture<u64>> = (0..CALLS)
        .map(|i| {
            let f = fabric
                .locality(0)
                .async_remote::<u64, u64>(1, "echo", &(i as u64));
            let n = Arc::clone(&settle_counts[i]);
            f.on_settled(move |_| {
                n.fetch_add(1, Ordering::SeqCst);
            });
            f
        })
        .collect();

    // Nothing settles while the partition holds.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        settle_counts.iter().all(|c| c.load(Ordering::SeqCst) == 0),
        "held frames must not settle futures early"
    );

    net.heal_now(0, 1);
    for (i, f) in futures.iter().enumerate() {
        let v = f.wait_timeout(WATCHDOG).expect("settles after heal");
        assert_eq!(*v, i as u64 * 3);
    }
    // Continuations run on the settling thread and may trail the waiter
    // by an instant; converge, then hold at exactly one.
    assert!(
        eventually(|| settle_counts.iter().all(|c| c.load(Ordering::SeqCst) == 1)),
        "every future settled exactly once"
    );
    let p0 = fabric.locality(0).parcels();
    assert_eq!(p0.calls_issued.get(), CALLS as u64);
    assert_eq!(p0.calls_settled.get(), CALLS as u64);
    assert!(net.wait_quiescent(WATCHDOG));
    let ledger = net.ledger();
    assert!(ledger.conserved(), "ledger conserved: {ledger:?}");
    assert_eq!(ledger.partitions_opened, 1);
    assert_eq!(ledger.partitions_healed, 1);
    fabric.shutdown();
}

#[test]
fn kill_under_partition_names_the_dead_locality_everywhere() {
    // Locality 2 dies while partitioned from locality 0, with calls
    // parked at the cut. Every such future must settle Disconnected
    // naming locality 2 — no hangs, no double settles — and the parked
    // frames must be ledgered as in-flight-at-sever, not lost.
    let fabric = Fabric::chaotic(3, NetPlan::clean(33), |_| NetConfig::default(), one_worker);
    fabric.locality(2).register_action("echo", |x: u64| x);
    fabric.locality(1).register_action("echo", |x: u64| x);
    let net = fabric.net().expect("fabric");

    net.partition_now(0, 2, PartitionMode::Hold);

    const CALLS: usize = 10;
    let settle_counts: Vec<Arc<AtomicUsize>> =
        (0..CALLS).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let futures: Vec<SharedFuture<u64>> = (0..CALLS)
        .map(|i| {
            let f = fabric
                .locality(0)
                .async_remote::<u64, u64>(2, "echo", &(i as u64));
            let n = Arc::clone(&settle_counts[i]);
            f.on_settled(move |_| {
                n.fetch_add(1, Ordering::SeqCst);
            });
            f
        })
        .collect();

    // Let every Call actually reach the cut and park there, so the kill
    // exercises the frames-in-flight-at-sever path, not just the queue.
    assert!(
        eventually(|| net.ledger().held >= CALLS as u64),
        "calls parked at the partition: {:?}",
        net.ledger()
    );

    fabric.kill(2);

    for f in &futures {
        match f.wait_timeout(WATCHDOG) {
            Err(TaskError::Disconnected { locality }) => {
                assert_eq!(locality, 2, "error must name the dead locality");
            }
            other => panic!("expected Disconnected {{ locality: 2 }}, got {other:?}"),
        }
    }
    assert!(
        eventually(|| settle_counts.iter().all(|c| c.load(Ordering::SeqCst) == 1)),
        "every future settled exactly once"
    );

    // The survivors' lane still works.
    let v = fabric
        .locality(0)
        .async_remote::<u64, u64>(1, "echo", &7)
        .wait_timeout(WATCHDOG)
        .expect("survivor lane works");
    assert_eq!(*v, 7);

    let p0 = fabric.locality(0).parcels();
    assert_eq!(p0.calls_issued.get(), CALLS as u64 + 1);
    assert_eq!(p0.calls_settled.get(), CALLS as u64 + 1);
    assert!(net.wait_quiescent(WATCHDOG));
    let ledger = net.ledger();
    assert!(ledger.conserved(), "ledger conserved: {ledger:?}");
    assert!(
        ledger.severed >= CALLS as u64,
        "parked calls ledgered at sever: {ledger:?}"
    );
    fabric.shutdown();
}

#[test]
fn late_reply_after_deadline_is_deduped_not_double_settled() {
    // Pause the fabric so the Call (and its Reply) are frozen in the
    // network while the caller's deadline fires; resuming then delivers
    // a Reply for an already-settled call. It must count as deduped —
    // a double settle would panic the promise.
    let fabric = Fabric::chaotic(
        2,
        NetPlan::clean(13),
        |_| NetConfig {
            call_deadline: Some(Duration::from_millis(50)),
            ..NetConfig::default()
        },
        one_worker,
    );
    fabric.locality(1).register_action("echo", |x: u64| x);
    let net = fabric.net().expect("fabric");

    net.pause();
    let fut = fabric.locality(0).async_remote::<u64, u64>(1, "echo", &9);
    match fut.wait_timeout(WATCHDOG) {
        Err(TaskError::Timeout { .. }) => {}
        other => panic!("expected deadline Timeout, got {other:?}"),
    }
    net.resume();

    let p0 = Arc::clone(fabric.locality(0).parcels());
    assert!(
        eventually(|| p0.deduped.get() >= 1),
        "late reply counted as deduped"
    );
    assert_eq!(p0.calls_issued.get(), 1);
    assert_eq!(p0.calls_settled.get(), 1, "settled once, by the deadline");
    assert!(net.wait_quiescent(WATCHDOG));
    fabric.shutdown();
}

#[test]
fn chaotic_mesh_conserves_the_ledger_and_settles_everything() {
    // General weather: loss, duplication, reordering, jitter — plus
    // deadlines so dropped frames settle. At quiescence the ledger must
    // conserve and issued == settled on every locality.
    let fabric = Fabric::chaotic(
        3,
        NetPlan::clean(97)
            .drop(0.15)
            .duplicate(0.15)
            .reorder(0.5, 200_000)
            .latency(10_000, 5_000),
        |_| NetConfig {
            call_deadline: Some(Duration::from_millis(300)),
            ..NetConfig::default()
        },
        one_worker,
    );
    for i in 0..3 {
        fabric.locality(i).register_action("echo", |x: u64| x + 100);
    }

    let mut futures: Vec<SharedFuture<u64>> = Vec::new();
    for src in 0..3usize {
        for dst in 0..3usize {
            if src == dst {
                continue;
            }
            for k in 0..20u64 {
                futures.push(
                    fabric
                        .locality(src)
                        .async_remote::<u64, u64>(dst, "echo", &k),
                );
            }
        }
    }
    let mut ok = 0usize;
    let mut timed_out = 0usize;
    for f in &futures {
        match f.wait_timeout(WATCHDOG) {
            Ok(v) => {
                assert!(*v >= 100);
                ok += 1;
            }
            Err(TaskError::Timeout { .. }) => timed_out += 1,
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(ok + timed_out, futures.len(), "all settled, none hung");
    assert!(ok > 0, "some calls survive 15% loss");

    let net = fabric.net().expect("fabric");
    assert!(net.wait_quiescent(WATCHDOG));
    let ledger = net.ledger();
    assert!(ledger.conserved(), "ledger conserved: {ledger:?}");
    for i in 0..3 {
        let p = fabric.locality(i).parcels();
        assert_eq!(
            p.calls_issued.get(),
            p.calls_settled.get(),
            "locality {i}: exactly-once settlement"
        );
    }
    fabric.shutdown();
}
