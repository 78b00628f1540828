//! Integration tests for the distribution layer: remote actions over
//! loopback and TCP worlds, failure settlement, and parcel-counter
//! balance.

use grain_net::bootstrap::{tcp_join, tcp_root, Fabric, TcpNode};
use grain_runtime::{RuntimeConfig, TaskError};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

fn fabric(world: usize) -> Fabric {
    Fabric::loopback(world, |_| RuntimeConfig::with_workers(2))
}

#[test]
fn remote_action_roundtrip() {
    let f = fabric(2);
    f.locality(1).register_action("double", |x: u64| x * 2);
    let fut = f.locality(0).async_remote::<u64, u64>(1, "double", &21);
    assert_eq!(*fut.wait_timeout(WAIT).expect("settled"), 42);
    f.shutdown();
}

#[test]
fn self_call_uses_the_same_codec_path() {
    let f = fabric(2);
    f.locality(0)
        .register_action("concat", |(a, b): (String, String)| format!("{a}{b}"));
    let fut = f.locality(0).async_remote::<(String, String), String>(
        0,
        "concat",
        &("foo".to_string(), "bar".to_string()),
    );
    assert_eq!(*fut.wait_timeout(WAIT).expect("settled"), "foobar");
    // The local fast path must not touch the parcel counters.
    assert_eq!(f.locality(0).parcels().sent.get(), 0);
    assert_eq!(f.locality(0).parcels().received.get(), 0);
    f.shutdown();
}

#[test]
fn remote_panic_comes_back_as_panicked_not_a_hang() {
    let f = fabric(2);
    f.locality(1).register_action("explode", |_x: u64| -> u64 {
        panic!("remote kaboom");
    });
    let fut = f.locality(0).async_remote::<u64, u64>(1, "explode", &1);
    match fut.wait_timeout(WAIT) {
        Err(TaskError::Panicked { message }) => {
            assert!(message.contains("remote kaboom"), "message: {message}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    f.shutdown();
}

#[test]
fn unknown_action_names_the_destination() {
    let f = fabric(2);
    let fut = f.locality(0).async_remote::<u64, u64>(1, "nope", &1);
    match fut.wait_timeout(WAIT) {
        Err(TaskError::Remote { locality, message }) => {
            assert_eq!(locality, 1);
            assert!(message.contains("nope"), "message: {message}");
        }
        other => panic!("expected Remote, got {other:?}"),
    }
    f.shutdown();
}

#[test]
fn deferred_action_replies_when_its_future_settles() {
    let f = fabric(2);
    // The answer is produced by a task spawned *after* the request
    // arrives — the reply must wait for it.
    f.locality(1)
        .register_deferred_action("slow-add", |rt, (a, b): (u64, u64)| {
            rt.async_call(move |_cx| {
                std::thread::sleep(Duration::from_millis(20));
                a + b
            })
        });
    let fut = f
        .locality(0)
        .async_remote::<(u64, u64), u64>(1, "slow-add", &(40, 2));
    assert_eq!(*fut.wait_timeout(WAIT).expect("settled"), 42);
    f.shutdown();
}

#[test]
fn killing_a_peer_settles_outstanding_futures_with_disconnected() {
    let f = fabric(2);
    // Deferred action whose inner future never settles: the reply can
    // only come from the disconnect sweep.
    f.locality(1)
        .register_deferred_action("black-hole", |_rt, _x: u64| {
            let (_promise, future) = grain_runtime::channel::<u64>();
            std::mem::forget(_promise); // keep it pending forever
            future
        });
    let fut = f.locality(0).async_remote::<u64, u64>(1, "black-hole", &1);
    assert!(fut.try_get().is_none(), "must still be pending");
    f.kill(1);
    match fut.wait_timeout(WAIT) {
        Err(e) => {
            assert_eq!(e, TaskError::Disconnected { locality: 1 });
            assert!(e.to_string().contains("locality#1"), "display: {e}");
        }
        Ok(v) => panic!("expected Disconnected, got value {v:?}"),
    }
    // Calls issued after the kill settle immediately, too.
    let late = f.locality(0).async_remote::<u64, u64>(1, "black-hole", &2);
    assert!(matches!(
        late.wait_timeout(WAIT),
        Err(TaskError::Disconnected { locality: 1 })
    ));
    f.shutdown();
}

#[test]
fn parcel_counters_balance_at_quiescence() {
    let world = 3;
    let f = fabric(world);
    for k in 0..world {
        f.locality(k).register_action("bump", |x: u64| x + 1);
    }
    // Every locality calls every other locality a few times.
    let mut futures = Vec::new();
    for src in 0..world {
        for dst in 0..world {
            if src != dst {
                for i in 0..5u64 {
                    futures.push(f.locality(src).async_remote::<u64, u64>(dst, "bump", &i));
                }
            }
        }
    }
    for fut in &futures {
        let _ = fut.wait_timeout(WAIT).expect("settled");
    }
    // Every call future has settled, so every Call and Reply parcel has
    // been received and dispatched: the books must balance exactly.
    let sent: u64 = (0..world).map(|k| f.locality(k).parcels().sent.get()).sum();
    let received: u64 = (0..world)
        .map(|k| f.locality(k).parcels().received.get())
        .sum();
    assert_eq!(sent, received, "sent {sent} vs received {received}");
    // 30 calls and 30 replies crossed the fabric.
    assert_eq!(sent, 60);
    let bytes_sent: u64 = (0..world)
        .map(|k| f.locality(k).parcels().bytes_sent.get())
        .sum();
    let bytes_received: u64 = (0..world)
        .map(|k| f.locality(k).parcels().bytes_received.get())
        .sum();
    assert_eq!(bytes_sent, bytes_received);
    // Serialization was sampled once per outbound call.
    let samples: u64 = (0..world)
        .map(|k| f.locality(k).parcels().ser_samples.get())
        .sum();
    assert_eq!(samples, 30);
    f.shutdown();
}

#[test]
fn counters_appear_in_each_runtime_registry() {
    let f = fabric(2);
    f.locality(1).register_action("id", |x: u64| x);
    let fut = f.locality(0).async_remote::<u64, u64>(1, "id", &7);
    let _ = fut.wait_timeout(WAIT).expect("settled");
    // The writer books `sent` before the hand-over, so the reply
    // cannot come back ahead of it.
    let v = f
        .locality(0)
        .runtime()
        .registry()
        .query("/parcels{locality#0/total}/count/sent")
        .expect("counter registered");
    assert!(v.value >= 1.0);
    let v = f
        .locality(1)
        .runtime()
        .registry()
        .query("/parcels{locality#1/total}/count/received")
        .expect("counter registered");
    assert!(v.value >= 1.0);
    f.shutdown();
}

/// A two-locality world over real sockets on 127.0.0.1.
fn tcp_pair() -> (TcpNode, TcpNode) {
    let root = tcp_root("127.0.0.1:0", 2, RuntimeConfig::with_workers(2)).expect("root");
    let n1 = tcp_join(root.listen_addr(), RuntimeConfig::with_workers(2)).expect("join");
    assert!(root.wait_for_world(WAIT), "root never saw the full world");
    assert!(n1.wait_for_world(WAIT), "n1 never saw the full world");
    (root, n1)
}

/// Books balance over real sockets under bursts of small frames — the
/// traffic the TCP writer coalesces into one write per batch and the
/// reader takes through one buffer — with one 100 KiB frame each way
/// between the small ones. Every reply must carry the right value (no
/// frame torn or reordered by coalescing or by the read buffer), every
/// parcel must be counted once on each side, and a graceful close must
/// not strand a tail of frames in the write buffer.
#[test]
fn tcp_books_balance_under_small_frame_bursts() {
    let (root, n1) = tcp_pair();
    let (here, there) = (root.locality(), n1.locality());
    there.register_action("triple", |x: u64| x * 3);
    there.register_action("echo", |s: String| s);

    const CALLS: u64 = 10_000;
    let big: String = (0..100 * 1024u32)
        .map(|i| char::from(b'a' + (i % 26) as u8))
        .collect();
    let mut echoed = None;
    let futures: Vec<_> = (0..CALLS)
        .map(|i| {
            if i == CALLS / 2 {
                echoed = Some(here.async_remote::<String, String>(1, "echo", &big));
            }
            here.async_remote::<u64, u64>(1, "triple", &i)
        })
        .collect();
    for (i, fut) in futures.iter().enumerate() {
        assert_eq!(
            *fut.wait_timeout(WAIT).expect("settled"),
            i as u64 * 3,
            "reply {i} corrupted"
        );
    }
    let echoed = echoed.expect("sent").wait_timeout(WAIT).expect("settled");
    assert!(*echoed == big, "the 100 KiB frame was torn");

    // Every call future settled, so every Call and Reply parcel has been
    // dispatched; the books must balance exactly.
    let sent = here.parcels().sent.get() + there.parcels().sent.get();
    let received = here.parcels().received.get() + there.parcels().received.get();
    assert_eq!(sent, received, "sent {sent} vs received {received}");
    assert_eq!(sent, 2 * (CALLS + 1), "one Call and one Reply per call");
    let bytes_sent = here.parcels().bytes_sent.get() + there.parcels().bytes_sent.get();
    let bytes_received = here.parcels().bytes_received.get() + there.parcels().bytes_received.get();
    assert_eq!(bytes_sent, bytes_received, "byte books must balance");

    // A burst nobody waits on, then goodbye: the close drains it all.
    const TAIL: u64 = 500;
    let before = there.parcels().received.get();
    for i in 0..TAIL {
        let _ = here.async_remote::<u64, u64>(1, "triple", &i);
    }
    here.shutdown();
    let deadline = Instant::now() + WAIT;
    while there.parcels().received.get() < before + TAIL {
        assert!(Instant::now() < deadline, "close stranded queued frames");
        std::thread::sleep(Duration::from_millis(1));
    }

    root.stop_listening();
    n1.stop_listening();
}

/// Request/response over a real socket costs a round trip, not a
/// delayed ACK: with Nagle on and the length prefix in a write of its
/// own, each of these calls takes 88 ms and the loop 17 s.
#[test]
fn tcp_sequential_round_trips_do_not_wait_out_delayed_acks() {
    let (root, n1) = tcp_pair();
    n1.locality().register_action("succ", |x: u64| x + 1);
    let t0 = Instant::now();
    for i in 0..200u64 {
        let fut = root.locality().async_remote::<u64, u64>(1, "succ", &i);
        assert_eq!(*fut.wait_timeout(WAIT).expect("settled"), i + 1);
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "200 round trips took {took:?}"
    );
    root.stop_listening();
    n1.stop_listening();
}

#[test]
fn tcp_world_bootstraps_and_serves_actions() {
    // Three localities in one process, over real sockets on 127.0.0.1.
    let root = tcp_root("127.0.0.1:0", 3, RuntimeConfig::with_workers(1)).expect("root");
    let addr = root.listen_addr().to_string();
    let n1 = tcp_join(&addr, RuntimeConfig::with_workers(1)).expect("join 1");
    let n2 = tcp_join(&addr, RuntimeConfig::with_workers(1)).expect("join 2");

    assert!(root.wait_for_world(WAIT), "root never saw the full world");
    assert!(n1.wait_for_world(WAIT), "n1 never saw the full world");
    assert!(n2.wait_for_world(WAIT), "n2 never saw the full world");
    assert_eq!(n1.locality().id(), 1);
    assert_eq!(n2.locality().id(), 2);

    n2.locality().register_action("pow2", |x: u64| x.pow(2));
    // Peer-to-peer call that does NOT involve the root's link table.
    let fut = n1.locality().async_remote::<u64, u64>(2, "pow2", &9);
    assert_eq!(*fut.wait_timeout(WAIT).expect("settled"), 81);

    // And root -> joiner.
    n1.locality().register_action("succ", |x: u64| x + 1);
    let fut = root.locality().async_remote::<u64, u64>(1, "succ", &99);
    assert_eq!(*fut.wait_timeout(WAIT).expect("settled"), 100);

    root.stop_listening();
    n1.stop_listening();
    n2.stop_listening();
}
