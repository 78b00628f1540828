//! End-to-end distributed stencil: multi-locality runs must be
//! bit-identical to the single-locality futurized runs, parcel books
//! must balance at quiescence, and a dying locality must settle — not
//! hang — everything that depended on it.

use grain::net::bootstrap::Fabric;
use grain::net::locality::NetConfig;
use grain::runtime::{Runtime, RuntimeConfig, TaskError};
use grain::sim::NetPlan;
use grain::stencil::distributed::{run_distributed_loopback, DistStencil};
use grain::stencil::futurized::run_futurized;
use grain::stencil::StencilParams;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(20);

fn futurized_oracle(params: &StencilParams) -> Vec<f64> {
    let rt = Runtime::with_workers(2);
    run_futurized(&rt, params)
}

#[test]
fn two_localities_match_futurized_bit_exactly() {
    let params = StencilParams::new(8, 6, 10);
    let expect = futurized_oracle(&params);
    let got = run_distributed_loopback(2, 2, &params);
    assert_eq!(got, expect, "distributed result must be bit-identical");
}

#[test]
fn many_shapes_match_futurized_bit_exactly() {
    // Ragged blocks, single-point partitions, np == world, zero steps,
    // and 1024 points in 8 partitions on 1, 2 and 4 localities (world 1:
    // the whole ring is local and no parcel is sent).
    for (world, nx, np, nt) in [
        (2, 1, 5, 8),
        (3, 7, 7, 6),
        (2, 3, 2, 12),
        (4, 5, 9, 5),
        (3, 4, 11, 0),
        (1, 128, 8, 8),
        (2, 128, 8, 8),
        (4, 128, 8, 8),
    ] {
        let params = StencilParams::new(nx, np, nt);
        let expect = futurized_oracle(&params);
        let got = run_distributed_loopback(world, 1, &params);
        assert_eq!(got, expect, "world={world} nx={nx} np={np} nt={nt}");
    }
}

#[test]
fn lossless_chaos_matches_futurized_and_suppresses_every_duplicate() {
    // 4096 points in 16 partitions over a simulated fabric that
    // duplicates, reorders and delays frames but never destroys one: the
    // result must still be bit-exact, every manufactured duplicate
    // suppressed exactly once, and the fabric's parcel ledger conserved.
    let params = StencilParams::new(4096 / 16, 16, 10);
    let expect = futurized_oracle(&params);
    for world in [2, 4] {
        let plan = NetPlan::clean(7)
            .duplicate(0.2)
            .reorder(0.5, 200_000)
            .latency(10_000, 5_000);
        let fabric = Fabric::chaotic(
            world,
            plan,
            |_| NetConfig::default(),
            |_| RuntimeConfig::with_workers(1),
        );
        let instances: Vec<DistStencil> = (0..world)
            .map(|k| DistStencil::install(fabric.locality(k), params))
            .collect();
        for inst in &instances {
            inst.start();
        }
        let got = instances[0].gather().expect("distributed run settled");
        assert_eq!(got, expect, "world={world}");

        let net = fabric.net().expect("a chaotic world has a fabric");
        assert!(net.wait_quiescent(WAIT), "world={world}: never drained");
        let ledger = net.ledger();
        assert!(ledger.conserved(), "world={world}: {ledger:?}");
        assert!(ledger.duplicated > 0, "world={world}: nothing duplicated");
        // The dedup bump lands in the sink handler, which can trail the
        // fabric's drained flip by a beat: poll, bounded.
        let deduped = || -> u64 {
            (0..world)
                .map(|k| fabric.locality(k).parcels().deduped.get())
                .sum()
        };
        let deadline = std::time::Instant::now() + WAIT;
        while deduped() != ledger.duplicated && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(deduped(), ledger.duplicated, "world={world}");
        // A duplicated call that ran twice would send a second reply:
        // still one reply per call, as on a clean link — 2 edge fetches
        // per step per locality, plus gathering the other blocks.
        let sent: u64 = (0..world)
            .map(|k| fabric.locality(k).parcels().sent.get())
            .sum();
        let calls = 2 * params.nt * world + world - 1;
        assert_eq!(sent as usize, 2 * calls, "world={world}");
        fabric.shutdown();
    }
}

#[test]
fn parcel_books_balance_after_a_distributed_run() {
    let world = 3;
    let params = StencilParams::new(6, 7, 9);
    let fabric = Fabric::loopback(world, |_| RuntimeConfig::with_workers(1));
    let instances: Vec<DistStencil> = (0..world)
        .map(|k| DistStencil::install(fabric.locality(k), params))
        .collect();
    for inst in &instances {
        inst.start();
    }
    // Wait until every locality's block has settled: at that point every
    // issued call has been answered.
    for inst in &instances {
        inst.local_result_timeout(WAIT).expect("block settled");
    }
    // The last replies may still be a hair away from dispatch (writer
    // thread -> handler); poll until the books balance, bounded.
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        let sent: u64 = (0..world)
            .map(|k| fabric.locality(k).parcels().sent.get())
            .sum();
        let received: u64 = (0..world)
            .map(|k| fabric.locality(k).parcels().received.get())
            .sum();
        if sent == received && sent > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "books never balanced: sent {sent} vs received {received}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Each locality issued 2 edge fetches per step: nt calls x 2
    // directions x world localities, each with exactly one reply.
    let sent: u64 = (0..world)
        .map(|k| fabric.locality(k).parcels().sent.get())
        .sum();
    assert_eq!(sent as usize, 2 * 2 * params.nt * world);
    fabric.shutdown();
}

#[test]
fn killing_a_locality_settles_the_stencil_with_its_name() {
    let world = 3;
    let params = StencilParams::new(4, 6, 8);
    let fabric = Fabric::loopback(world, |_| RuntimeConfig::with_workers(1));
    let instances: Vec<DistStencil> = (0..world)
        .map(|k| DistStencil::install(fabric.locality(k), params))
        .collect();
    // Locality 1 registers its actions but never starts producing: its
    // neighbours' edge fetches stay outstanding... until we kill it.
    instances[0].start();
    instances[2].start();
    fabric.kill(1);

    for k in [0, 2] {
        let err = instances[k]
            .local_result_timeout(WAIT)
            .expect_err("a dead neighbour must fail the block, not hang it");
        // The cause chain must name the dead locality.
        let rendered = err.to_string();
        assert!(
            rendered.contains("locality#1"),
            "error on locality {k} does not name the dead peer: {rendered}"
        );
        assert!(
            !matches!(err, TaskError::Timeout { .. }),
            "settled by timeout rather than by disconnect: {err:?}"
        );
    }
    fabric.shutdown();
}

#[test]
fn runtime_thread_counters_live_under_their_locality_instance() {
    let fabric = Fabric::loopback(2, |_| RuntimeConfig::with_workers(1));
    fabric.locality(1).register_action("noop", |x: u64| x);
    let fut = fabric.locality(0).async_remote::<u64, u64>(1, "noop", &0);
    let _ = fut.wait_timeout(WAIT).expect("settled");
    fabric.locality(1).runtime().wait_idle();
    // The action body ran as a first-class task on locality 1's
    // scheduler, under locality 1's counter namespace.
    let v = fabric
        .locality(1)
        .runtime()
        .registry()
        .query("/threads{locality#1/total}/count/cumulative")
        .expect("locality-1 thread counters registered");
    assert!(v.value >= 1.0, "no tasks recorded: {}", v.value);
    fabric.shutdown();
}
