//! End-to-end distributed graphs: a task graph split across localities
//! must reproduce the sequential reference checksum, parcel books must
//! balance at quiescence, and a dying locality must settle — not hang —
//! everything that depended on it.

use grain::net::block_owner;
use grain::net::bootstrap::Fabric;
use grain::net::locality::NetConfig;
use grain::runtime::{RuntimeConfig, TaskError};
use grain::sim::NetPlan;
use grain::taskbench::{run_distributed_loopback, DistTaskBench, GraphKind, GraphSpec, TaskGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(20);

fn build(kind: GraphKind, seed: u64) -> Arc<TaskGraph> {
    Arc::new(GraphSpec::shape(kind, seed).grain(20).payload(64).build())
}

fn stencil_graph(width: usize, steps: usize) -> Arc<TaskGraph> {
    build(GraphKind::Stencil1d { width, steps }, 0xd157)
}

/// Edges whose endpoints lie in different blocks of a `world`-locality
/// split: each costs one call and one reply on the wire.
fn cross_block_edges(graph: &TaskGraph, world: usize) -> usize {
    let n = graph.len();
    graph
        .edges
        .iter()
        .filter(|e| block_owner(e.src as usize, world, n) != block_owner(e.dst as usize, world, n))
        .count()
}

/// Install the graph on every locality of the fabric (every locality
/// registers its actions before any starts).
fn install(fabric: &Fabric, graph: &Arc<TaskGraph>) -> Vec<DistTaskBench> {
    (0..fabric.world())
        .map(|k| DistTaskBench::install(fabric.locality(k), Arc::clone(graph)))
        .collect()
}

fn sent(fabric: &Fabric) -> u64 {
    (0..fabric.world())
        .map(|k| fabric.locality(k).parcels().sent.get())
        .sum()
}

fn received(fabric: &Fabric) -> u64 {
    (0..fabric.world())
        .map(|k| fabric.locality(k).parcels().received.get())
        .sum()
}

#[test]
fn two_localities_match_the_reference_checksum() {
    let graph = stencil_graph(6, 10);
    let got = run_distributed_loopback(2, 2, &graph).expect("distributed run settled");
    assert_eq!(got, graph.checksum_reference());
}

#[test]
fn many_shapes_match_the_reference_checksum() {
    // Ragged blocks, as many nodes as localities, zero steps (no edge at
    // all), random DAGs, and a 9-level stencil on 1, 2 and 4 localities
    // (world 1: the whole graph is local and no parcel is sent).
    let stencil = |width, steps| GraphKind::Stencil1d { width, steps };
    let random = |width, steps| GraphKind::RandomDag {
        width,
        steps,
        max_deps: 3,
    };
    for (world, kind) in [
        (2, stencil(5, 8)),
        (3, stencil(7, 6)),
        (4, stencil(2, 1)),
        (3, stencil(3, 0)),
        (3, stencil(11, 0)),
        (2, random(5, 6)),
        (3, random(7, 4)),
        (4, random(9, 5)),
        (1, stencil(8, 8)),
        (2, stencil(8, 8)),
        (4, stencil(8, 8)),
    ] {
        let graph = build(kind, 0x5ba9e);
        let fabric = Fabric::loopback(world, |_| RuntimeConfig::with_workers(1));
        let instances = install(&fabric, &graph);
        for inst in &instances {
            inst.start();
        }
        let got = instances[0].collect().expect("distributed run settled");
        assert_eq!(got, graph.checksum_reference(), "world={world} {kind:?}");
        if world == 1 {
            assert_eq!(sent(&fabric), 0, "a world of one sends nothing");
        }
        fabric.shutdown();
    }
}

#[test]
fn lossless_chaos_matches_the_reference_and_suppresses_every_duplicate() {
    // 176 tasks over a simulated fabric that duplicates, reorders and
    // delays frames but never destroys one: the checksum must still
    // match, every manufactured duplicate be suppressed exactly once,
    // and the fabric's parcel ledger be conserved.
    let graph = stencil_graph(16, 10);
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
        let instances = install(&fabric, &graph);
        for inst in &instances {
            inst.start();
        }
        let got = instances[0].collect().expect("distributed run settled");
        assert_eq!(got, graph.checksum_reference(), "world={world}");

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
        let deadline = Instant::now() + WAIT;
        while deduped() != ledger.duplicated && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(deduped(), ledger.duplicated, "world={world}");
        // A duplicated call that ran twice would send a second reply:
        // still one reply per call, as on a clean link — one fetch per
        // cross-block edge, plus collecting the other partials.
        let calls = cross_block_edges(&graph, world) + world - 1;
        assert_eq!(sent(&fabric) as usize, 2 * calls, "world={world}");
        fabric.shutdown();
    }
}

#[test]
fn parcel_books_balance_after_a_distributed_run() {
    let world = 3;
    let graph = build(
        GraphKind::RandomDag {
            width: 7,
            steps: 9,
            max_deps: 3,
        },
        0xb00c5,
    );
    let fabric = Fabric::loopback(world, |_| RuntimeConfig::with_workers(1));
    let instances = install(&fabric, &graph);
    for inst in &instances {
        inst.start();
    }
    // Wait until every locality's block has settled: at that point every
    // issued call has been answered.
    for inst in &instances {
        inst.local_partial().expect("block settled");
    }
    // The last replies may still be a hair away from dispatch (writer
    // thread -> handler); poll until the books balance, bounded.
    let deadline = Instant::now() + WAIT;
    while sent(&fabric) != received(&fabric) {
        assert!(
            Instant::now() < deadline,
            "books never balanced: sent {} vs received {}",
            sent(&fabric),
            received(&fabric)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // One edge fetch per cross-block edge, each with exactly one reply.
    let cross = cross_block_edges(&graph, world);
    assert!(cross > 0, "the split must cut some edges");
    assert_eq!(sent(&fabric) as usize, 2 * cross);
    assert_eq!(received(&fabric) as usize, 2 * cross);
    fabric.shutdown();
}

#[test]
fn killing_a_locality_settles_the_stencil_with_its_name() {
    // 4 lanes x 9 levels over 3 localities: every block holds 3 whole
    // levels, so only locality 2 reads from locality 1, and locality 0
    // reads from nobody.
    let world = 3;
    let graph = stencil_graph(4, 8);
    let n = graph.len();
    let reads_from_1 = |k: usize| {
        graph.edges.iter().any(|e| {
            block_owner(e.src as usize, world, n) == 1 && block_owner(e.dst as usize, world, n) == k
        })
    };
    assert!(reads_from_1(2) && !reads_from_1(0), "shape lost its slabs");
    let fabric = Fabric::loopback(world, |_| RuntimeConfig::with_workers(1));
    let instances = install(&fabric, &graph);
    // Locality 1 registers its actions but never starts producing: its
    // consumers' edge fetches stay outstanding... until we kill it.
    instances[0].start();
    instances[2].start();
    fabric.kill(1);

    let err = instances[2]
        .local_partial()
        .expect_err("a dead producer must fail the block, not hang it");
    // The cause chain must name the dead locality.
    let rendered = err.to_string();
    assert!(
        rendered.contains("locality#1"),
        "error on locality 2 does not name the dead peer: {rendered}"
    );
    assert!(
        !matches!(err, TaskError::Timeout { .. }),
        "settled by timeout rather than by disconnect: {err:?}"
    );
    instances[0]
        .local_partial()
        .expect("a block with no remote input settles");
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
