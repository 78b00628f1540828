//! `dist_bench` — distributed stencil benchmark over in-process
//! loopback localities.
//!
//! The distributed analog of the paper's task-size sweep: the same 1-D
//! heat stencil, but with the partition ring split across `L` loopback
//! localities, so every time step pays two remote edge exchanges per
//! locality through the full parcel path (serialize → frame → bounded
//! send queue → writer thread → dispatch → deferred reply). Sweeping
//! partition size at fixed total points shows where communication
//! overhead overtakes computation — the distributed edition of the
//! paper's granularity trade-off.
//!
//! For each configuration the binary reports wall time, parcels and
//! bytes sent, average serialization time, and the verified
//! sent==received balance across all localities at quiescence.
//!
//! **Caveat (single-core hosts)**: loopback localities multiply worker
//! *threads*, not cores. On a 1-core host every extra locality adds
//! scheduling pressure and the sweep measures protocol overhead only —
//! relative numbers across locality counts are NOT speedups. The header
//! prints detected parallelism so recorded results are interpretable.
//!
//! Flags: `--quick` (bounded shapes);
//! `--chaos <seed>` routes the L=2 and L=4 cases through the simulated
//! network fabric with seeded duplication + reordering (lossless, so the
//! oracle still must hold exactly) and additionally checks that every
//! manufactured duplicate was suppressed and the fabric's parcel ledger
//! conserves at quiescence.

use grain_net::bootstrap::Fabric;
use grain_net::locality::NetConfig;
use grain_runtime::Runtime;
use grain_runtime::RuntimeConfig;
use grain_sim::NetPlan;
use grain_stencil::distributed::DistStencil;
use grain_stencil::{run_futurized, StencilParams};
use std::time::{Duration, Instant};

/// One sweep configuration: world size and partition count at fixed
/// total points.
struct Case {
    world: usize,
    np: usize,
}

/// The chaos-mode network weather for `seed` — one constructor so the
/// header can fingerprint exactly the plan the runs use.
fn chaos_plan(seed: u64) -> NetPlan {
    NetPlan::clean(seed)
        .duplicate(0.2)
        .reorder(0.5, 200_000)
        .latency(10_000, 5_000)
}

fn run_case(total_points: usize, nt: usize, case: &Case, chaos: Option<u64>) {
    let nx = (total_points / case.np).max(1);
    let params = StencilParams::new(nx, case.np, nt);

    let fabric = match chaos {
        // Lossless weather: duplicate + reorder + latency but never
        // destroy a frame, so the oracle equality below still must hold
        // bit-for-bit — dedup and ordering robustness, not availability.
        Some(seed) => Fabric::chaotic(
            case.world,
            chaos_plan(seed),
            |_| NetConfig::default(),
            |_| RuntimeConfig::with_workers(1),
        ),
        None => Fabric::loopback(case.world, |_| RuntimeConfig::with_workers(1)),
    };
    let instances: Vec<DistStencil> = (0..case.world)
        .map(|k| DistStencil::install(fabric.locality(k), params))
        .collect();

    let t0 = Instant::now();
    for inst in &instances {
        inst.start();
    }
    let grid = instances[0].gather().expect("distributed run settled");
    let wall = t0.elapsed();

    // Quiescence: every local block settled before gather returned, and
    // the remaining reply deliveries complete in microseconds; poll the
    // balance briefly so the printed books always agree.
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    let books = || {
        let sent: u64 = (0..case.world)
            .map(|k| fabric.locality(k).parcels().sent.get())
            .sum();
        let received: u64 = (0..case.world)
            .map(|k| fabric.locality(k).parcels().received.get())
            .sum();
        (sent, received)
    };
    let (sent, received) = loop {
        let (sent, received) = books();
        if sent == received || Instant::now() >= deadline {
            break (sent, received);
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    let bytes: u64 = (0..case.world)
        .map(|k| fabric.locality(k).parcels().bytes_sent.get())
        .sum();
    let ser_ns: u64 = (0..case.world)
        .map(|k| fabric.locality(k).parcels().ser_ns.get())
        .sum();
    let ser_samples: u64 = (0..case.world)
        .map(|k| fabric.locality(k).parcels().ser_samples.get())
        .sum();
    let avg_ser = if ser_samples == 0 {
        0.0
    } else {
        ser_ns as f64 / ser_samples as f64
    };

    // Correctness spot check against the single-runtime oracle.
    let rt = Runtime::with_workers(1);
    let oracle = run_futurized(&rt, &params);
    assert_eq!(grid, oracle, "distributed result diverged from oracle");

    println!(
        "L={:<2} np={:<5} nx={:<6} | wall {:>10.3?} | parcels {:>6} (balance {}) | {:>8} B | avg-ser {:>7.0} ns",
        case.world,
        case.np,
        nx,
        wall,
        sent,
        if sent == received { "ok" } else { "MISMATCH" },
        bytes,
        avg_ser,
    );
    assert_eq!(sent, received, "parcel books must balance at quiescence");

    if let Some(net) = fabric.net() {
        assert!(
            net.wait_quiescent(Duration::from_secs(5)),
            "fabric failed to drain"
        );
        let ledger = net.ledger();
        assert!(ledger.conserved(), "parcel ledger leaked: {ledger:?}");
        // The dedup bump lands in the sink handler, which can trail the
        // fabric's own drained-state flip by a beat — poll briefly.
        let deduped_now = || {
            (0..case.world)
                .map(|k| fabric.locality(k).parcels().deduped.get())
                .sum::<u64>()
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while deduped_now() != ledger.duplicated && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let deduped = deduped_now();
        assert_eq!(
            deduped, ledger.duplicated,
            "every manufactured duplicate must be suppressed exactly once"
        );
        println!(
            "        chaos: {} duplicated / {} deduped / {} reordered-delivered, ledger conserved",
            ledger.duplicated, deduped, ledger.delivered,
        );
    }
    fabric.shutdown();
}

fn main() {
    let mut quick = false;
    let mut chaos: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--chaos" => {
                chaos = Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("usage: dist_bench [--quick] [--chaos <seed>]");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("usage: dist_bench [--quick] [--chaos <seed>] (got {other})");
                std::process::exit(2);
            }
        }
    }
    println!("dist_bench: distributed stencil over loopback localities");
    if let Some(seed) = chaos {
        // The seed alone does not pin the weather — the probability and
        // latency knobs matter too. The fingerprint hashes the whole
        // plan: equal fingerprints replayed byte-identical chaos.
        println!(
            "chaos mode: simulated fabric, seed {seed}, netplan {:016x} (dup+reorder, lossless; oracle still exact)",
            chaos_plan(seed).fingerprint()
        );
    }
    println!(
        "host parallelism: {} (see header caveat: locality counts are protocol overhead, not speedup, when this is 1)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let (total_points, nt, cases): (usize, usize, Vec<Case>) = if chaos.is_some() {
        // Chaos stages: multi-locality only (world 1 has no links to
        // perturb), small shapes — this mode checks robustness
        // invariants, not throughput.
        (
            4096,
            10,
            vec![Case { world: 2, np: 16 }, Case { world: 4, np: 16 }],
        )
    } else if quick {
        (
            1024,
            8,
            vec![
                Case { world: 1, np: 8 },
                Case { world: 2, np: 8 },
                Case { world: 4, np: 8 },
            ],
        )
    } else {
        (
            65_536,
            50,
            vec![
                Case { world: 1, np: 16 },
                Case { world: 2, np: 16 },
                Case { world: 4, np: 16 },
                Case { world: 2, np: 64 },
                Case { world: 4, np: 64 },
                Case { world: 4, np: 256 },
            ],
        )
    };
    println!("total points {total_points}, {nt} time steps; result checked against the single-runtime oracle each case");
    println!();
    for case in &cases {
        run_case(total_points, nt, case, chaos);
    }
    println!();
    println!("OK");
}
