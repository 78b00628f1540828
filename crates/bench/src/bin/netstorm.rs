//! `netstorm` — a distributed taskbench storm over a chaotic simulated
//! network, replayed twice to prove the chaos is deterministic.
//!
//! Two stages, both over [`grain_net::bootstrap::Fabric::chaotic`]
//! (3 localities through a seeded [`grain_sim::NetFabric`]):
//!
//! 1. **weather** — storm-planned taskbench jobs under duplication +
//!    reordering (lossless): every checksum must equal the single-runtime
//!    reference, every manufactured duplicate must be suppressed.
//! 2. **loss** — the same storm under 10% frame loss with call
//!    deadlines: no future hangs, exactly-once settlement is *counted*
//!    (`calls/issued == calls/settled` on every locality), and the
//!    fabric's parcel ledger conserves.
//!
//! Partition/heal and kill-under-partition are the tier-1 tests in
//! `crates/net/tests/chaos.rs`.
//!
//! The whole storm runs **twice from the same seed** and the two report
//! strings are compared byte-for-byte. Frame fates are a pure function
//! of `(seed, src, dst, frame identity)` — not thread timing — so the
//! replay must be bit-identical; any divergence is a determinism bug and
//! the binary exits non-zero; `scripts/verify.sh` then diffs stdout
//! against `results/netstorm.txt`. A watchdog thread kills the process
//! if any stage hangs: a chaos harness that can hang cannot certify "no
//! hangs".
//!
//! Flags: `--quick` (smaller storm, used by `scripts/verify.sh`),
//! `--seed <n>` (default 42).

use grain_bench::{eventually, WATCHDOG_POLL};
use grain_net::bootstrap::Fabric;
use grain_net::locality::NetConfig;
use grain_runtime::{RuntimeConfig, TaskError};
use grain_sim::storm::{GraphFamily, StormPlan, TenantStorm};
use grain_sim::{LedgerSnapshot, NetPlan};
use grain_taskbench::exec_net::DistTaskBench;
use grain_taskbench::storm::spec_for_event;
use grain_taskbench::TaskGraph;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORLD: usize = 3;

/// Exactly-once, counted: issued == settled on every locality.
fn settled_exactly_once(fabric: &Fabric) -> bool {
    eventually(|| {
        (0..fabric.world()).all(|k| {
            let p = fabric.locality(k).parcels();
            p.calls_issued.get() == p.calls_settled.get()
        })
    })
}

/// Wait for the fabric to drain *and hold still*. A quiescence check
/// alone is not enough for replayable counter reads: a producer may send
/// a deferred edge reply after its consumer already settled by deadline,
/// so frames can still be injected after a drain is observed. The final
/// frame population is seed-deterministic — only the instant it is
/// reached varies — so require the ledger (and the senders' books) to be
/// identical across a settle window before trusting the snapshot.
fn stable_ledger(fabric: &Fabric) -> LedgerSnapshot {
    let net = fabric.net().expect("chaotic world");
    assert!(net.wait_quiescent(WATCHDOG_POLL), "fabric failed to drain");
    let snapshot = || {
        let ledger = net.ledger();
        let sent: u64 = (0..fabric.world())
            .map(|k| fabric.locality(k).parcels().sent.get())
            .sum();
        let fingerprint = format!("{ledger:?}/{sent}");
        (ledger, fingerprint)
    };
    let deadline = Instant::now() + WATCHDOG_POLL;
    let (_, mut last) = snapshot();
    loop {
        #[allow(
            clippy::disallowed_methods,
            reason = "the settle window is the wait itself: a ledger that reads the same 25 ms apart"
        )]
        std::thread::sleep(Duration::from_millis(25));
        let (ledger, fingerprint) = snapshot();
        if ledger.in_flight == 0 && ledger.held == 0 && fingerprint == last {
            return ledger;
        }
        assert!(
            Instant::now() < deadline,
            "ledger never settled: {ledger:?}"
        );
        last = fingerprint;
    }
}

/// The storm's job list: three tenants with distinct graph families.
/// Tenant streams and the network's verdict streams live in disjoint
/// regions of the shared Pcg32 stream space (see `grain_sim::netplan`),
/// so the same `seed` may drive both without correlation.
fn storm_events(seed: u64, horizon: Duration) -> StormPlan {
    let tenants = vec![
        TenantStorm::steady(
            "dag",
            Duration::from_millis(60),
            (8, 24),
            (Duration::from_micros(20), Duration::from_micros(80)),
        )
        .family(GraphFamily::RandomDag),
        TenantStorm::steady(
            "tree",
            Duration::from_millis(90),
            (8, 24),
            (Duration::from_micros(20), Duration::from_micros(80)),
        )
        .family(GraphFamily::Tree),
        TenantStorm::steady(
            "halo",
            Duration::from_millis(120),
            (8, 24),
            (Duration::from_micros(20), Duration::from_micros(80)),
        )
        .family(GraphFamily::Stencil),
    ];
    StormPlan::generate(seed, horizon, &tenants)
}

/// Expand one storm event into a distributed taskbench graph.
fn graph_of(
    seed: u64,
    idx: usize,
    family: GraphFamily,
    tasks: u64,
    grain: Duration,
) -> Arc<TaskGraph> {
    // Clamp so every locality owns at least one node, cap the busy-work
    // so chaos (not compute) dominates the run.
    let tasks = tasks.max(6);
    let iters = (grain.as_micros() as u64).clamp(1, 100);
    let spec = spec_for_event(family, tasks, iters, 64, seed ^ (idx as u64) << 8)
        .expect("storm tenants use non-flat families");
    Arc::new(spec.build())
}

/// Run one storm-planned job over a chaotic world; returns the collected
/// checksum result and drops the world.
fn run_job(
    graph: &Arc<TaskGraph>,
    plan: NetPlan,
    net_cfg: NetConfig,
    report: &mut String,
    label: &str,
    lossless: bool,
) {
    let fabric = Fabric::chaotic(
        WORLD,
        plan,
        |_| net_cfg.clone(),
        |_| RuntimeConfig::with_workers(1),
    );
    let instances: Vec<DistTaskBench> = (0..WORLD)
        .map(|k| DistTaskBench::install(fabric.locality(k), Arc::clone(graph)))
        .collect();
    for inst in &instances {
        inst.start();
    }

    if lossless {
        // No frame is ever destroyed: the distributed checksum must equal
        // the single-runtime reference despite duplication + reordering.
        let sum = instances[0].collect().expect("lossless storm job settles");
        assert_eq!(
            sum,
            graph.checksum_reference(),
            "checksum diverged under dup+reorder"
        );
        let _ = writeln!(report, "{label} sum=0x{sum:016x} ref=ok");
    } else {
        // Lossy: blocks whose edges were destroyed settle as errors by
        // deadline. Which blocks survive is seed-deterministic; error
        // *values* carry wall-clock durations, so only aggregate.
        let outcomes: Vec<Result<u64, TaskError>> =
            instances.iter().map(|i| i.local_partial()).collect();
        let ok: Vec<u64> = outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok().copied())
            .collect();
        let folded = ok.iter().fold(0u64, |a, v| a.wrapping_add(*v));
        let _ = writeln!(
            report,
            "{label} partials_ok={}/{WORLD} folded=0x{folded:016x}",
            ok.len()
        );
    }

    assert!(
        settled_exactly_once(&fabric),
        "issued != settled: hang or double-settle"
    );
    let ledger = stable_ledger(&fabric);
    assert!(ledger.conserved(), "parcel ledger leaked: {ledger:?}");
    let sent: u64 = (0..WORLD)
        .map(|k| fabric.locality(k).parcels().sent.get())
        .sum();
    let dropped: u64 = (0..WORLD)
        .map(|k| fabric.locality(k).parcels().dropped.get())
        .sum();
    let _ = writeln!(
        report,
        "{label} ledger injected={} duplicated={} delivered={} dropped={} conserved={} sent={sent} sender_dropped={dropped} exactly_once=true",
        ledger.injected,
        ledger.duplicated,
        ledger.delivered,
        ledger.dropped_chaos,
        ledger.conserved(),
    );
    if lossless {
        // Dedup bookkeeping is race-free when nothing is lost: every
        // manufactured duplicate is suppressed somewhere, exactly once.
        let deduped: u64 = (0..WORLD)
            .map(|k| fabric.locality(k).parcels().deduped.get())
            .sum();
        let received: u64 = (0..WORLD)
            .map(|k| fabric.locality(k).parcels().received.get())
            .sum();
        assert_eq!(deduped, ledger.duplicated, "every duplicate suppressed");
        assert_eq!(sent, received, "clean books after dedup");
        let _ = writeln!(report, "{label} deduped={deduped} received={received}");
    }
    fabric.shutdown();
}

/// Stages 1+2: the storm itself.
fn run_storm_stages(seed: u64, quick: bool, report: &mut String) {
    let horizon = Duration::from_millis(if quick { 300 } else { 600 });
    let plan = storm_events(seed, horizon);
    let take = if quick { 2 } else { 4 };
    let _ = writeln!(
        report,
        "storm seed={seed} horizon={}ms events={} (running {} per stage)",
        horizon.as_millis(),
        plan.events.len(),
        take
    );

    for (idx, e) in plan.events.iter().take(take).enumerate() {
        let graph = graph_of(seed, idx, e.family, e.tasks, e.grain);
        let label = format!(
            "stage1[{idx}] job={} family={} nodes={}",
            e.name,
            e.family.name(),
            graph.len()
        );
        run_job(
            &graph,
            NetPlan::clean(seed ^ 0xA1)
                .duplicate(0.25)
                .reorder(0.5, 200_000)
                .latency(10_000, 5_000),
            NetConfig::default(),
            report,
            &label,
            true,
        );
    }

    let deadline = Duration::from_millis(if quick { 250 } else { 400 });
    for (idx, e) in plan.events.iter().skip(take).take(take).enumerate() {
        let graph = graph_of(seed, idx + take, e.family, e.tasks, e.grain);
        let label = format!(
            "stage2[{idx}] job={} family={} nodes={}",
            e.name,
            e.family.name(),
            graph.len()
        );
        run_job(
            &graph,
            NetPlan::clean(seed ^ 0xB2)
                .drop(0.10)
                .duplicate(0.15)
                .reorder(0.5, 200_000)
                .latency(10_000, 5_000),
            NetConfig {
                call_deadline: Some(deadline),
                ..NetConfig::default()
            },
            report,
            &label,
            false,
        );
    }
}

/// One complete storm run; the returned string is the replay unit.
fn run_once(seed: u64, quick: bool) -> String {
    let mut report = String::new();
    run_storm_stages(seed, quick, &mut report);
    report
}

fn main() {
    grain_bench::replay_main(
        "netstorm",
        "distributed taskbench storm over a chaotic simulated network",
        "stages serialize but all invariants still hold",
        run_once,
    );
}
