//! Cross-executor equivalence: one graph description, three execution
//! paths — single runtime, grain-service job, and a 2-locality grain-net
//! world with cross-partition edges traveling as parcels — must produce
//! the *same* checksum, equal to the sequential reference. This is the
//! contract that makes the recorded (graph × grain × comm) surface
//! comparable across executors.

use grain_runtime::Runtime;
use grain_service::{JobService, JobSpec};
use grain_taskbench::{
    all_kinds, run_distributed_loopback, run_local, run_service_job, GraphKind, GraphSpec,
};
use std::sync::Arc;

/// The satellite's pinned case: a seeded random DAG with per-edge
/// payload jitter, identical across all three executors.
#[test]
fn random_dag_checksum_is_identical_across_all_three_executors() {
    let graph = Arc::new(
        GraphSpec::shape(
            GraphKind::RandomDag {
                width: 6,
                steps: 7,
                max_deps: 3,
            },
            0xE9_01,
        )
        .grain(30)
        .payload(128)
        .build(),
    );
    let want = graph.checksum_reference();

    let rt = Runtime::with_workers(2);
    assert_eq!(run_local(&rt, &graph).expect("local"), want, "local");

    let service = JobService::with_workers(2);
    let via_job = run_service_job(&service, JobSpec::new("eq-dag", "test"), &graph)
        .expect("service job completes");
    assert_eq!(via_job, want, "service");

    let dist = run_distributed_loopback(2, 1, &graph).expect("distributed");
    assert_eq!(dist, want, "2-locality");
}

/// Every family agrees across executors, with the distributed world
/// sized so each graph actually splits across localities.
#[test]
fn every_family_agrees_across_executors() {
    let service = JobService::with_workers(2);
    let rt = Runtime::with_workers(2);
    for kind in all_kinds(36) {
        let graph = Arc::new(
            GraphSpec::shape(kind, 0xFA_77)
                .grain(15)
                .payload(48)
                .build(),
        );
        let want = graph.checksum_reference();
        let name = kind.name();

        assert_eq!(
            run_local(&rt, &graph).expect("local"),
            want,
            "{name}: local"
        );
        let via_job = run_service_job(&service, JobSpec::new(name, "test"), &graph)
            .expect("service job completes");
        assert_eq!(via_job, want, "{name}: service");
        let dist = run_distributed_loopback(2, 1, &graph).expect("distributed");
        assert_eq!(dist, want, "{name}: 2-locality");
    }
}

/// The checksum of this fixed spec is pinned to a constant, so every
/// build must produce the exact same bits — in a different process, on a
/// different day.
#[test]
fn pinned_golden_checksum() {
    const GOLDEN: u64 = 0x2FF4_1252_9F64_BCE0;
    let graph = Arc::new(
        GraphSpec::shape(
            GraphKind::RandomDag {
                width: 5,
                steps: 6,
                max_deps: 2,
            },
            0x5EED_CAFE,
        )
        .grain(25)
        .payload(96)
        .build(),
    );
    assert_eq!(
        graph.checksum_reference(),
        GOLDEN,
        "sequential reference drifted from the pinned golden"
    );
    let rt = Runtime::with_workers(2);
    assert_eq!(
        run_local(&rt, &graph).expect("local"),
        GOLDEN,
        "runtime executor drifted from the pinned golden"
    );
    assert_eq!(
        run_distributed_loopback(2, 1, &graph).expect("distributed"),
        GOLDEN,
        "parcel path drifted from the pinned golden"
    );
}

/// Seed sensitivity survives execution: two seeds give two different
/// checksums on every executor (so the equivalence tests above cannot
/// pass vacuously via a constant).
#[test]
fn different_seeds_give_different_checksums_on_every_executor() {
    let rt = Runtime::with_workers(2);
    let mk = |seed| {
        Arc::new(
            GraphSpec::shape(GraphKind::Stencil1d { width: 4, steps: 4 }, seed)
                .grain(10)
                .payload(16)
                .build(),
        )
    };
    let a = mk(1);
    let b = mk(2);
    let ka = run_local(&rt, &a).expect("a");
    let kb = run_local(&rt, &b).expect("b");
    assert_ne!(ka, kb, "seed must flow into the computed values");
    assert_eq!(
        run_distributed_loopback(2, 1, &a).expect("dist a"),
        ka,
        "distributed must track the seed too"
    );
}
