//! Allocation budget of a parcel, counted — not timed — so it reads the
//! same on any host: heap allocations per parcel of a request/response
//! round trip between two loopback localities, by every thread of the
//! process, under a counting global allocator.
//!
//! This is what `perf`'s `net.allocs_per_parcel` measures. The budget is
//! today's count; ROADMAP item 4(d) ratchets it down to 4. Deleting the
//! per-link buffer pool did not raise it — loopback hands every frame
//! buffer to the peer, so that pool was never refilled.

use grain_net::bootstrap::Fabric;
use grain_runtime::RuntimeConfig;
use std::time::Duration;

#[path = "../../runtime/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

/// `calls` sequential echo round trips from locality 0 to locality 1.
fn echo_round_trips(world: &Fabric, calls: u64) {
    for i in 0..calls {
        let reply = world.locality(0).async_remote::<u64, u64>(1, "echo", &i);
        let reply = reply.wait_timeout(Duration::from_secs(10));
        assert!(reply.is_ok_and(|v| *v == i), "echo {i} came back wrong");
    }
}

/// One test, so nothing else in this process allocates while it counts.
#[test]
fn a_loopback_parcel_stays_within_its_allocation_budget() {
    let world = Fabric::loopback(2, |_| RuntimeConfig::with_workers(1));
    world.locality(1).register_action("echo", |x: u64| x);
    // Queue segments, the writers' batches and lazy statics come first.
    echo_round_trips(&world, 200);

    const CALLS: u64 = 2_000;
    let before = allocations();
    echo_round_trips(&world, CALLS);
    let per_parcel = (allocations() - before) as f64 / (2 * CALLS) as f64;
    // One Call and one Reply per round trip, 21 allocations between
    // them (arguments and frame encoded apart, the frame decoded into
    // owned parts, a task or a boxed continuation per dispatch); what
    // the monitor and the queues add is amortized to hundredths.
    assert!(
        per_parcel <= 10.6,
        "{per_parcel:.2} allocations per loopback parcel"
    );
    eprintln!("allocations: {per_parcel:.2} per loopback parcel");
    world.shutdown();
}
