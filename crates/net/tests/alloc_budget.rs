//! Allocation budget of a parcel, counted — not timed — so it reads the
//! same on any host: heap allocations per parcel of a request/response
//! round trip between two loopback localities, by every thread of the
//! process, under a counting global allocator.
//!
//! This is what `perf`'s `net.allocs_per_parcel` measures. The budget is
//! today's count; ROADMAP item 1(b) ratchets it down to 4. Deleting the
//! per-link buffer pool did not raise it — loopback hands every frame
//! buffer to the peer, so that pool was never refilled.

use grain_net::bootstrap::Fabric;
use grain_runtime::RuntimeConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state and
// cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
    let before = ALLOCS.load(Ordering::Relaxed);
    echo_round_trips(&world, CALLS);
    let per_parcel = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / (2 * CALLS) as f64;
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
