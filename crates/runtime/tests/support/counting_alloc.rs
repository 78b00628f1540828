//! A global allocator that counts heap allocations, by every thread of
//! the process, for the allocation budget tests. Each of them includes
//! this one file by path:
//!
//! ```ignore
//! #[path = "../../runtime/tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! A reallocation counts as one more allocation.

use grain_counters::sync::{AtomicU64, Ordering};
use std::alloc::{GlobalAlloc, Layout, System};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations and reallocations so far, by every thread.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

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
