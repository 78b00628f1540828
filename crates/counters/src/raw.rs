//! Primitive lock-free counters.
//!
//! Everything the scheduler touches on its hot path lives here: plain
//! monotone event counters and per-worker *sharded* counters whose shards
//! are padded to cache-line size so that two workers bumping "their" shard
//! never false-share.
//!
//! ## The sharded contract: one writer per shard
//!
//! Shard `w` of a [`Sharded`] counter is written by one thread only —
//! worker `w`, or the single thread that drives a whole simulation — so
//! an add is a plain load and store of a cell nobody else writes, not a
//! locked read-modify-write. A thread that is not the shard's worker (an
//! external thread spawning a task, say) adds to the counter's one
//! *shared* cell instead, with a `fetch_add`; the total includes it, no
//! per-worker instance does.
//!
//! A reset never writes an owner's cell, which would race the owner's
//! own store: the owner loads its total, the reset stores zero, the owner
//! stores the old total plus one back, and the reset is undone. Instead
//! the reset records the cell's value as its *base*, and every read
//! subtracts the base. Events the owner counts after the reset read the
//! cell it has just written, so nothing the reset saw can come back.
//!
//! [`RawCounter`] has any number of writers and keeps its `fetch_add`.

use std::sync::atomic::{AtomicU64, Ordering};

/// A value alone on its cache line: 128 bytes is one line on every
/// architecture this project targets, and covers the adjacent-line
/// prefetcher pairs on modern Intel parts.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Padded<T>(T);

/// A single monotonically-increasing event counter.
///
/// All operations use relaxed ordering: counters are statistics, not
/// synchronization. Readers that need a consistent *set* of counters take a
/// [`crate::snapshot::Snapshot`] while the system is quiescent or accept
/// slight skew, exactly as HPX's monitoring system does.
#[derive(Debug, Default)]
pub struct RawCounter {
    value: AtomicU64,
}

impl RawCounter {
    /// New counter starting at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero (monitoring epoch boundary).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A counter cell with exactly one writer (see the module docs): adds
/// are a plain load and store, a reset moves the base reads subtract.
#[derive(Debug, Default)]
pub(crate) struct OwnedCell {
    value: AtomicU64,
    /// `value` as the last reset saw it.
    base: AtomicU64,
}

impl OwnedCell {
    /// Add `n`. Only the cell's one writer may call this.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        let v = self.value.load(Ordering::Relaxed);
        self.value.store(v.wrapping_add(n), Ordering::Relaxed);
    }

    /// Events since the last reset. The base is read first: a reset that
    /// lands between the two loads can only make the read late, and the
    /// saturation covers a value load that is older than the base.
    pub(crate) fn get(&self) -> u64 {
        let base = self.base.load(Ordering::Relaxed);
        self.value.load(Ordering::Relaxed).saturating_sub(base)
    }

    /// Start a new epoch without writing the owner's cell.
    pub(crate) fn reset(&self) {
        self.base
            .store(self.value.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A counter sharded per worker thread.
///
/// Worker `w` adds to shard `w` with a plain load and store and no
/// cross-core traffic; any other thread adds to the shared cell
/// ([`Sharded::add_shared`]). Readers can inspect an individual shard
/// (per-worker counter instances, e.g.
/// `/threads{…/worker-thread#3}/count/pending-accesses`) or the sum over
/// all shards and the shared cell (the `…/total` instance). The module
/// docs state the contract.
#[derive(Debug)]
pub struct Sharded {
    shards: Box<[Padded<OwnedCell>]>,
    shared: Padded<AtomicU64>,
}

impl Sharded {
    /// Create a counter with `workers` shards. `workers` must be nonzero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "Sharded counter needs at least one shard");
        Self {
            shards: (0..workers).map(|_| Padded::default()).collect(),
            shared: Padded::default(),
        }
    }

    /// Number of shards (== number of workers).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Add `n` to worker `w`'s shard. Only worker `w` — or the one thread
    /// that drives every shard, as a simulation does — may call this: a
    /// second writer loses counts.
    #[inline]
    pub fn add(&self, w: usize, n: u64) {
        self.shards[w].0.add(n);
    }

    /// Increment worker `w`'s shard by one (same contract as
    /// [`Sharded::add`]).
    #[inline]
    pub fn incr(&self, w: usize) {
        self.add(w, 1);
    }

    /// Add `n` from a thread that owns no shard: counted in the total,
    /// in no worker's instance.
    pub fn add_shared(&self, n: u64) {
        self.shared.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Value of worker `w`'s shard.
    #[inline]
    pub fn get(&self, w: usize) -> u64 {
        self.shards[w].0.get()
    }

    /// Sum over all shards and the shared cell — the `total` counter
    /// instance.
    pub fn sum(&self) -> u64 {
        self.shards.iter().map(|s| s.0.get()).sum::<u64>() + self.shared.0.load(Ordering::Relaxed)
    }

    /// Start a new epoch: every shard and the shared cell read zero.
    pub fn reset(&self) {
        for s in self.shards.iter() {
            s.0.reset();
        }
        // Any number of writers `fetch_add` here, and a read-modify-write
        // is never undone by a store.
        self.shared.0.store(0, Ordering::Relaxed);
    }

    /// Per-shard values, in worker order.
    pub fn values(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.0.get()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn raw_counter_basics() {
        let c = RawCounter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn padding_is_effective() {
        // Each shard must occupy its own cache line.
        const CACHE_LINE: usize = 128;
        assert!(std::mem::size_of::<Padded<OwnedCell>>() >= CACHE_LINE);
        assert_eq!(std::mem::align_of::<Padded<OwnedCell>>(), CACHE_LINE);
    }

    #[test]
    fn sharded_sum_and_per_worker() {
        let s = Sharded::new(4);
        s.add(0, 10);
        s.add(3, 5);
        s.incr(3);
        s.add_shared(7);
        assert_eq!(s.get(0), 10);
        assert_eq!(s.get(3), 6);
        assert_eq!(s.get(1), 0);
        assert_eq!(s.sum(), 23, "the shared cell is in the total");
        assert_eq!(s.values(), vec![10, 0, 0, 6]);
        s.reset();
        assert_eq!(s.sum(), 0);
    }

    #[test]
    fn a_reset_reads_zero_everywhere_and_counts_on_from_there() {
        let s = Sharded::new(2);
        s.add(0, 5);
        s.add(1, 3);
        s.add_shared(2);
        s.reset();
        assert_eq!((s.get(0), s.get(1), s.sum()), (0, 0, 0));
        assert_eq!(s.values(), vec![0, 0]);
        s.incr(1);
        s.add_shared(1);
        assert_eq!((s.get(0), s.get(1), s.sum()), (0, 1, 2));
        s.reset();
        s.reset();
        assert_eq!(s.sum(), 0, "a second reset is a no-op");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn sharded_rejects_zero_workers() {
        let _ = Sharded::new(0);
    }

    #[test]
    fn sharded_concurrent_increments_are_lossless() {
        let s = Arc::new(Sharded::new(4));
        let mut handles = Vec::new();
        for w in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.incr(w);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.sum(), 40_000);
        for w in 0..4 {
            assert_eq!(s.get(w), 10_000);
        }
    }

    #[test]
    fn the_shared_cell_is_lossless_under_concurrent_writers() {
        let s = Sharded::new(2);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        s.add_shared(1);
                    }
                });
            }
        });
        assert_eq!(s.sum(), 40_000);
        assert_eq!(s.values(), vec![0, 0]);
    }
}
