//! Lock-free MPMC FIFOs for every scheduler queue.
//!
//! [`SegmentedQueue`] is a std-only *segmented* lock-free FIFO in the mould of
//! crossbeam's `SegQueue` (the queue the seed originally used, re-derived
//! here because tier-1 builds are hermetic): storage is a linked list of
//! fixed-size **segments** of [`BLOCK_CAP`] slots each; the global
//! `head`/`tail` cursors are single atomic **indices** advanced by CAS,
//! and each slot carries a small atomic **state word** that sequences the
//! hand-off between the index CAS and the actual value write/read.
//!
//! ## Protocol (per operation)
//!
//! * `push`: claim the next tail index with a CAS, then write the value
//!   into the claimed slot and set its `WRITE` bit (`Release`). A
//!   producer that claims the last slot of a segment also installs the
//!   next segment (pre-allocated *before* the CAS so the install is
//!   wait-free for everyone else).
//! * `pop`: claim the head index with a CAS (after an emptiness check
//!   against the tail), spin until the slot's `WRITE` bit shows the value
//!   is present, read it, and mark the slot `READ`. The consumer of a
//!   segment's last slot frees the segment — cooperating through per-slot
//!   `DESTROY` bits with any consumer still inside it, so reclamation
//!   needs no epochs or hazard pointers.
//! * The index layout reserves one index per lap ([`LAP`]` = BLOCK_CAP +
//!   1`) as the end-of-segment marker, and bit 0 of the head index
//!   (`HAS_NEXT`) caches "a next segment exists", letting `pop` skip the
//!   tail load on the fast path.
//!
//! Emptiness probes — the common case while searching (the high-priority
//! queue on every search, Fig. 1 steps 3–6 on every failed one) — cost
//! two atomic loads and no stores: the scheduler looks at `is_empty`, two
//! `Relaxed` loads, before it calls `pop`, whose emptiness check issues a
//! `SeqCst` fence. `len`/`is_empty` are racy snapshots, as every caller
//! tolerates (the worker loop re-probes; why a stale miss loses nothing
//! is in DESIGN.md §4).
//!
//! Contention is observable: every lost head/tail CAS and every segment
//! allocation is counted in a [`QueueStats`] (shared across a whole
//! [`crate::scheduler::QueueSet`] and surfaced as the
//! `/threads{locality#0/total}/queue/*` counters).
//!
//! The scheduler consumes the queue through the [`MpmcQueue`] alias.

use grain_counters::sync::{fence, AtomicPtr, AtomicUsize, Ordering};
use grain_counters::RawCounter;
use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::Arc;

/// Contention statistics for a family of queues.
///
/// One instance is shared by every queue of a [`crate::scheduler::QueueSet`]
/// so the runtime can expose scheduler-wide contention as two counters:
/// `/threads{…/total}/queue/cas-retries` and `…/queue/segment-allocations`.
#[derive(Debug, Default)]
pub struct QueueStats {
    /// Head/tail CAS attempts that lost a race and had to retry.
    pub cas_retries: Arc<RawCounter>,
    /// Segments allocated (each queue's initial segment plus every
    /// segment installed as a queue grew past a [`BLOCK_CAP`] boundary).
    pub segment_allocs: Arc<RawCounter>,
}

/// The queue type every scheduler queue is built from.
pub type MpmcQueue<T> = SegmentedQueue<T>;

/// Slots per segment. One index per lap is reserved as the end-of-segment
/// marker, so a lap spans `BLOCK_CAP + 1` indices.
pub const BLOCK_CAP: usize = 31;
/// Indices per segment lap (must be a power of two: the offset within a
/// lap is taken by mask).
const LAP: usize = BLOCK_CAP + 1;
/// The head/tail indices advance in units of `1 << SHIFT`; bit 0 of the
/// head index is the `HAS_NEXT` flag.
const SHIFT: usize = 1;
/// Head-index bit: the head segment has a successor (lets `pop` skip
/// loading the tail).
const HAS_NEXT: usize = 1;

/// Slot state bit: the producer has finished writing the value.
const WRITE: usize = 1;
/// Slot state bit: the consumer has finished reading the value.
const READ: usize = 2;
/// Slot state bit: the segment destroyer found this slot still in use and
/// delegates destruction to its reader.
const DESTROY: usize = 4;

/// Bounded exponential backoff: spin first, yield the OS thread once the
/// contention persists (essential on oversubscribed hosts, where the slot
/// writer we wait for may not even be scheduled).
struct Backoff {
    step: u32,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 6;

    fn new() -> Self {
        Self { step: 0 }
    }

    /// Back off after a lost CAS (caller retries immediately after).
    fn spin(&mut self) {
        for _ in 0..1u32 << self.step.min(Self::SPIN_LIMIT) {
            std::hint::spin_loop();
        }
        if self.step <= Self::SPIN_LIMIT {
            self.step += 1;
        }
    }

    /// Back off while blocked on another thread's progress (a producer
    /// mid-write or mid-install): escalate to `yield_now`.
    fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

/// One value cell: the value storage plus the state word sequencing the
/// producer/consumer hand-off for this slot.
struct Slot<T> {
    value: UnsafeCell<MaybeUninit<T>>,
    state: AtomicUsize,
}

impl<T> Slot<T> {
    /// Spin until the producer that claimed this slot has stored the
    /// value (set the `WRITE` bit).
    fn wait_write(&self) {
        let mut backoff = Backoff::new();
        while self.state.load(Ordering::Acquire) & WRITE == 0 {
            backoff.snooze();
        }
    }
}

/// A fixed-size segment of the queue.
struct Block<T> {
    next: AtomicPtr<Block<T>>,
    slots: [Slot<T>; BLOCK_CAP],
}

impl<T> Block<T> {
    fn new() -> Box<Self> {
        Box::new(Self {
            next: AtomicPtr::new(std::ptr::null_mut()),
            slots: std::array::from_fn(|_| Slot {
                value: UnsafeCell::new(MaybeUninit::uninit()),
                state: AtomicUsize::new(0),
            }),
        })
    }

    /// Spin until the producer that claimed the last slot of this block
    /// has installed the successor block.
    fn wait_next(&self) -> *mut Block<T> {
        let mut backoff = Backoff::new();
        loop {
            let next = self.next.load(Ordering::Acquire);
            if !next.is_null() {
                return next;
            }
            backoff.snooze();
        }
    }

    /// Cooperative reclamation: called by the consumer of the block's
    /// last slot (with `start = 0`) or by a reader that found the
    /// `DESTROY` bit set on its slot (with `start` = its successor).
    /// Whoever encounters a slot whose reader is still inside it marks it
    /// `DESTROY` and hands responsibility to that reader; otherwise the
    /// block is freed here.
    ///
    /// # Safety
    /// `this` must have been fully consumed: the head index has moved
    /// past the block, so no new reader can enter it.
    unsafe fn destroy(this: *mut Block<T>, start: usize) {
        // The last slot's reader is the one calling with start == 0, so
        // it never needs a DESTROY mark.
        for i in start..BLOCK_CAP - 1 {
            let slot = unsafe { (*this).slots.get_unchecked(i) };
            if slot.state.load(Ordering::Acquire) & READ == 0
                && slot.state.fetch_or(DESTROY, Ordering::AcqRel) & READ == 0
            {
                // A reader is still inside this slot; it sees DESTROY
                // when it finishes and continues the destruction.
                return;
            }
        }
        drop(unsafe { Box::from_raw(this) });
    }
}

/// A queue cursor: an index (slot sequence number, shifted by [`SHIFT`])
/// and the segment it currently points into. Padded so head and tail
/// never share a cache line.
#[repr(align(128))]
struct Position<T> {
    index: AtomicUsize,
    block: AtomicPtr<Block<T>>,
}

/// Unbounded lock-free multi-producer multi-consumer FIFO.
///
/// See the module docs for the protocol. `push` and `pop` are lock-free;
/// `len`/`is_empty` are wait-free racy snapshots.
pub struct SegmentedQueue<T> {
    head: Position<T>,
    tail: Position<T>,
    stats: Arc<QueueStats>,
}

// SAFETY: values are moved in by `push` and out by `pop` with the slot
// state word ordering the hand-off (WRITE released by the producer,
// acquired by the consumer), so a `T` is only ever touched by one thread
// at a time. `T: Send` is therefore sufficient for both auto traits.
unsafe impl<T: Send> Send for SegmentedQueue<T> {}
unsafe impl<T: Send> Sync for SegmentedQueue<T> {}

impl<T> Default for SegmentedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SegmentedQueue<T> {
    /// Empty queue with private stats.
    pub fn new() -> Self {
        Self::with_stats(Arc::new(QueueStats::default()))
    }

    /// Empty queue recording contention into a shared [`QueueStats`].
    pub fn with_stats(stats: Arc<QueueStats>) -> Self {
        // The first segment is allocated eagerly: it removes the
        // null-block branch from the push hot path, and scheduler queues
        // all see traffic anyway.
        let first = Box::into_raw(Block::new());
        stats.segment_allocs.incr();
        Self {
            head: Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(first),
            },
            tail: Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(first),
            },
            stats,
        }
    }

    /// The stats sink this queue records into.
    pub fn stats(&self) -> &Arc<QueueStats> {
        &self.stats
    }

    /// Enqueue at the back.
    pub fn push(&self, value: T) {
        let mut backoff = Backoff::new();
        let mut tail = self.tail.index.load(Ordering::Acquire);
        let mut block = self.tail.block.load(Ordering::Acquire);
        let mut next_block: Option<Box<Block<T>>> = None;
        loop {
            let offset = (tail >> SHIFT) % LAP;
            if offset == BLOCK_CAP {
                // Another producer claimed the last slot and is installing
                // the next segment; wait for the new tail.
                backoff.snooze();
                tail = self.tail.index.load(Ordering::Acquire);
                block = self.tail.block.load(Ordering::Acquire);
                continue;
            }
            // About to claim the last slot: pre-allocate the successor so
            // installing it after the CAS is just two stores.
            if offset + 1 == BLOCK_CAP && next_block.is_none() {
                next_block = Some(Block::new());
            }
            let new_tail = tail + (1 << SHIFT);
            match self.tail.index.compare_exchange_weak(
                tail,
                new_tail,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                Ok(_) => unsafe {
                    if offset + 1 == BLOCK_CAP {
                        // We claimed the segment's last slot: install the
                        // pre-allocated successor and advance the tail
                        // index over the end-of-segment marker.
                        let Some(next) = next_block.take() else {
                            unreachable!("successor pre-allocated above")
                        };
                        let next = Box::into_raw(next);
                        self.stats.segment_allocs.incr();
                        let next_index = new_tail.wrapping_add(1 << SHIFT);
                        self.tail.block.store(next, Ordering::Release);
                        self.tail.index.store(next_index, Ordering::Release);
                        (*block).next.store(next, Ordering::Release);
                    }
                    let slot = (*block).slots.get_unchecked(offset);
                    slot.value.get().write(MaybeUninit::new(value));
                    slot.state.fetch_or(WRITE, Ordering::Release);
                    return;
                },
                Err(t) => {
                    self.stats.cas_retries.incr();
                    tail = t;
                    block = self.tail.block.load(Ordering::Acquire);
                    backoff.spin();
                }
            }
        }
    }

    /// Dequeue from the front.
    pub fn pop(&self) -> Option<T> {
        let mut backoff = Backoff::new();
        let mut head = self.head.index.load(Ordering::Acquire);
        let mut block = self.head.block.load(Ordering::Acquire);
        loop {
            let offset = (head >> SHIFT) % LAP;
            if offset == BLOCK_CAP {
                // The consumer of the last slot is moving the head to the
                // next segment; wait for the new head.
                backoff.snooze();
                head = self.head.index.load(Ordering::Acquire);
                block = self.head.block.load(Ordering::Acquire);
                continue;
            }
            let mut new_head = head + (1 << SHIFT);
            if new_head & HAS_NEXT == 0 {
                // The cached flag says this may be the last segment:
                // consult the tail for emptiness, and re-derive the flag.
                fence(Ordering::SeqCst);
                let tail = self.tail.index.load(Ordering::Relaxed);
                if head >> SHIFT == tail >> SHIFT {
                    return None;
                }
                if (head >> SHIFT) / LAP != (tail >> SHIFT) / LAP {
                    new_head |= HAS_NEXT;
                }
            }
            match self.head.index.compare_exchange_weak(
                head,
                new_head,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                Ok(_) => unsafe {
                    if offset + 1 == BLOCK_CAP {
                        // We claimed the segment's last slot: advance the
                        // head to the successor (installed by the producer
                        // of that slot's value — may still be in flight).
                        let next = (*block).wait_next();
                        let mut next_index = (new_head & !HAS_NEXT).wrapping_add(1 << SHIFT);
                        if !(*next).next.load(Ordering::Relaxed).is_null() {
                            next_index |= HAS_NEXT;
                        }
                        self.head.block.store(next, Ordering::Release);
                        self.head.index.store(next_index, Ordering::Release);
                    }
                    let slot = (*block).slots.get_unchecked(offset);
                    slot.wait_write();
                    let value = slot.value.get().read().assume_init();
                    if offset + 1 == BLOCK_CAP {
                        // Last slot consumed: start destroying the block.
                        Block::destroy(block, 0);
                    } else if slot.state.fetch_or(READ, Ordering::AcqRel) & DESTROY != 0 {
                        // The block destroyer passed us the baton.
                        Block::destroy(block, offset + 1);
                    }
                    return Some(value);
                },
                Err(h) => {
                    self.stats.cas_retries.incr();
                    head = h;
                    block = self.head.block.load(Ordering::Acquire);
                    backoff.spin();
                }
            }
        }
    }

    /// Number of queued items (racy, for load introspection).
    pub fn len(&self) -> usize {
        loop {
            // A consistent (tail, head) pair: re-read the tail to make
            // sure it did not move while we read the head.
            let mut tail = self.tail.index.load(Ordering::SeqCst);
            let mut head = self.head.index.load(Ordering::SeqCst);
            if self.tail.index.load(Ordering::SeqCst) == tail {
                // Strip the HAS_NEXT bit, then count in slot units,
                // discounting one end-of-segment marker index per lap.
                tail &= !((1 << SHIFT) - 1);
                head &= !((1 << SHIFT) - 1);
                if (tail >> SHIFT) & (LAP - 1) == LAP - 1 {
                    tail = tail.wrapping_add(1 << SHIFT);
                }
                if (head >> SHIFT) & (LAP - 1) == LAP - 1 {
                    head = head.wrapping_add(1 << SHIFT);
                }
                let lap = (head >> SHIFT) / LAP;
                tail = tail.wrapping_sub((lap * LAP) << SHIFT);
                head = head.wrapping_sub((lap * LAP) << SHIFT);
                tail >>= SHIFT;
                head >>= SHIFT;
                return tail - head - tail / LAP;
            }
        }
    }

    /// True when the queue is (momentarily) empty: two `Relaxed` loads,
    /// no fence. The snapshot may predate a push another thread has just
    /// made; a caller that must not miss one pairs the probe with a
    /// wake-up protocol, as the scheduler does.
    pub fn is_empty(&self) -> bool {
        let head = self.head.index.load(Ordering::Relaxed);
        let tail = self.tail.index.load(Ordering::Relaxed);
        head >> SHIFT == tail >> SHIFT
    }
}

impl<T> Drop for SegmentedQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: walk the remaining items, dropping each value
        // and freeing each exhausted segment.
        let mut head = *self.head.index.get_mut();
        let mut tail = *self.tail.index.get_mut();
        let mut block = *self.head.block.get_mut();
        head &= !((1 << SHIFT) - 1);
        tail &= !((1 << SHIFT) - 1);
        unsafe {
            while head != tail {
                let offset = (head >> SHIFT) % LAP;
                if offset < BLOCK_CAP {
                    let slot = (*block).slots.get_unchecked(offset);
                    (*slot.value.get()).assume_init_drop();
                } else {
                    let next = *(*block).next.get_mut();
                    drop(Box::from_raw(block));
                    block = next;
                }
                head = head.wrapping_add(1 << SHIFT);
            }
            if !block.is_null() {
                drop(Box::from_raw(block));
            }
        }
    }
}

impl<T> fmt::Debug for SegmentedQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentedQueue")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = SegmentedQueue::new();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_order_across_many_segments() {
        // Push/pop far past several BLOCK_CAP boundaries, interleaved
        // and in bulk, so segment install/advance/destroy all run.
        let q = SegmentedQueue::new();
        for i in 0..10 * BLOCK_CAP {
            q.push(i);
        }
        assert_eq!(q.len(), 10 * BLOCK_CAP);
        for i in 0..10 * BLOCK_CAP {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
        // Interleaved, with a standing population of ~1.5 segments.
        let keep = BLOCK_CAP + BLOCK_CAP / 2;
        for i in 0..keep {
            q.push(i);
        }
        for i in 0..20 * BLOCK_CAP {
            q.push(keep + i);
            assert_eq!(q.pop(), Some(i));
            assert_eq!(q.len(), keep);
        }
    }

    #[test]
    fn len_is_exact_when_quiescent() {
        let q = SegmentedQueue::new();
        for n in 0..4 * BLOCK_CAP {
            assert_eq!(q.len(), n);
            assert_eq!(q.is_empty(), n == 0);
            q.push(n);
        }
        for n in (0..4 * BLOCK_CAP).rev() {
            q.pop().unwrap();
            assert_eq!(q.len(), n);
        }
    }

    #[test]
    fn drop_releases_queued_values() {
        // Values spanning multiple segments are dropped with the queue.
        let live = Arc::new(AtomicUsize::new(0));
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let q = SegmentedQueue::new();
        for _ in 0..3 * BLOCK_CAP + 7 {
            live.fetch_add(1, Ordering::SeqCst);
            q.push(Tracked(Arc::clone(&live)));
        }
        for _ in 0..BLOCK_CAP {
            drop(q.pop().unwrap());
        }
        drop(q);
        assert_eq!(live.load(Ordering::SeqCst), 0, "queued values leaked");
    }

    #[test]
    fn stats_record_segment_allocations() {
        let q = SegmentedQueue::new();
        let initial = q.stats().segment_allocs.get();
        assert_eq!(initial, 1, "eager first segment");
        for i in 0..2 * BLOCK_CAP {
            q.push(i);
        }
        assert!(q.stats().segment_allocs.get() >= 3);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(SegmentedQueue::new());
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                grain_counters::sync::spawn("producer", move || {
                    for i in 0..1000 {
                        q.push(p * 1000 + i);
                    }
                })
                .unwrap()
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                grain_counters::sync::spawn("consumer", move || {
                    let mut got = Vec::new();
                    while got.len() < 1000 {
                        if let Some(v) = q.pop() {
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                })
                .unwrap()
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "every pushed item popped exactly once");
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // Single producer, single consumer: strict FIFO.
        let q = Arc::new(SegmentedQueue::new());
        let q2 = Arc::clone(&q);
        let t = grain_counters::sync::spawn("consumer", move || {
            for i in 0..10_000u32 {
                q2.push(i);
            }
        })
        .unwrap();
        let mut last = None;
        let mut seen = 0;
        while seen < 10_000 {
            if let Some(v) = q.pop() {
                if let Some(prev) = last {
                    assert!(v > prev, "FIFO violated: {v} after {prev}");
                }
                last = Some(v);
                seen += 1;
            }
        }
        t.join().unwrap();
    }
}
