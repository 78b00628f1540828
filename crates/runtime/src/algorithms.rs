//! Parallel algorithms with an explicit grain-size knob.
//!
//! The stencil controls granularity through its partition size; these
//! helpers expose the same knob for arbitrary index-space loops — the
//! shape HPX gives to `hpx::for_each` with a static chunk size. They are
//! what the adaptive layer would re-chunk, and they make the
//! overhead-vs-granularity trade-off measurable on any workload:
//!
//! ```
//! use grain_runtime::{algorithms, Runtime};
//! use grain_counters::sync::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let rt = Runtime::with_workers(2);
//! let hits = Arc::new(AtomicU64::new(0));
//! let h = Arc::clone(&hits);
//! algorithms::parallel_for(&rt, 0..1000, 64, move |i| {
//!     h.fetch_add(i as u64, Ordering::Relaxed);
//! })
//! .get();
//! assert_eq!(hits.load(Ordering::Relaxed), 999 * 1000 / 2);
//! ```

use crate::future::{channel, when_all, SharedFuture};
use crate::runtime::Runtime;
use std::ops::Range;
use std::sync::Arc;

/// Apply `body` to every index in `range`, one task per `grain`-sized
/// chunk. Returns a future that completes when every chunk has run.
///
/// `grain` is the task size: `range.len() / grain` tasks are created.
/// A zero `grain` is treated as 1.
pub fn parallel_for(
    rt: &Runtime,
    range: Range<usize>,
    grain: usize,
    body: impl Fn(usize) + Send + Sync + 'static,
) -> SharedFuture<()> {
    let body = Arc::new(body);
    let grain = grain.max(1);
    // The fan-out width is known up front — size the handle list once
    // instead of letting it double its way up through reallocations.
    let mut chunks = Vec::with_capacity(range.end.saturating_sub(range.start).div_ceil(grain));
    let mut lo = range.start;
    while lo < range.end {
        let hi = (lo + grain).min(range.end);
        let body = Arc::clone(&body);
        chunks.push(rt.async_call(move |_| {
            for i in lo..hi {
                body(i);
            }
        }));
        lo = hi;
    }
    let (promise, done) = channel();
    when_all(&chunks).on_settled(move |outcome| match outcome {
        Ok(_) => promise.set(()),
        // A panicking chunk faults the whole loop's future with the
        // chunk's error as the cause chain.
        Err(e) => promise.fail(e.clone()),
    });
    done
}

/// Map-reduce over an index range with an explicit grain size: `map`
/// runs on every index inside `grain`-sized chunk tasks, partial results
/// fold with `reduce` (which must be associative), starting from
/// `identity` in every chunk.
pub fn parallel_reduce<T>(
    rt: &Runtime,
    range: Range<usize>,
    grain: usize,
    identity: T,
    map: impl Fn(usize) -> T + Send + Sync + 'static,
    reduce: impl Fn(T, T) -> T + Send + Sync + 'static,
) -> SharedFuture<T>
where
    T: Clone + Send + Sync + 'static,
{
    let map = Arc::new(map);
    let reduce = Arc::new(reduce);
    let grain = grain.max(1);
    // Known fan-out width, as in `parallel_for`.
    let mut chunks = Vec::with_capacity(range.end.saturating_sub(range.start).div_ceil(grain));
    let mut lo = range.start;
    while lo < range.end {
        let hi = (lo + grain).min(range.end);
        let map = Arc::clone(&map);
        let reduce = Arc::clone(&reduce);
        let id = identity.clone();
        chunks.push(rt.async_call(move |_| {
            let mut acc = id;
            for i in lo..hi {
                acc = reduce(acc, map(i));
            }
            acc
        }));
        lo = hi;
    }
    let (promise, out) = channel();
    let reduce2 = Arc::clone(&reduce);
    when_all(&chunks).on_settled(move |outcome| match outcome {
        Ok(parts) => {
            let mut acc = identity;
            for p in parts.iter() {
                acc = reduce2(acc, (**p).clone());
            }
            promise.set(acc);
        }
        Err(e) => promise.fail(e.clone()),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_counters::sync::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn parallel_for_visits_every_index_once() {
        let rt = Runtime::with_workers(3);
        let n = 10_000;
        let seen: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let s = Arc::clone(&seen);
        parallel_for(&rt, 0..n, 128, move |i| {
            s[i].fetch_add(1, Ordering::Relaxed);
        })
        .get();
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_range_completes() {
        let rt = Runtime::with_workers(1);
        parallel_for(&rt, 5..5, 8, |_| panic!("must not run")).get();
    }

    #[test]
    fn parallel_for_grain_bigger_than_range_is_one_task() {
        let rt = Runtime::with_workers(2);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        parallel_for(&rt, 0..10, 1_000, move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        })
        .get();
        rt.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        assert_eq!(rt.counters().tasks.sum(), 1, "single chunk expected");
    }

    #[test]
    fn parallel_for_zero_grain_is_clamped() {
        let rt = Runtime::with_workers(2);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        parallel_for(&rt, 0..16, 0, move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        })
        .get();
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn grain_size_controls_task_count() {
        let rt = Runtime::with_workers(2);
        parallel_for(&rt, 0..1024, 16, |_| {}).get();
        rt.wait_idle();
        let fine = rt.counters().tasks.sum();
        rt.reset_counters();
        parallel_for(&rt, 0..1024, 256, |_| {}).get();
        rt.wait_idle();
        let coarse = rt.counters().tasks.sum();
        assert_eq!(fine, 64);
        assert_eq!(coarse, 4);
    }

    #[test]
    fn parallel_reduce_sums() {
        let rt = Runtime::with_workers(3);
        let sum = parallel_reduce(&rt, 0..1_000, 37, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(*sum.get(), 999 * 1000 / 2);
    }

    #[test]
    fn parallel_reduce_max() {
        let rt = Runtime::with_workers(2);
        let m = parallel_reduce(
            &rt,
            0..500,
            64,
            i64::MIN,
            |i| ((i as i64) * 7919) % 1000,
            i64::max,
        );
        let expect = (0..500).map(|i| ((i as i64) * 7919) % 1000).max().unwrap();
        assert_eq!(*m.get(), expect);
    }

    #[test]
    fn parallel_reduce_empty_range_is_identity() {
        let rt = Runtime::with_workers(1);
        let v = parallel_reduce(&rt, 3..3, 4, 42u64, |_| 0, |a, b| a + b);
        assert_eq!(*v.get(), 42);
    }
}
