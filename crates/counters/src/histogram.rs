//! Log-scale duration histograms.
//!
//! The scalar counters give averages (Eqs. 2–3); distributions matter
//! too — the paper's COV analysis and its note that timer overhead only
//! matters "where task durations were less than four microseconds" are
//! both statements about the *shape* of the task-duration distribution.
//! [`LogHistogram`] records values into power-of-two buckets with relaxed
//! atomics from any number of threads and answers count/percentile/mean
//! queries; [`ShardedHistogram`] is one such set of buckets per worker,
//! each written only by its worker (the [`crate::raw`] contract) and
//! merged into a [`LogHistogram`] on read.

use crate::raw::OwnedCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets: bucket `i` holds values in
/// `[2^i, 2^(i+1))`, bucket 0 holds 0 and 1. 64 buckets cover any `u64`.
const BUCKETS: usize = 64;

/// A lock-free histogram over `u64` values (nanoseconds, counts, …) with
/// power-of-two buckets.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([const { AtomicU64::new(0) }; BUCKETS]),
            sum: AtomicU64::new(0),
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1)
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded values: the sum of the buckets, so `record`
    /// pays for no counter of its own.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Lower bound of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`), e.g. `quantile_floor(0.5)` for a median
    /// estimate. Returns 0 when empty. Resolution is one power of two.
    pub fn quantile_floor(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// Values recorded in `[2^i, 2^(i+1))` for every non-empty bucket,
    /// as `(bucket_floor, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                if c == 0 {
                    None
                } else {
                    Some((if i == 0 { 0 } else { 1u64 << i }, c))
                }
            })
            .collect()
    }

    /// Merge another histogram into this one.
    pub fn merge(&self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Reset to empty.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }

    /// Render a compact text bar chart of the non-empty range (for the
    /// examples and reports). `width` is the maximum bar length.
    pub fn render(&self, unit: &str, width: usize) -> String {
        let buckets = self.nonzero_buckets();
        let max = buckets.iter().map(|&(_, c)| c).max().unwrap_or(0);
        let mut out = String::new();
        for (floor, count) in buckets {
            let bar = if max == 0 {
                0
            } else {
                ((count as f64 / max as f64) * width as f64).ceil() as usize
            };
            out.push_str(&format!(
                "{:>12} {unit} | {:<width$} {count}\n",
                floor,
                "#".repeat(bar),
            ));
        }
        out
    }
}

/// One worker's buckets: written by that worker alone, on lines of
/// their own.
#[repr(align(128))]
#[derive(Debug)]
struct OwnedBuckets {
    buckets: [OwnedCell; BUCKETS],
    sum: OwnedCell,
}

/// A log-scale histogram sharded per worker: worker `w` records into its
/// own buckets with plain loads and stores, and readers merge the shards
/// ([`ShardedHistogram::merged`]). A reset moves each cell's base, as
/// [`crate::raw::Sharded::reset`] does, and never writes a worker's cell.
#[derive(Debug)]
pub struct ShardedHistogram {
    shards: Box<[OwnedBuckets]>,
}

impl ShardedHistogram {
    /// Empty histogram with `workers` shards.
    pub fn new(workers: usize) -> Self {
        Self {
            shards: (0..workers)
                .map(|_| OwnedBuckets {
                    buckets: std::array::from_fn(|_| OwnedCell::default()),
                    sum: OwnedCell::default(),
                })
                .collect(),
        }
    }

    /// Record one value into worker `w`'s shard. Only worker `w` — or the
    /// one thread that drives every shard — may call this.
    #[inline]
    pub fn record(&self, w: usize, value: u64) {
        let shard = &self.shards[w];
        shard.buckets[LogHistogram::bucket_of(value)].add(1);
        shard.sum.add(value);
    }

    /// Number of recorded values over every shard.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.buckets.iter())
            .map(OwnedCell::get)
            .sum()
    }

    /// Every shard merged into one histogram, for percentile, mean and
    /// rendering queries.
    pub fn merged(&self) -> LogHistogram {
        let h = LogHistogram::new();
        for s in self.shards.iter() {
            for (into, from) in h.buckets.iter().zip(&s.buckets) {
                into.fetch_add(from.get(), Ordering::Relaxed);
            }
            h.sum.fetch_add(s.sum.get(), Ordering::Relaxed);
        }
        h
    }

    /// Start a new epoch: every shard reads empty.
    pub fn reset(&self) {
        for s in self.shards.iter() {
            s.buckets.iter().for_each(OwnedCell::reset);
            s.sum.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_assignment() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        assert_eq!(LogHistogram::bucket_of(1023), 9);
        assert_eq!(LogHistogram::bucket_of(1024), 10);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn count_and_mean() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        for v in [100, 200, 300] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), 200.0);
    }

    #[test]
    fn quantiles_are_bucket_floors() {
        let h = LogHistogram::new();
        for _ in 0..90 {
            h.record(1_000); // bucket [512, 1024)
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket [2^19, 2^20)
        }
        assert_eq!(h.quantile_floor(0.5), 512);
        assert_eq!(h.quantile_floor(0.89), 512);
        assert_eq!(h.quantile_floor(0.95), 1 << 19);
        assert_eq!(h.quantile_floor(1.0), 1 << 19);
    }

    #[test]
    fn empty_quantile_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile_floor(0.5), 0);
    }

    #[test]
    fn nonzero_buckets_listing() {
        let h = LogHistogram::new();
        h.record(0);
        h.record(5);
        h.record(5);
        let b = h.nonzero_buckets();
        assert_eq!(b, vec![(0, 1), (4, 2)]);
    }

    #[test]
    fn merge_accumulates() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record(10);
        b.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), 340.0, "the sum merges with the buckets");
        assert_eq!(a.nonzero_buckets().len(), 2);
    }

    #[test]
    fn reset_clears() {
        let h = LogHistogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn render_produces_bars() {
        let h = LogHistogram::new();
        for _ in 0..10 {
            h.record(100);
        }
        h.record(100_000);
        let s = h.render("ns", 20);
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(LogHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i + t);
                    }
                })
            })
            .collect();
        for x in handles {
            x.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    fn shards_merge_on_read_and_reset_to_empty() {
        let h = ShardedHistogram::new(2);
        h.record(0, 10);
        h.record(1, 10);
        h.record(1, 1000);
        assert_eq!(h.count(), 3);
        let m = h.merged();
        assert_eq!(m.count(), 3);
        assert_eq!(m.mean(), 340.0);
        assert_eq!(m.nonzero_buckets(), vec![(8, 2), (512, 1)]);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.merged().mean(), 0.0);
        h.record(0, 3);
        assert_eq!(h.merged().nonzero_buckets(), vec![(2, 1)]);
    }
}
