//! Point-in-time captures of a counter set and interval deltas.
//!
//! The paper stresses (§II-A) that every metric "can be calculated over any
//! interval of interest" — that is what makes the counters usable for
//! *dynamic* adaptation, not just post-mortem analysis. A [`Snapshot`]
//! captures every registered counter; an [`Interval`] subtracts two
//! snapshots, yielding the event counts and time sums accumulated in
//! between. The adaptation engine in `grain-adaptive` consumes intervals.

use crate::registry::Registry;
use crate::value::{CounterValue, Unit};
use std::collections::BTreeMap;

/// A point-in-time capture of every registered counter.
#[derive(Debug, Clone)]
pub struct Snapshot {
    values: BTreeMap<String, CounterValue>,
}

impl Snapshot {
    /// Capture every registered counter.
    pub fn capture_all(registry: &Registry) -> Self {
        let mut values = BTreeMap::new();
        for p in registry.paths() {
            if let Ok(v) = registry.query(&p) {
                values.insert(p, v);
            }
        }
        Self { values }
    }

    /// Value recorded for `path`, if that counter was captured.
    pub fn get(&self, path: &str) -> Option<CounterValue> {
        self.values.get(path).copied()
    }

    /// Iterate over `(path, value)` pairs in lexicographic path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CounterValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of captured counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The interval `self → later`: for cumulative units (counts, times,
    /// bytes) the delta `later − self`; instantaneous units (ratios) take
    /// the later value as-is.
    pub fn delta(&self, later: &Snapshot) -> Interval {
        let mut values = BTreeMap::new();
        for (path, after) in &later.values {
            let v = match (self.values.get(path), after.unit) {
                (Some(before), Unit::Count | Unit::Nanoseconds | Unit::Bytes) => CounterValue {
                    value: (after.value - before.value).max(0.0),
                    unit: after.unit,
                    timestamp_ns: after.timestamp_ns,
                },
                _ => *after,
            };
            values.insert(path.clone(), v);
        }
        Interval { values }
    }
}

/// The difference between two [`Snapshot`]s — counters accumulated over a
/// monitoring window.
#[derive(Debug, Clone)]
pub struct Interval {
    values: BTreeMap<String, CounterValue>,
}

impl Interval {
    /// Delta (or latest instantaneous value) recorded for `path`.
    pub fn get(&self, path: &str) -> Option<CounterValue> {
        self.values.get(path).copied()
    }

    /// Iterate over `(path, value)` pairs in lexicographic path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CounterValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of counters in the window.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Recompute a ratio over this window from its cumulative parts:
    /// `(whole − part) / whole`, the windowed idle-rate (Eq. 1 over an
    /// interval). Returns `None` if either path is missing or `whole` is 0.
    pub fn windowed_ratio(&self, part_path: &str, whole_path: &str) -> Option<f64> {
        let part = self.get(part_path)?.value;
        let whole = self.get(whole_path)?.value;
        if whole <= 0.0 {
            None
        } else {
            Some(((whole - part.min(whole)) / whole).clamp(0.0, 1.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::RawCounter;
    use crate::registry::RawView;
    use std::sync::Arc;

    fn registry_with(paths: &[(&str, u64, Unit)]) -> (Registry, Vec<Arc<RawCounter>>) {
        let reg = Registry::new();
        let mut raws = Vec::new();
        for (p, v, u) in paths {
            let c = Arc::new(RawCounter::new());
            c.add(*v);
            reg.register(p, RawView::new(Arc::clone(&c), *u)).unwrap();
            raws.push(c);
        }
        (reg, raws)
    }

    #[test]
    fn capture_and_get() {
        let (reg, _) = registry_with(&[
            ("/threads/count/cumulative", 5, Unit::Count),
            ("/threads/time/cumulative-exec", 100, Unit::Nanoseconds),
        ]);
        let snap = Snapshot::capture_all(&reg);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get("/threads/count/cumulative").unwrap().as_count(), 5);
        assert!(snap.get("/threads/missing").is_none());
    }

    #[test]
    fn delta_subtracts_cumulative_counters() {
        let (reg, raws) = registry_with(&[("/threads/count/cumulative", 5, Unit::Count)]);
        let before = Snapshot::capture_all(&reg);
        raws[0].add(12);
        let after = Snapshot::capture_all(&reg);
        let window = before.delta(&after);
        assert_eq!(
            window.get("/threads/count/cumulative").unwrap().as_count(),
            12
        );
    }

    #[test]
    fn delta_keeps_instantaneous_ratios() {
        let reg = Registry::new();
        reg.register(
            "/threads/idle-rate",
            crate::derived::DerivedCounter::new(Unit::Ratio, || 0.25),
        )
        .unwrap();
        let before = Snapshot::capture_all(&reg);
        let after = Snapshot::capture_all(&reg);
        let window = before.delta(&after);
        assert_eq!(window.get("/threads/idle-rate").unwrap().value, 0.25);
    }

    #[test]
    fn windowed_ratio_matches_eq1_over_interval() {
        let (reg, raws) = registry_with(&[
            ("/threads/time/cumulative-exec", 100, Unit::Nanoseconds),
            ("/threads/time/cumulative-func", 150, Unit::Nanoseconds),
        ]);
        let before = Snapshot::capture_all(&reg);
        raws[0].add(600); // +600 exec
        raws[1].add(1000); // +1000 func
        let after = Snapshot::capture_all(&reg);
        let window = before.delta(&after);
        let ir = window
            .windowed_ratio(
                "/threads/time/cumulative-exec",
                "/threads/time/cumulative-func",
            )
            .unwrap();
        assert!((ir - 0.4).abs() < 1e-12);
    }
}
