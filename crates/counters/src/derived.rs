//! Derived (computed) counters.
//!
//! The paper's headline counters are not raw event counts but functions of
//! them:
//!
//! * `/threads/idle-rate`        = `(Σt_func − Σt_exec) / Σt_func`   (Eq. 1)
//! * `/threads/time/average`     = `Σt_exec / n_t`                    (Eq. 2)
//! * `/threads/time/average-overhead` = `(Σt_func − Σt_exec) / n_t`   (Eq. 3)
//!
//! [`DerivedCounter`] wraps an arbitrary closure over live counters;
//! [`average_of`] and [`ratio_of`] cover the two recurring shapes over
//! the arithmetic of [`crate::equations`].

use crate::equations::{idle_rate, task_duration_ns};
use crate::raw::Sharded;
use crate::registry::Counter;
use crate::value::{CounterValue, Unit};
use std::sync::Arc;

/// A counter whose value is computed on demand from other live state.
pub struct DerivedCounter {
    unit: Unit,
    compute: Box<dyn Fn() -> f64 + Send + Sync>,
}

impl DerivedCounter {
    /// Build a derived counter from a closure. The closure is invoked on
    /// every [`Counter::value`] call; it should be cheap (a handful of
    /// relaxed loads).
    pub fn new(unit: Unit, compute: impl Fn() -> f64 + Send + Sync + 'static) -> Self {
        Self {
            unit,
            compute: Box::new(compute),
        }
    }
}

impl Counter for DerivedCounter {
    fn value(&self) -> CounterValue {
        CounterValue::now((self.compute)(), self.unit)
    }
    fn reset(&self) {
        // Pure view: resetting the inputs is the owner's job.
    }
}

/// `numerator.sum() / denominator.sum()`, or 0 when the denominator is
/// zero. With `unit = Nanoseconds` this is the "average time per event"
/// shape used by `/threads/time/average` (Eq. 2) and
/// `/threads/time/average-overhead` (Eq. 3).
pub fn average_of(
    numerator: Arc<Sharded>,
    denominator: Arc<Sharded>,
    unit: Unit,
) -> DerivedCounter {
    DerivedCounter::new(unit, move || {
        task_duration_ns(numerator.sum(), denominator.sum())
    })
}

/// `(whole.sum() − part.sum()) / whole.sum()` clamped to `[0, 1]`, or 0
/// when `whole` is zero. With `whole = Σt_func` and `part = Σt_exec` this
/// is exactly the idle-rate of Eq. 1.
pub fn ratio_of(part: Arc<Sharded>, whole: Arc<Sharded>) -> DerivedCounter {
    DerivedCounter::new(Unit::Ratio, move || idle_rate(part.sum(), whole.sum()))
}

/// Per-worker variant of [`average_of`]: uses only shard `w`.
pub fn average_of_worker(
    numerator: Arc<Sharded>,
    denominator: Arc<Sharded>,
    w: usize,
    unit: Unit,
) -> DerivedCounter {
    DerivedCounter::new(unit, move || {
        task_duration_ns(numerator.get(w), denominator.get(w))
    })
}

/// Per-worker variant of [`ratio_of`]: uses only shard `w`.
pub fn ratio_of_worker(part: Arc<Sharded>, whole: Arc<Sharded>, w: usize) -> DerivedCounter {
    DerivedCounter::new(Unit::Ratio, move || idle_rate(part.get(w), whole.get(w)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_handles_zero_denominator() {
        let num = Arc::new(Sharded::new(1));
        let den = Arc::new(Sharded::new(1));
        let avg = average_of(Arc::clone(&num), Arc::clone(&den), Unit::Nanoseconds);
        assert_eq!(avg.value().value, 0.0);
        num.add(0, 300);
        den.add(0, 3);
        assert_eq!(avg.value().value, 100.0);
    }

    #[test]
    fn idle_rate_matches_eq1() {
        // Σt_func = 1000, Σt_exec = 600 → idle-rate = 0.4.
        let exec = Arc::new(Sharded::new(2));
        let func = Arc::new(Sharded::new(2));
        exec.add(0, 400);
        exec.add(1, 200);
        func.add(0, 500);
        func.add(1, 500);
        let ir = ratio_of(Arc::clone(&exec), Arc::clone(&func));
        let v = ir.value();
        assert_eq!(v.unit, Unit::Ratio);
        assert!((v.value - 0.4).abs() < 1e-12);
    }

    #[test]
    fn per_worker_views_ignore_other_shards() {
        let num = Arc::new(Sharded::new(2));
        let den = Arc::new(Sharded::new(2));
        num.add(0, 100);
        den.add(0, 1);
        num.add(1, 900);
        den.add(1, 3);
        let w1 = average_of_worker(Arc::clone(&num), Arc::clone(&den), 1, Unit::Nanoseconds);
        assert_eq!(w1.value().value, 300.0);
        let r0 = ratio_of_worker(Arc::clone(&num), Arc::clone(&num), 0);
        assert_eq!(r0.value().value, 0.0);
    }

    #[test]
    fn custom_closure_counter() {
        let c = DerivedCounter::new(Unit::Count, || 42.0);
        assert_eq!(c.value().as_count(), 42);
        c.reset(); // no-op, must not panic
        assert_eq!(c.value().as_count(), 42);
    }
}
