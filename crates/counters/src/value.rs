//! Typed counter samples.

use std::fmt;

/// Unit of a counter value. HPX encodes this implicitly in the counter
/// name; we carry it explicitly so that derived counters and the metric
/// layer can check dimensional sanity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Plain event count.
    Count,
    /// Time in nanoseconds.
    Nanoseconds,
    /// Dimensionless ratio in `[0, 1]` (e.g. idle-rate).
    Ratio,
    /// Bytes.
    Bytes,
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Unit::Count => "count",
            Unit::Nanoseconds => "ns",
            Unit::Ratio => "ratio",
            Unit::Bytes => "bytes",
        };
        f.write_str(s)
    }
}

/// One sample of a performance counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterValue {
    /// The sampled value. Counts are exact integers represented in `f64`
    /// (counts in this project stay far below 2^53); times are nanoseconds;
    /// ratios are in `[0, 1]`.
    pub value: f64,
    /// Unit of `value`.
    pub unit: Unit,
}

impl CounterValue {
    /// A sample of `value` in `unit`.
    pub fn new(value: f64, unit: Unit) -> Self {
        Self { value, unit }
    }

    /// The value interpreted as an exact count.
    ///
    /// # Panics
    /// Panics in debug builds if the unit is not [`Unit::Count`].
    pub fn as_count(&self) -> u64 {
        debug_assert_eq!(self.unit, Unit::Count, "counter is not a count");
        self.value as u64
    }
}

impl fmt::Display for CounterValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.unit {
            Unit::Count | Unit::Bytes => write!(f, "{} {}", self.value as u64, self.unit),
            Unit::Nanoseconds => write!(f, "{:.3} us", self.value / 1e3),
            Unit::Ratio => write!(f, "{:.2}%", self.value * 100.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_count_reads_a_count() {
        let v = CounterValue::new(3.0, Unit::Count);
        assert_eq!(v.as_count(), 3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CounterValue::new(42.0, Unit::Count).to_string(), "42 count");
        assert_eq!(CounterValue::new(0.5, Unit::Ratio).to_string(), "50.00%");
        assert_eq!(
            CounterValue::new(2500.0, Unit::Nanoseconds).to_string(),
            "2.500 us"
        );
    }
}
