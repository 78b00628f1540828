//! Order statistics: the quiet level a run reports, the medians and
//! quartiles `perf aa` prints, and the tail-percentile rule.

use crate::spec::Better;

/// Sorted copy of `values` (total order; the benchmark never produces NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; the mean of the two middle values for an even count.
///
/// Panics on an empty slice: every caller has at least one epoch or sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no values");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The level `values` sit at while nothing disturbs them: the value a
/// tenth of the way in from their better end (nearest rank, so always a
/// value that was measured).
///
/// On this shared host something slows the benchmark for seconds at a
/// stretch, only ever slows it, and hits some windows and epochs of a
/// run and not others. The undisturbed values agree within 1-2 %; the
/// disturbed ones lie 10-70 % to their worse side and are at times two
/// thirds of a run, which moves a median by a quarter. The tenth-way
/// value stays on the undisturbed level until nine tenths of the run are
/// disturbed, and unlike the best value it does not rest on one sample
/// (README: the estimators that were compared).
///
/// Panics on an empty slice.
pub fn quiet(values: &[f64], better: Better) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "quiet level of no values");
    let rank = v.len().div_ceil(10);
    match better {
        Better::Lower => v[rank - 1],
        Better::Higher => v[v.len() - rank],
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them, because that is what the acceptance check computes.
///
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need two values");
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Worst-to-best relative spread: `(max − min) / median`.
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    (v[v.len() - 1] - v[0]) / median(&v)
}

/// Quartile distance as a share of the median: `(q3 − q1) / median`.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The tails that may be reported, as the share of samples beyond
/// them (1 in 2 is the median, 1 in 10 is p90, …), deepest first.
const TAIL_LADDER: [usize; 5] = [10_000, 1_000, 100, 10, 2];

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency and what backs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used (50, 90, 99, 99.9 or 99.99).
    pub percentile: f64,
    /// The latency at that percentile.
    pub value: f64,
    /// Samples it was taken from.
    pub n: usize,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it: p99 from 1000 samples, p90
/// from 100. Below 100 samples only the median qualifies.
pub fn tail(samples: &[f64]) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    assert!(n > 0, "tail of no samples");
    let one_in = TAIL_LADDER
        .into_iter()
        .find(|one_in| n / one_in >= TAIL_MIN_BEYOND)
        .unwrap_or(2);
    let beyond = n / one_in;
    let percentile = 100.0 - 100.0 / one_in as f64;
    Tail {
        percentile,
        value: v[n - 1 - beyond],
        n,
        beyond,
    }
}

/// The `p`-th percentile (0–100) by nearest rank.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_across_epochs_ignores_one_disturbed_epoch() {
        // Seven steady epochs and one that a neighbour slowed by 40 %:
        // a mean would move 5 %, the median does not move.
        let mut epochs = vec![100.0; 7];
        epochs.push(60.0);
        assert_eq!(median(&epochs), 100.0);
    }

    #[test]
    fn the_quiet_level_ignores_a_disturbed_majority() {
        // Twelve epochs, seven of them slowed by a neighbour: the median
        // reads a disturbed value, the quiet level an undisturbed one.
        let mut p50 = vec![3.0, 3.02, 3.04, 3.06, 3.08];
        p50.extend([3.4, 3.6, 3.9, 4.0, 4.1, 4.4, 4.7]);
        assert!(median(&p50) > 3.4);
        assert_eq!(quiet(&p50, Better::Lower), 3.02);
        let efficiency: Vec<f64> = p50.iter().map(|x| 1.0 / x).collect();
        assert_eq!(quiet(&efficiency, Better::Higher), 1.0 / 3.02);
        // A tenth of the way in: the twelfth best of 120, never the
        // best unless there are ten or fewer.
        let windows: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(quiet(&windows, Better::Lower), 12.0);
        assert_eq!(quiet(&windows, Better::Higher), 109.0);
        assert_eq!(quiet(&[2.0, 1.0], Better::Lower), 1.0);
        assert_eq!(quiet(&[7.0], Better::Higher), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn spreads_are_relative_to_the_median() {
        let v = [90.0, 100.0, 110.0];
        assert!((spread(&v) - 0.2).abs() < 1e-12);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_uses_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        let t = tail(&samples(100));
        assert_eq!(
            (t.percentile, t.n, t.beyond, t.value),
            (90.0, 100, 10, 90.0)
        );
        let t = tail(&samples(600));
        assert_eq!((t.percentile, t.beyond), (90.0, 60));
        let t = tail(&samples(999));
        assert_eq!((t.percentile, t.beyond), (90.0, 99));
        let t = tail(&samples(1000));
        assert_eq!((t.percentile, t.beyond, t.value), (99.0, 10, 990.0));
        let t = tail(&samples(2000));
        assert_eq!((t.percentile, t.beyond, t.value), (99.0, 20, 1980.0));
        let t = tail(&samples(10_000));
        assert_eq!((t.percentile, t.beyond), (99.9, 10));
    }

    #[test]
    fn tail_of_a_small_sample_falls_back_to_the_median() {
        let t = tail(&(1..=99).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.percentile, t.beyond, t.value), (50.0, 49, 50.0));
        let t = tail(&[5.0, 1.0, 3.0, 2.0]);
        assert_eq!((t.percentile, t.n, t.beyond, t.value), (50.0, 4, 2, 2.0));
        let t = tail(&[9.0]);
        assert_eq!((t.percentile, t.beyond, t.value), (50.0, 0, 9.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }
}
