//! Order statistics. One rule each, tested, so every reported number can be
//! recomputed from the raw samples in a result file.

/// Sort a sample ascending (times are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it. Always a value that
/// was measured, never an interpolation.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p));
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(v, n=4)` (exclusive method), which is what the
/// acceptance spread is defined with.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(sorted: &[f64]) -> f64 {
    let (q1, q3) = quartiles(sorted);
    (q3 - q1) / median(sorted)
}

/// The fastest time of each item, for a `series` that holds `batches`
/// repetitions of the same items in the same order. `None` when the series
/// is not such a rectangle (a failed item can cut a batch short).
pub fn fastest_per_item(series: &[f64], batches: usize) -> Option<Vec<f64>> {
    if batches == 0 || series.is_empty() || !series.len().is_multiple_of(batches) {
        return None;
    }
    let items = series.len() / batches;
    Some(
        (0..items)
            .map(|i| {
                series
                    .iter()
                    .skip(i)
                    .step_by(items)
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .collect(),
    )
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), 190.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn fastest_per_item_takes_column_minima() {
        // Two batches of three items.
        let series = [3.0, 1.0, 5.0, 2.0, 4.0, 6.0];
        assert_eq!(fastest_per_item(&series, 2), Some(vec![2.0, 1.0, 5.0]));
        assert_eq!(fastest_per_item(&series, 1), Some(series.to_vec()));
        assert_eq!(fastest_per_item(&series, 4), None);
        assert_eq!(fastest_per_item(&[], 2), None);
        assert_eq!(fastest_per_item(&series, 0), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[1.0, 2.0, 4.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
