//! Order statistics for the benchmark: medians, nearest-rank
//! percentiles, and the quartile spread the acceptance rule uses.

/// Sort a sample in place (total order on floats; NaN never occurs —
/// every sample is an elapsed time or a count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median of an already sorted sample (mean of the middle pair when
/// the count is even). Panics on an empty sample: every caller
/// measures at least once.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    median_sorted(&values)
}

/// Nearest-rank percentile of a sorted sample: the smallest value with
/// at least `p` percent of the sample at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail figure a latency sample supports: p99 with at least 1,000
/// samples, otherwise the highest percentile that still has ten
/// samples beyond it (the maximum when there are ten or fewer).
/// Returns `(percentile, value)`.
pub fn tail_sorted(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n >= 1000 {
        return (99.0, percentile_sorted(sorted, 99.0));
    }
    if n <= 10 {
        return (100.0, sorted[n - 1]);
    }
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, sorted[idx])
}

/// Mean of the best quarter of `values` (at least one): the lowest
/// when `lower_is_better`, else the highest. On a small shared host
/// interference is one-sided — a neighbour's load or an unlucky thread
/// placement only ever slows a round down — so when rounds do the same
/// work, the undisturbed ones are the fastest, and their mean is far
/// steadier from run to run than the median round.
pub fn best_quarter_mean(mut values: Vec<f64>, lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best quarter of an empty sample");
    sort(&mut values);
    if !lower_is_better {
        values.reverse();
    }
    let k = (values.len() / 4).max(1);
    values[..k].iter().sum::<f64>() / k as f64
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method) — the driver's acceptance rule is stated in those terms.
pub fn quartiles(mut values: Vec<f64>) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two or more values");
    sort(&mut values);
    let n = values.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values.to_vec());
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_sorted(&v), (99.0, 1980.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, value) = tail_sorted(&v);
        assert_eq!(value, 190.0);
        assert!((p - 95.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail_sorted(&v), (100.0, 8.0));
    }

    #[test]
    fn best_quarter_takes_the_right_end() {
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(best_quarter_mean(v.clone(), true), 2.5);
        assert_eq!(best_quarter_mean(v, false), 14.5);
        assert_eq!(best_quarter_mean(vec![9.0, 7.0, 8.0], true), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(v.clone()), [2.75, 5.5, 8.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(vec![16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(vec![1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
