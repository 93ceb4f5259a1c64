//! Order statistics over exact samples: quantiles, slice medians, and the
//! inter-quartile spread the regression bounds are judged against.

/// Sorts samples ascending. Timings and rates are never NaN.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Nearest-rank quantile of ascending `sorted` samples: the smallest sample
/// with at least `q` of the samples at or below it. No interpolation and no
/// buckets, so a reported latency is one that a request really had.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the middle sample, or the mean of the two middle ones.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so the spread printed here is the
/// one the acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let only = s.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        // A quantile is always one of the samples, never an interpolation.
        let odd = [1.0, 10.0, 100.0];
        assert_eq!(quantile(&odd, 0.5), 10.0);
        assert_eq!(quantile(&odd, 0.67), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn slice_median_ignores_one_bad_slice() {
        // One slice in four 20 % low (the noisy-neighbour case the slicing
        // exists for) does not move the median.
        assert_eq!(median(&[5000.0, 5010.0, 4000.0, 4990.0, 5005.0]), 5000.0);
        assert_eq!(median(&[2.0, 4.0]), 3.0);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[5.0]), 0.0);
    }
}
