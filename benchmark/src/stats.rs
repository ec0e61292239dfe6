//! Order statistics for the metric reports and for `check`.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count.
/// Panics on an empty slice: every metric is computed from at least one
/// sample or not reported at all.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(p, value)`; `None` when that would fall at or below the median
/// (fewer than twenty samples), where a "tail" says nothing.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let v = sorted(samples);
    Some(((n - 10) as f64 / n as f64, v[n - 11]))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the driver uses for
/// the run-to-run spread. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // Position (n + 1) * k / 4 in 1-based ranks, linearly interpolated
        // and clamped to the sample range.
        let j = ((n + 1) * k / 4).clamp(1, n - 1);
        let delta = ((n + 1) * k) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, value) = tail(&v).unwrap();
        assert_eq!(value, 90.0);
        assert!((p - 0.90).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // 200 samples reach p95, 100 only p90.
        let v200: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v200).unwrap(), (0.95, 190.0));
        assert!(tail(&v[..19]).is_none());
        let (p20, v20) = tail(&v[..20]).unwrap();
        assert_eq!((p20, v20), (0.5, 10.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: clamped
        // interpolation extrapolates exactly as Python does.
        let (a, b) = quartiles(&[1.0, 2.0]);
        assert!((a - 0.75).abs() < 1e-12 && (b - 2.25).abs() < 1e-12);
    }
}
