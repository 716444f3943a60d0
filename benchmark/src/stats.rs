//! Order statistics over timing samples.

/// Sorts `samples` ascending (total order, NaN last).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median of `samples` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    sort(&mut s);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `samples`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    sort(&mut s);
    let n = s.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    s[rank.clamp(1, n) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile — the guide's "at least ten samples beyond it" test.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default *exclusive* method) gives them — the acceptance check's
/// spread is computed with exactly this rule, so `compare` uses it too.
/// `None` below two samples, where Python raises.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut s = samples.to_vec();
    sort(&mut s);
    let at = |i: usize| -> f64 {
        // Cut point i of 4 over m = n + 1 virtual positions.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the bounds are judged against. `None` below two samples or for a zero
/// median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Smallest of `samples`.
///
/// # Panics
/// Panics on an empty slice.
pub fn min(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "min of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest of `samples`.
///
/// # Panics
/// Panics on an empty slice.
pub fn max(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "max of no samples");
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn min_and_max_pick_the_extremes() {
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(max(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [0.4, 0.1, 0.3, 0.2];
        assert_eq!(percentile(&v, 50.0), 0.2);
        assert_eq!(percentile(&v, 75.0), 0.3);
        assert_eq!(percentile(&v, 99.0), 0.4);
        assert_eq!(percentile(&v, 0.0), 0.1);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(1200, 99.0), 12);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(4, 100.0), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
