//! Order statistics for timings: median, the tail-percentile rule of the
//! choosing-metrics guide, and the quartile spread `--compare` uses.

/// A sorted copy without NaNs.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; `None` for an empty sample (a metric without a verified sample
/// is reported as `null`, never as 0).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `p`-th percentile (nearest rank, `0 < p < 100`).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    // The epsilon keeps 90% of 100 at rank 90 (0.9 * 100 > 90 in floats).
    let rank = ((p / 100.0) * v.len() as f64 - 1e-9).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` when even p50 has not (fewer than 20
/// samples). With 240 samples this is p95 (12 beyond).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // In tenths of a percent, so the count beyond the nearest-rank index
    // is exact integer arithmetic.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| samples - (samples * p).div_ceil(1000) >= 10)
        .map(|p| p as f64 / 10.0)
}

/// `(q1, q2, q3)` as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so a spread computed here is the one the
/// driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN, 5.0]), Some(5.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(
            tail_percentile(240),
            Some(95.0),
            "the serve mix: 12 beyond p95"
        );
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(228.0));
        assert_eq!(percentile(&v, 50.0), Some(120.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(spread(&v), Some(1.0));
    }
}
