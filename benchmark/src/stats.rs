//! Order statistics for the timing samples: the median, and the
//! percentile rule every `*_p90`-style metric follows.

/// The value at quantile `q` (0..=1) of an ascending slice, by the
/// nearest-rank rule (`ceil(q·n)`-th smallest).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// Median of the samples (mean of the middle pair for an even count);
/// NaN for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The candidate tail percentiles, highest first.
const TAILS: [u32; 4] = [999, 990, 950, 900];

/// The highest tail percentile (in per-mille: 900 = p90) that still has
/// at least ten samples beyond it, or `None` below 100 samples, where
/// not even p90 does.
pub fn highest_resolved_tail(count: usize) -> Option<u32> {
    TAILS.into_iter().find(|&pm| tail_resolved(count, pm))
}

/// Whether at least ten of `count` samples lie beyond the tail
/// percentile `per_mille`.
pub fn tail_resolved(count: usize, per_mille: u32) -> bool {
    count * (1000 - per_mille as usize) >= 10 * 1000
}

/// Nearest-rank percentile `per_mille` of the samples; NaN for an empty
/// slice. Callers print [`tail_resolved`] next to it.
pub fn percentile(samples: &[f64], per_mille: u32) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    nearest_rank(&sorted(samples), per_mille as f64 / 1000.0)
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance rule for run-to-run spread uses. Needs two samples.
fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the spread figure the
/// acceptance rule compares with a metric's bound.
pub fn relative_spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: exactly ten lie beyond p90, none of the higher
        // tails is resolved.
        assert_eq!(highest_resolved_tail(100), Some(900));
        assert_eq!(percentile(&hundred, 900), 90.0);
        assert!(tail_resolved(100, 900) && !tail_resolved(100, 950));
        assert_eq!(highest_resolved_tail(99), None);
        assert!(!tail_resolved(99, 900));
        assert_eq!(highest_resolved_tail(200), Some(950));
        assert_eq!(highest_resolved_tail(1_000), Some(990));
        assert_eq!(highest_resolved_tail(10_000), Some(999));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[9.0, 4.0, 2.0, 5.0, 4.0]), (3.0, 7.0));
        assert_eq!(relative_spread(&ten), 1.0);
    }
}
