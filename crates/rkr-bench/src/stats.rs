//! The few order statistics the benchmark reports.

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p · n)`. Reported only when at least ten samples lie beyond
/// that rank, so a tail figure is never one lucky or unlucky sample.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    (rank <= n && n - rank >= 10).then(|| sorted[rank - 1])
}

/// Median of a small set of run values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — the rule the acceptance driver
/// uses for spreads, so `compare` and the driver agree. A single value is
/// its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_needs_ten_samples_beyond() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50));
        assert_eq!(percentile(&hundred, 0.9), Some(90));
        // rank 99 leaves one sample beyond it.
        assert_eq!(percentile(&hundred, 0.99), None);
        // 19 samples: the median (rank 10) has 9 beyond; 21 samples
        // (rank 11) has exactly 10.
        let nineteen: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&nineteen, 0.5), None);
        let twenty_one: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&twenty_one, 0.5), Some(11));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
