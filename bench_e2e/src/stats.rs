//! Order statistics over timing samples.
//!
//! Percentiles are nearest-rank (no interpolation), so every reported value
//! is a sample that was actually measured. A tail percentile is only as
//! trustworthy as the number of samples beyond it; [`tail_quantile`] falls
//! back to the highest percentile that still has [`MIN_BEYOND`] samples
//! above it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest sample such
/// that at least `q` of the samples are ≤ it. `q` is clamped to `[0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank_index(sorted.len(), q)]
}

/// Zero-based index of the nearest-rank quantile among `n` samples.
fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The `q` quantile, or — when fewer than [`MIN_BEYOND`] samples lie above
/// it — the highest sample that still has [`MIN_BEYOND`] above it. With
/// `MIN_BEYOND` samples or fewer there is no supported tail at all and the
/// median is returned. The second value is the quantile actually reported.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail_quantile(sorted: &[f64], q: f64) -> (f64, f64) {
    let n = sorted.len();
    let idx = rank_index(n, q);
    if n - 1 - idx >= MIN_BEYOND {
        return (sorted[idx], q);
    }
    if n <= MIN_BEYOND {
        return (nearest_rank(sorted, 0.5), 0.5);
    }
    let idx = n - 1 - MIN_BEYOND;
    (sorted[idx], (idx + 1) as f64 / n as f64)
}

/// Sorts in place and returns the median (nearest rank).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    nearest_rank(values, 0.5)
}

/// Ascending sort; timing samples are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (exclusive method), which is what the benchmark driver uses for spread.
/// Needs at least two samples.
pub fn quartiles_exclusive(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two samples");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_returns_measured_samples() {
        let s = ramp(10);
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.51), 6.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&s, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 2000 samples: p99 is rank 1980, 20 beyond — reported as asked.
        assert_eq!(tail_quantile(&ramp(2000), 0.99), (1980.0, 0.99));
        // 1000 samples: p99 is rank 990, exactly 10 beyond — still fine.
        assert_eq!(tail_quantile(&ramp(1000), 0.99), (990.0, 0.99));
        // 500 samples: p99 would have 5 beyond; fall back to rank 490 = p98.
        assert_eq!(tail_quantile(&ramp(500), 0.99), (490.0, 0.98));
        // 11 samples: only the smallest has ten beyond it.
        let (v, q) = tail_quantile(&ramp(11), 0.99);
        assert_eq!(v, 1.0);
        assert!((q - 1.0 / 11.0).abs() < 1e-12);
        // Ten or fewer: no supported tail, the median stands in.
        assert_eq!(tail_quantile(&ramp(10), 0.99), (5.0, 0.5));
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles_exclusive(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
