//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is taken from the full sample
//! vector by nearest rank — never from the log2 buckets of
//! `ssg_telemetry::hist`, whose quantiles jump by 2× between buckets.

/// Percentiles the tail report may climb to, lowest first.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie strictly beyond a percentile before it is
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` (in `(0, 100]`) among `n`
/// samples: the smallest rank whose share of samples at or below it is at
/// least `q` percent.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "nearest rank of an empty sample");
    assert!(q > 0.0 && q <= 100.0, "percentile {q} outside (0, 100]");
    // Integer arithmetic in units of 1e-4 percent: `99.9 / 100 * 10_000`
    // is 9990.000000000002 in floating point and would round up a rank.
    let units = (q * 10_000.0).round() as u128;
    let rank = (units * n as u128).div_ceil(1_000_000) as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile `q` of an ascending-sorted sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// The highest percentile on the ladder `50, 90, 99, 99.9, 99.99` with at
/// least [`TAIL_MIN_BEYOND`] samples strictly above its rank, or `None`
/// when even the median lacks that many.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n - nearest_rank(n, q) >= TAIL_MIN_BEYOND)
}

/// Nearest-rank percentile `q` within each non-empty block, then the
/// median of those per-block values. Over a run of many short blocks this
/// is robust to the few blocks a noisy host slows down.
pub fn block_percentile(blocks: &[Vec<u64>], q: f64) -> f64 {
    let per_block: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| {
            let mut sorted = b.clone();
            sorted.sort_unstable();
            percentile(&sorted, q) as f64
        })
        .collect();
    median(&per_block)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of unsorted values (midpoint of the middle pair for even
/// counts), as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// returns them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: clamping `j` can push `delta` outside 0..4, which is
        // how the exclusive method extrapolates on tiny samples.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let sorted: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&sorted, 50.0), 5);
        assert_eq!(percentile(&sorted, 90.0), 9);
        assert_eq!(percentile(&sorted, 91.0), 10);
        assert_eq!(percentile(&sorted, 100.0), 10);
        assert_eq!(percentile(&sorted, 0.1), 1);
        // One sample answers every percentile.
        assert_eq!(percentile(&[7], 99.0), 7);
        // Unlike log2 buckets, neighbouring values stay distinct.
        let close = [4_190_000, 4_200_000, 4_210_000];
        assert_eq!(percentile(&close, 50.0), 4_200_000);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // Fewer than 20 samples: the median has < 10 beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // p90 of 100 is rank 90 with exactly 10 beyond.
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        // p99 of 1000 is rank 990: 10 beyond.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in 1..3000 {
            if let Some(q) = tail_percentile(n) {
                assert!(n - nearest_rank(n, q) >= TAIL_MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn block_percentile_ignores_a_minority_of_slow_blocks() {
        let fast: Vec<u64> = (100..200).collect();
        let slow: Vec<u64> = (1000..1100).collect();
        let blocks = vec![fast.clone(), slow, fast.clone(), vec![], fast];
        assert_eq!(block_percentile(&blocks, 50.0), 149.0);
        assert_eq!(block_percentile(&blocks, 90.0), 189.0);
    }
}
