//! Order statistics for latency samples.
//!
//! A "tail" is the highest percentile of a fixed ladder that still has at
//! least [`TAIL_MIN_BEYOND`] samples beyond it. Each workload fixes its
//! tail percentile once, from [`tail_quantile`] applied to the sample
//! count it collects at its run length, so runs of different commits
//! compare the same percentile even when their sample counts differ.

/// Candidate tail percentiles, lowest first.
pub const TAIL_LADDER: [f64; 6] = [0.75, 0.90, 0.95, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile for it to count as supported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).map_or(0, |r| r + 1)
}

/// 0-based index of the nearest-rank `q`-quantile in `n` sorted samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    // The small slack keeps products like 0.999 * 10_000 from rounding up
    // past the exact rank.
    (n > 0).then(|| ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it among `n`, or `None` when not even the lowest qualifies.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .take_while(|&q| beyond(n, q) >= TAIL_MIN_BEYOND)
        .last()
}

/// Nearest-rank `q`-quantile of `sorted` (ascending); 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    rank(sorted.len(), q).map_or(0.0, |r| sorted[r])
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency distribution reduced to the numbers the report prints.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarise `samples` with the workload's fixed tail percentile.
    pub fn of(samples: &[f64], tail_q: f64) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p50: median(&v),
            tail: quantile(&v, tail_q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beyond_counts_samples_past_the_nearest_rank() {
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(40, 0.75), 10);
        assert_eq!(beyond(39, 0.75), 9);
        assert_eq!(beyond(0, 0.5), 0);
        assert_eq!(beyond(1, 0.9999), 0);
    }

    #[test]
    fn tail_is_the_highest_supported_ladder_step() {
        assert_eq!(tail_quantile(39), None);
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
        assert_eq!(tail_quantile(10_000_000), Some(0.9999));
    }

    #[test]
    fn quantile_and_median_on_small_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.95), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_reports_the_fixed_tail() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&v, 0.90);
        assert_eq!((s.n, s.p50, s.tail), (100, 50.5, 90.0));
    }
}
