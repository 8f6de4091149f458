//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` sorted
//! samples is the sample at 1-based rank `ceil(p/100 · n)`. A percentile
//! is only reported when at least [`MIN_BEYOND`] samples lie above its
//! rank; a thinner tail is noise, not a measurement.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sort samples ascending (total order; NaN never occurs in timings).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of a non-empty sample set (nearest rank; needs no tail).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples.to_vec());
    sorted[(sorted.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 89.5), Some(90.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 leaves exactly 10 beyond: reported.
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        // Rank 91 leaves 9 beyond: refused.
        assert_eq!(percentile(&samples, 91.0), None);
        assert_eq!(percentile(&samples, 99.0), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
