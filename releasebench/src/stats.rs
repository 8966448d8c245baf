//! Order statistics with the benchmark's sample-count rule.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `p`-quantile (`0 < p < 1`) among `n` sorted
/// samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `p`-quantile of `samples` by nearest rank, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it: a tail percentile resting on a
/// handful of samples is noise, so it is never reported.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = rank(sorted.len(), p);
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// The median by nearest rank (no tail rule: half the samples lie beyond).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), 0.5)]
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Mean of the samples left after dropping the `trim` share (rounded down)
/// of the smallest and of the largest; 0 for an empty slice.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim) as usize;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Sample standard deviation (n − 1 denominator); 0 below two samples.
pub fn std_dev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    let ss: f64 = samples.iter().map(|v| (v - m) * (v - m)).sum();
    (ss / (samples.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        assert_eq!(percentile(&[], 0.9), None);
    }

    #[test]
    fn median_ignores_sample_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        let shuffled: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        assert_eq!(percentile(&shuffled, 0.5), Some(49.0));
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v[19] = 1e9;
        assert_eq!(
            trimmed_mean(&v, 0.05),
            (2..=19).map(f64::from).sum::<f64>() / 18.0
        );
        assert_eq!(trimmed_mean(&[3.0], 0.05), 3.0);
        assert_eq!(trimmed_mean(&[], 0.05), 0.0);
    }

    #[test]
    fn spread_statistics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(
            std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]),
            (32.0f64 / 7.0).sqrt()
        );
        assert_eq!(std_dev(&[1.0]), 0.0);
    }
}
