//! Order statistics over measured samples.

/// The nearest-rank `p`-th percentile of `samples`: the smallest sample
/// with at least `p` percent of the samples at or below it. `None` when
/// there are no samples.
///
/// # Panics
///
/// Panics unless `0 < p <= 100`.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `samples`, averaging the middle pair of an even count.
/// `None` when there are no samples.
pub fn median(samples: &[u64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid] as f64
    } else {
        (sorted[mid - 1] as f64 + sorted[mid] as f64) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&samples, 50.0), Some(50));
        assert_eq!(percentile(&samples, 99.0), Some(99));
        assert_eq!(percentile(&samples, 100.0), Some(100));
        assert_eq!(percentile(&samples, 0.5), Some(1));
        // Five samples: p50 is the third, p99 the largest.
        let five = [30, 10, 50, 20, 40];
        assert_eq!(percentile(&five, 50.0), Some(30));
        assert_eq!(percentile(&five, 80.0), Some(40));
        assert_eq!(percentile(&five, 81.0), Some(50));
        assert_eq!(percentile(&five, 99.0), Some(50));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3, 1, 2]), Some(2.0));
        assert_eq!(median(&[4, 1, 3, 2]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
