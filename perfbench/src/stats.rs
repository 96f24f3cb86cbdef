//! Order statistics over the benchmark's own samples.

/// Median of `values` (mean of the two middle values for an even
/// count); `0.0` for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A nearest-rank percentile together with the sample counts that say
/// how far it can be trusted.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The percentile asked for, in `(0, 100]`.
    pub pct: f64,
    /// The sample at rank `ceil(pct/100 · n)`.
    pub value: f64,
    /// Samples taken.
    pub samples: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// Nearest-rank `pct` percentile of `values`; `value` is `0.0` for no
/// samples.
pub fn percentile(values: &[f64], pct: f64) -> Percentile {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            pct,
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        pct,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile_counts_the_tail() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = percentile(&values, 99.0);
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        let p90 = percentile(&values, 90.0);
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        assert_eq!(percentile(&values, 100.0).value, 100.0);
    }
}
