//! Order statistics for latency samples and run-level summaries.

/// Samples a percentile must leave strictly above it: a p99 is only
/// reported from at least 1000 samples, so ten or more lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `sorted` by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples would lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted samples");
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let beyond = ((1.0 - q) * n as f64).floor() as usize;
    if beyond < MIN_BEYOND {
        return None;
    }
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sort in place and return the samples (NaN-free input assumed).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median and p99 of a latency sample set, with its count.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    pub count: usize,
    pub p50: f64,
    pub p99: Option<f64>,
}

impl LatencySummary {
    pub fn of(samples: Vec<f64>) -> LatencySummary {
        let s = sorted(samples);
        LatencySummary {
            count: s.len(),
            p50: percentile(&s, 0.5).unwrap_or_else(|| median(&s)),
            p99: percentile(&s, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&s, 0.99),
            None,
            "999 samples leave only 9 beyond p99"
        );
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(s.iter().filter(|&&x| x > 990.0).count(), MIN_BEYOND);
    }

    #[test]
    fn median_needs_ten_beyond_too() {
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), None);
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(10.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn out_of_range_quantiles_are_refused() {
        let s: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(percentile(&s, 1.0), None);
        assert_eq!(percentile(&s, -0.1), None);
        assert_eq!(percentile(&[], 0.5), None);
    }
}
