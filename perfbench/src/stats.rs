//! Order statistics over timing samples.

/// The `p`-quantile (`0.0..=1.0`) of `samples` by nearest rank; `NaN`
/// for an empty slice. Sorts a copy, so callers keep sample order.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest whole percentile from p99 down to p50 that has at least
/// ten samples beyond it, as `(percentile, value)`.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    let p = (50..=99)
        .rev()
        .find(|&p| samples.len() as f64 * f64::from(100 - p) / 100.0 >= 10.0)
        .unwrap_or(50);
    (p, quantile(samples, f64::from(p) / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99, 990.0));
        assert_eq!(tail(&xs[..680]).0, 98);
        assert_eq!(tail(&xs[..200]).0, 95);
        assert_eq!(tail(&xs[..15]).0, 50);
    }
}
