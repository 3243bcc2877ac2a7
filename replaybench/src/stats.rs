//! Order statistics over measured samples.

use std::time::Duration;

use batchlens::trace::quantile_select;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolated between
/// order statistics as [`quantile_select`] gives it; `None` for an empty
/// slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    (!samples.is_empty()).then(|| quantile_select(&mut samples.to_vec(), q))
}

/// The median of `samples`, `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples`, `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The largest sample, `None` when empty.
pub fn max(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::max)
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_guard_the_empty_slice() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(51.0));
        assert_eq!(quantile(&v, 0.99), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(max(&[1.0, 4.0, 2.0]), Some(4.0));
    }
}
