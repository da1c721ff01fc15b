//! Basic sampling statistics: means, variances and confidence intervals.

use crate::linalg::Moments;
use serde::{Deserialize, Serialize};

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleStats {
    /// Number of observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance of the observations.
    pub variance: f64,
    /// Variance of the *mean* estimator (`variance / n`).
    pub variance_of_mean: f64,
    /// Standard error of the mean.
    pub std_error: f64,
}

impl SampleStats {
    /// Computes statistics of a sample.
    pub fn from_sample(values: &[f64]) -> Self {
        Self::from_moments(&Moments::of::<&[f64]>(values, &[]))
    }

    /// Statistics of the `y` series (series 0) of a moment pass.
    pub(crate) fn from_moments(moments: &Moments) -> Self {
        let n = moments.n();
        if n == 0 {
            return SampleStats { n: 0, mean: 0.0, variance: 0.0, variance_of_mean: 0.0, std_error: 0.0 };
        }
        let var = moments.cov(0, 0);
        let vom = var / n as f64;
        SampleStats { n, mean: moments.mean(0), variance: var, variance_of_mean: vom, std_error: vom.sqrt() }
    }

    /// Normal-approximation confidence interval at the given z value
    /// (1.96 ⇒ ~95 %).
    pub fn confidence_interval(&self, z: f64) -> (f64, f64) {
        (self.mean - z * self.std_error, self.mean + z * self.std_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample() {
        let s = SampleStats::from_sample(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn known_values() {
        let s = SampleStats::from_sample(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-9);
        assert!((s.variance_of_mean - s.variance / 8.0).abs() < 1e-12);
    }

    #[test]
    fn confidence_interval_contains_mean() {
        let s = SampleStats::from_sample(&[1.0, 2.0, 3.0]);
        let (lo, hi) = s.confidence_interval(1.96);
        assert!(lo < s.mean && s.mean < hi);
        // wider z gives a wider interval
        let (lo2, hi2) = s.confidence_interval(2.58);
        assert!(lo2 < lo && hi2 > hi);
    }

    #[test]
    fn constant_sample_has_zero_variance() {
        let s = SampleStats::from_sample(&[3.0; 10]);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.std_error, 0.0);
    }
}
