//! The single-control-variate estimator (Sec. III).
//!
//! `Y` is the expensive (detector-based) per-sample value, `X` the cheap
//! (filter-based) value observed on the same samples. With
//! `β* = Cov(Y, X) / Var(X)` the estimator `Ȳ − β*(X̄ − μ_X)` is unbiased and
//! has variance `(1 − ρ²_{XY}) · Var(Ȳ)` — a large reduction whenever the
//! filter output is strongly correlated with the detector output.

use crate::estimate::SampleStats;
use crate::linalg::Moments;
use serde::{Deserialize, Serialize};

/// The result of a control-variate estimation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CvEstimate {
    /// The control-variate point estimate of `E[Y]`.
    pub mean: f64,
    /// Estimated variance of the point estimate.
    pub variance_of_mean: f64,
    /// The fitted `β*`.
    pub beta: f64,
    /// Sample correlation between `Y` and `X`.
    pub correlation: f64,
    /// Statistics of the plain (no-CV) estimator on the same sample, for
    /// comparison.
    pub plain: SampleStats,
}

impl CvEstimate {
    /// Computes the CV estimate from paired observations and the control's
    /// known (or separately estimated) mean `mu_x`.
    ///
    /// When `Var(X)` is zero (a degenerate control) the estimator falls back
    /// to the plain sample mean.
    pub fn from_pairs(y: &[f64], x: &[f64], mu_x: f64) -> Self {
        assert_eq!(y.len(), x.len(), "y and x must be paired");
        Self::from_moments(&Moments::of(y, &[x]), 1, mu_x)
    }

    /// [`CvEstimate::from_pairs`] from a moment pass over `y` and its
    /// controls, with series `x` of the pass as `X`.
    pub fn from_moments(moments: &Moments, x: usize, mu_x: f64) -> Self {
        let plain = SampleStats::from_moments(moments);
        let n = moments.n();
        let fallback = CvEstimate {
            mean: plain.mean,
            variance_of_mean: plain.variance_of_mean,
            beta: 0.0,
            correlation: 0.0,
            plain,
        };
        if n < 2 {
            return fallback;
        }
        let var_x = moments.cov(x, x);
        let var_y = moments.cov(0, 0);
        if var_x <= 1e-15 || var_y <= 1e-15 {
            return fallback;
        }
        let cov = moments.cov(0, x);
        let beta = cov / var_x;
        let rho = cov / (var_x.sqrt() * var_y.sqrt());
        let mean = plain.mean - beta * (moments.mean(x) - mu_x);
        let variance_of_mean = ((1.0 - rho * rho) * var_y / n as f64).max(0.0);
        CvEstimate { mean, variance_of_mean, beta, correlation: rho, plain }
    }

    /// Uses the sample mean of the control itself as `μ_X` (the paper's
    /// practical choice when the control mean is unknown); the point estimate
    /// then equals the plain mean but the variance estimate still reflects
    /// the correlation-based reduction obtained over repeated trials.
    pub fn with_estimated_control_mean(y: &[f64], x: &[f64]) -> Self {
        let mu_x = if x.is_empty() { 0.0 } else { x.iter().sum::<f64>() / x.len() as f64 };
        Self::from_pairs(y, x, mu_x)
    }

    /// Variance-reduction factor relative to the plain estimator
    /// (`Var_plain / Var_cv`; ∞ when the CV variance is zero).
    pub fn variance_reduction(&self) -> f64 {
        if self.variance_of_mean <= 0.0 {
            f64::INFINITY
        } else {
            self.plain.variance_of_mean / self.variance_of_mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn perfectly_correlated_control_removes_variance() {
        let y: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let x = y.clone();
        let est = CvEstimate::from_pairs(&y, &x, 24.5);
        assert!((est.correlation - 1.0).abs() < 1e-9);
        assert!(est.variance_of_mean < 1e-9);
        assert!((est.mean - 24.5).abs() < 1e-9);
        assert!(est.variance_reduction() > 1e6);
    }

    #[test]
    fn uncorrelated_control_changes_little() {
        let mut rng = StdRng::seed_from_u64(3);
        let y: Vec<f64> = (0..200).map(|_| rng.gen_range(0.0..1.0)).collect();
        let x: Vec<f64> = (0..200).map(|_| rng.gen_range(0.0..1.0)).collect();
        let est = CvEstimate::from_pairs(&y, &x, 0.5);
        assert!(est.correlation.abs() < 0.2);
        // variance reduction factor close to 1
        let red = est.variance_reduction();
        assert!(red > 0.8 && red < 1.3, "reduction {red}");
    }

    #[test]
    fn degenerate_control_falls_back_to_plain_mean() {
        let y = vec![1.0, 2.0, 3.0];
        let x = vec![5.0, 5.0, 5.0];
        let est = CvEstimate::from_pairs(&y, &x, 5.0);
        assert_eq!(est.beta, 0.0);
        assert!((est.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unbiasedness_over_repeated_trials() {
        // Y_i = X_i + noise; E[Y] = 0.5 + 0 = 0.5 with X ~ U(0,1), mu_x known.
        let mut rng = StdRng::seed_from_u64(9);
        let mut cv_means = Vec::new();
        let mut plain_means = Vec::new();
        for _ in 0..200 {
            let x: Vec<f64> = (0..30).map(|_| rng.gen_range(0.0..1.0)).collect();
            let y: Vec<f64> = x.iter().map(|&v| v + rng.gen_range(-0.1..0.1)).collect();
            let est = CvEstimate::from_pairs(&y, &x, 0.5);
            cv_means.push(est.mean);
            plain_means.push(est.plain.mean);
        }
        let cv_avg = cv_means.iter().sum::<f64>() / cv_means.len() as f64;
        assert!((cv_avg - 0.5).abs() < 0.02, "cv estimator should stay unbiased, got {cv_avg}");
        // empirical variance across trials is smaller with CV
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|a| (a - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64
        };
        assert!(var(&cv_means) < var(&plain_means) * 0.5, "cv {} plain {}", var(&cv_means), var(&plain_means));
    }

    #[test]
    fn estimated_control_mean_variant() {
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let x = vec![1.1, 2.1, 2.9, 4.2];
        let est = CvEstimate::with_estimated_control_mean(&y, &x);
        // with mu_x = x̄ the point estimate equals the plain mean
        assert!((est.mean - est.plain.mean).abs() < 1e-12);
        assert!(est.correlation > 0.99);
        assert!(est.variance_of_mean < est.plain.variance_of_mean);
    }

    #[test]
    fn single_observation_is_handled() {
        let est = CvEstimate::from_pairs(&[2.0], &[1.0], 1.0);
        assert_eq!(est.mean, 2.0);
        assert_eq!(est.beta, 0.0);
    }
}
