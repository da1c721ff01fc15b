//! Multiple control variates (Sec. III-A).
//!
//! With a vector of controls `Z = (Z₁ … Z_d)` and estimated means `μ_Z`, the
//! estimator `Ȳ − βᵀ(Z̄ − μ_Z)` with `β* = Σ_ZZ⁻¹ Σ_YZ` is unbiased and has
//! variance `(1 − R²)·Var(Ȳ)`, where `R²` is the squared multiple correlation
//! coefficient — the fraction of the variance of `Ȳ` explained by the
//! controls. Queries involving several objects and constraints supply one
//! control per constraint (each evaluated by a cheap filter).

use crate::estimate::SampleStats;
use crate::linalg::{Matrix, Moments};
use serde::{Deserialize, Serialize};

/// The result of a multiple-control-variate estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McvEstimate {
    /// The point estimate of `E[Y]`.
    pub mean: f64,
    /// Estimated variance of the point estimate.
    pub variance_of_mean: f64,
    /// Fitted coefficient vector `β*` (one per control).
    pub beta: Vec<f64>,
    /// Squared multiple correlation coefficient `R²`.
    pub r_squared: f64,
    /// Statistics of the plain (no-CV) estimator on the same sample.
    pub plain: SampleStats,
}

impl McvEstimate {
    /// Computes the MCV estimate.
    ///
    /// `y` has one entry per sample; `controls` has one *series* per control,
    /// each parallel to `y`; `mu` has one entry per control (the control
    /// means). Degenerate or collinear controls are handled by dropping the
    /// regression (falling back to the plain mean) when the covariance matrix
    /// cannot be solved even with slight ridge regularisation.
    pub fn from_samples(y: &[f64], controls: &[Vec<f64>], mu: &[f64]) -> Self {
        assert_eq!(mu.len(), controls.len(), "one mean per control required");
        Self::from_moments(&Moments::of(y, controls), 1, mu)
    }

    /// [`McvEstimate::from_samples`] from a moment pass over `y` and its
    /// controls, with the `mu.len()` series from series `first` on as `Z`.
    pub fn from_moments(moments: &Moments, first: usize, mu: &[f64]) -> Self {
        let plain = SampleStats::from_moments(moments);
        let d = mu.len();
        let n = moments.n();
        let fallback = |plain: SampleStats| McvEstimate {
            mean: plain.mean,
            variance_of_mean: plain.variance_of_mean,
            beta: vec![0.0; d],
            r_squared: 0.0,
            plain,
        };
        if d == 0 || n < d + 2 {
            return fallback(plain);
        }
        let var_y = moments.cov(0, 0);
        if var_y <= 1e-15 {
            return McvEstimate { mean: plain.mean, variance_of_mean: 0.0, beta: vec![0.0; d], r_squared: 1.0, plain };
        }
        // Σ_ZZ and Σ_YZ
        let mut szz = Matrix::zeros(d, d);
        for i in 0..d {
            for j in 0..d {
                szz.set(i, j, moments.cov(first + i, first + j));
            }
        }
        let syz: Vec<f64> = (0..d).map(|i| moments.cov(0, first + i)).collect();
        let Some(beta) = szz.solve(&syz).or_else(|| szz.ridge(1e-9).solve(&syz)) else {
            return fallback(plain);
        };
        // R² = Σ'_YZ Σ_ZZ⁻¹ Σ_YZ / σ²_Y = βᵀ Σ_YZ / σ²_Y
        let explained: f64 = beta.iter().zip(&syz).map(|(b, s)| b * s).sum();
        let r_squared = (explained / var_y).clamp(0.0, 1.0);
        // point estimate
        let correction: f64 = beta.iter().enumerate().map(|(i, b)| b * (moments.mean(first + i) - mu[i])).sum();
        let mean = plain.mean - correction;
        let variance_of_mean = ((1.0 - r_squared) * var_y / n as f64).max(0.0);
        McvEstimate { mean, variance_of_mean, beta, r_squared, plain }
    }

    /// Variance-reduction factor relative to the plain estimator.
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
    fn two_controls_explain_more_than_one() {
        // Y = Z1 + Z2 + noise.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 400;
        let z1: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let z2: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let y: Vec<f64> = (0..n).map(|i| z1[i] + z2[i] + rng.gen_range(-0.05..0.05)).collect();
        let one = McvEstimate::from_samples(&y, std::slice::from_ref(&z1), &[0.5]);
        let both = McvEstimate::from_samples(&y, &[z1, z2], &[0.5, 0.5]);
        assert!(both.r_squared > one.r_squared);
        assert!(both.variance_of_mean < one.variance_of_mean);
        assert!(both.variance_reduction() > 5.0);
        assert!((both.mean - 1.0).abs() < 0.05);
        // betas should be close to (1, 1)
        assert!((both.beta[0] - 1.0).abs() < 0.2 && (both.beta[1] - 1.0).abs() < 0.2);
    }

    #[test]
    fn no_controls_is_plain_estimate() {
        let y = vec![1.0, 2.0, 3.0];
        let est = McvEstimate::from_samples(&y, &[], &[]);
        assert_eq!(est.mean, 2.0);
        assert_eq!(est.r_squared, 0.0);
        assert!(est.beta.is_empty());
    }

    #[test]
    fn collinear_controls_do_not_explode() {
        let z: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let z_dup = z.clone();
        let y: Vec<f64> = z.iter().map(|v| v * 2.0).collect();
        let est = McvEstimate::from_samples(&y, &[z, z_dup], &[24.5, 24.5]);
        assert!(est.mean.is_finite());
        assert!(est.r_squared > 0.95);
    }

    #[test]
    fn constant_y_has_zero_variance() {
        let y = vec![3.0; 20];
        let z: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let est = McvEstimate::from_samples(&y, &[z], &[9.5]);
        assert_eq!(est.variance_of_mean, 0.0);
        assert_eq!(est.mean, 3.0);
    }

    #[test]
    fn too_few_samples_falls_back() {
        let y = vec![1.0, 2.0];
        let z = vec![vec![0.5, 0.6], vec![0.7, 0.8]];
        let est = McvEstimate::from_samples(&y, &z, &[0.5, 0.7]);
        assert_eq!(est.mean, 1.5);
        assert_eq!(est.beta, vec![0.0, 0.0]);
    }

    #[test]
    fn unbiased_over_trials() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut means = Vec::new();
        for _ in 0..150 {
            let n = 40;
            let z1: Vec<f64> = (0..n).map(|_| if rng.gen::<f64>() < 0.3 { 1.0 } else { 0.0 }).collect();
            let z2: Vec<f64> = (0..n).map(|_| if rng.gen::<f64>() < 0.6 { 1.0 } else { 0.0 }).collect();
            let y: Vec<f64> = (0..n).map(|i| if z1[i] > 0.5 && z2[i] > 0.5 { 1.0 } else { 0.0 }).collect();
            let est = McvEstimate::from_samples(&y, &[z1, z2], &[0.3, 0.6]);
            means.push(est.mean);
        }
        let avg = means.iter().sum::<f64>() / means.len() as f64;
        assert!((avg - 0.18).abs() < 0.03, "average estimate {avg} should approximate P(Z1∧Z2)=0.18");
    }
}
