//! Property-based tests of the estimators and the small linear algebra.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmq_aggregate::linalg::covariance;
use vmq_aggregate::{CvEstimate, FrameSampler, Matrix, McvEstimate, Moments, SampleScratch, SampleStats};

/// The estimators as first written — one serial `covariance` pass per
/// moment — kept as the reference the fused moment pass must match bit for
/// bit.
mod reference {
    use vmq_aggregate::Matrix;

    pub fn covariance(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        if n < 2 {
            return 0.0;
        }
        let mx = x.iter().sum::<f64>() / n as f64;
        let my = y.iter().sum::<f64>() / n as f64;
        x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum::<f64>() / (n - 1) as f64
    }

    /// `(mean, variance, variance_of_mean)` of the plain estimator.
    pub fn plain(y: &[f64]) -> [f64; 3] {
        let n = y.len();
        if n == 0 {
            return [0.0; 3];
        }
        let var = covariance(y, y);
        [y.iter().sum::<f64>() / n as f64, var, var / n as f64]
    }

    /// `(mean, variance_of_mean, beta, correlation)` of the single CV.
    pub fn cv(y: &[f64], x: &[f64], mu_x: f64) -> [f64; 4] {
        let [mean, _, vom] = plain(y);
        let n = y.len();
        if n < 2 {
            return [mean, vom, 0.0, 0.0];
        }
        let (var_x, var_y) = (covariance(x, x), covariance(y, y));
        if var_x <= 1e-15 || var_y <= 1e-15 {
            return [mean, vom, 0.0, 0.0];
        }
        let cov = covariance(y, x);
        let beta = cov / var_x;
        let rho = cov / (var_x.sqrt() * var_y.sqrt());
        let x_bar = x.iter().sum::<f64>() / n as f64;
        [mean - beta * (x_bar - mu_x), ((1.0 - rho * rho) * var_y / n as f64).max(0.0), beta, rho]
    }

    /// `(mean, variance_of_mean, r_squared)` and `beta` of the MCV.
    pub fn mcv(y: &[f64], z: &[Vec<f64>], mu: &[f64]) -> ([f64; 3], Vec<f64>) {
        let [mean, _, vom] = plain(y);
        let (d, n) = (z.len(), y.len());
        if d == 0 || n < d + 2 {
            return ([mean, vom, 0.0], vec![0.0; d]);
        }
        let var_y = covariance(y, y);
        if var_y <= 1e-15 {
            return ([mean, 0.0, 1.0], vec![0.0; d]);
        }
        let mut szz = Matrix::zeros(d, d);
        for i in 0..d {
            for j in 0..d {
                szz.set(i, j, covariance(&z[i], &z[j]));
            }
        }
        let syz: Vec<f64> = (0..d).map(|i| covariance(y, &z[i])).collect();
        let Some(beta) = szz.solve(&syz).or_else(|| szz.ridge(1e-9).solve(&syz)) else {
            return ([mean, vom, 0.0], vec![0.0; d]);
        };
        let explained: f64 = beta.iter().zip(&syz).map(|(b, s)| b * s).sum();
        let r_squared = (explained / var_y).clamp(0.0, 1.0);
        let z_bar: Vec<f64> = z.iter().map(|s| s.iter().sum::<f64>() / n as f64).collect();
        let correction: f64 = beta.iter().zip(z_bar.iter().zip(mu)).map(|(b, (zb, m))| b * (zb - m)).sum();
        ([mean - correction, ((1.0 - r_squared) * var_y / n as f64).max(0.0), r_squared], beta)
    }
}

/// A series of `n` values of one of several shapes: 0/1 indicators, graded
/// values, a constant, or a copy of `like` (collinear controls). A constant
/// like 0.1 has a mean a rounding step off its value, so its centred values
/// are all ±ε and a product with a centred constant is −0.0 throughout: the
/// case where the accumulators' −0.0 start value shows.
fn series(rng: &mut StdRng, n: usize, like: &[f64]) -> Vec<f64> {
    match rng.gen_range(0..5) {
        0 => (0..n).map(|_| if rng.gen::<f64>() < 0.3 { 1.0 } else { 0.0 }).collect(),
        1 => (0..n).map(|_| rng.gen::<f64>()).collect(),
        2 => vec![[0.0, 1.0, 0.5, 0.1, 0.7][rng.gen_range(0usize..5)]; n],
        3 if like.len() == n => like.to_vec(),
        _ => (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    }
}

/// The naive draw: materialise `0..n`, run the partial Fisher–Yates shuffle
/// with the `u128` modulo, keep `k`, sort.
fn naive_sample(seed: u64, n: usize, k: usize, trial: u64) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + (rng.gen::<u64>() as u128 % (n - i) as u128) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool.sort_unstable();
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Solving `A x = b` for a diagonally dominant matrix recovers the vector
    /// used to produce `b`.
    #[test]
    fn solve_recovers_solution(off in prop::collection::vec(-1.0f64..1.0, 9), x_true in prop::collection::vec(-5.0f64..5.0, 3)) {
        let mut m = Matrix::zeros(3, 3);
        for r in 0..3 {
            for c in 0..3 {
                m.set(r, c, off[r * 3 + c]);
            }
            // make it diagonally dominant so it is well conditioned
            m.set(r, r, 4.0 + off[r * 3 + r].abs());
        }
        let b = m.matvec(&x_true);
        let x = m.solve(&b).expect("diagonally dominant matrices are solvable");
        for (a, e) in x.iter().zip(&x_true) {
            prop_assert!((a - e).abs() < 1e-6, "{a} vs {e}");
        }
    }

    /// Sample statistics: the mean lies between min and max, the variance is
    /// non-negative and the confidence interval brackets the mean.
    #[test]
    fn sample_stats_are_consistent(values in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let stats = SampleStats::from_sample(&values);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(stats.mean >= min - 1e-9 && stats.mean <= max + 1e-9);
        prop_assert!(stats.variance >= 0.0);
        let (lo, hi) = stats.confidence_interval(1.96);
        prop_assert!(lo <= stats.mean && stats.mean <= hi);
    }

    /// The CV estimator with the control's own sample mean as `μ_X` equals the
    /// plain mean (algebraic identity), and its estimated variance never
    /// exceeds the plain variance estimate.
    #[test]
    fn cv_identity_and_variance_bound(y in prop::collection::vec(0.0f64..1.0, 3..60), shift in -0.5f64..0.5) {
        let x: Vec<f64> = y.iter().map(|v| v + shift * v).collect();
        let est = CvEstimate::with_estimated_control_mean(&y, &x);
        prop_assert!((est.mean - est.plain.mean).abs() < 1e-9);
        prop_assert!(est.variance_of_mean <= est.plain.variance_of_mean + 1e-12);
        prop_assert!(est.correlation.abs() <= 1.0 + 1e-9);
    }

    /// The MCV estimator is exact (zero variance, correct mean) when the
    /// controls linearly determine Y.
    #[test]
    fn mcv_exact_for_linear_targets(z1 in prop::collection::vec(0.0f64..1.0, 12..40), a in -2.0f64..2.0, b in -2.0f64..2.0) {
        let z2: Vec<f64> = z1.iter().map(|v| (v * 7.3).sin()).collect();
        let y: Vec<f64> = z1.iter().zip(&z2).map(|(u, v)| a * u + b * v).collect();
        let mu = [z1.iter().sum::<f64>() / z1.len() as f64, z2.iter().sum::<f64>() / z2.len() as f64];
        let est = McvEstimate::from_samples(&y, &[z1, z2], &mu);
        // R² should be (near) 1 and the estimate equal to the plain mean
        prop_assert!(est.r_squared > 0.98 || est.plain.variance < 1e-12);
        prop_assert!((est.mean - est.plain.mean).abs() < 1e-6);
        prop_assert!(est.variance_of_mean <= est.plain.variance_of_mean + 1e-12);
    }

    /// The sampler returns distinct, in-range, sorted indices of the right
    /// cardinality for every population / sample size / trial.
    #[test]
    fn sampler_invariants(n in 1usize..500, k in 1usize..100, trial in 0u64..50, seed in 0u64..50) {
        let sampler = FrameSampler::new(seed);
        let idx = sampler.sample_indices(n, k, trial);
        prop_assert_eq!(idx.len(), k.min(n));
        prop_assert!(idx.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        prop_assert!(idx.iter().all(|&i| i < n));
    }

    /// The pooled, bitset-ordered draw equals the naive one for every
    /// population, sample size and trial key — with one scratch reused
    /// across draws of different populations, so the pool is restored to
    /// the identity after each.
    #[test]
    fn sampler_matches_the_naive_draw(n in 0usize..=1200, k_raw in 0usize..1203, seed in 0u64..u64::MAX, trial in 0u64..u64::MAX) {
        let sampler = FrameSampler::new(seed);
        let mut scratch = SampleScratch::default();
        let mut out = Vec::new();
        for (n, k) in [(n, k_raw % (n + 3)), (n / 3 + 1, k_raw % 7), (n, n.saturating_sub(1)), (n, n)] {
            for trial in [trial, trial ^ 1, (5 << 32) | (trial & 0xFF)] {
                sampler.sample_into(n, k, trial, &mut scratch, &mut out);
                prop_assert_eq!(&out, &naive_sample(seed, n, k, trial));
                prop_assert_eq!(sampler.sample_indices(n, k, trial), out.clone());
            }
        }
    }

    /// `gen_range` on 64-bit integer ranges equals the `u128` formula
    /// `start + next_u64 mod span`, inclusive and exclusive, including the
    /// full 2^64 span.
    #[test]
    fn gen_range_matches_the_u128_formula(seed in 0u64..u64::MAX, a in 0u64..u64::MAX, b in 0u64..u64::MAX, small in 1u64..2000) {
        let (lo, hi) = (a.min(b), a.max(b));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut raw = StdRng::seed_from_u64(seed);
        let mut formula = |start: i128, span: u128| start + (raw.gen::<u64>() as u128 % span) as i128;
        for _ in 0..4 {
            if lo < hi {
                prop_assert_eq!(rng.gen_range(lo..hi) as i128, formula(lo as i128, (hi - lo) as u128));
            }
            prop_assert_eq!(rng.gen_range(lo..=hi) as i128, formula(lo as i128, (hi - lo) as u128 + 1));
            prop_assert_eq!(rng.gen_range(0..=u64::MAX) as i128, formula(0, 1 << 64));
            let (slo, shi) = (lo as i64, (lo as i64).wrapping_add(small as i64).max(lo as i64));
            prop_assert_eq!(rng.gen_range(slo..=shi) as i128, formula(slo as i128, (shi as i128 - slo as i128) as u128 + 1));
            prop_assert_eq!(rng.gen_range(i64::MIN..i64::MAX) as i128, formula(i64::MIN as i128, u64::MAX as u128));
            prop_assert_eq!(rng.gen_range(i64::MIN..=i64::MAX) as i128, formula(i64::MIN as i128, 1 << 64));
            let (ulo, uhi) = (lo as usize % 1000, lo as usize % 1000 + small as usize);
            prop_assert_eq!(rng.gen_range(ulo..uhi) as i128, formula(ulo as i128, (uhi - ulo) as u128));
            prop_assert_eq!(rng.gen_range(ulo..=uhi) as i128, formula(ulo as i128, (uhi - ulo) as u128 + 1));
        }
    }

    /// The estimators built on one fused moment pass equal the serial
    /// per-moment reference bit for bit, on every fallback branch: tiny
    /// samples, constant and collinear series, zero to four controls.
    #[test]
    fn moment_pass_estimators_match_the_serial_reference(seed in 0u64..u64::MAX, small in prop::bool::ANY, d in 0usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = if small { rng.gen_range(0..8) } else { rng.gen_range(8..60) };
        let y = series(&mut rng, n, &[]);
        let x = series(&mut rng, n, &y);
        let mut z: Vec<Vec<f64>> = Vec::new();
        for _ in 0..d {
            let like = z.last().cloned().unwrap_or_else(|| x.clone());
            z.push(series(&mut rng, n, &like));
        }
        let mu: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
        let mu_x = rng.gen::<f64>();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();

        let [mean, variance, vom] = reference::plain(&y);
        let stats = SampleStats::from_sample(&y);
        prop_assert_eq!(bits(&[stats.mean, stats.variance, stats.variance_of_mean]), bits(&[mean, variance, vom]));

        let cv = CvEstimate::from_pairs(&y, &x, mu_x);
        prop_assert_eq!(bits(&[cv.mean, cv.variance_of_mean, cv.beta, cv.correlation]), bits(&reference::cv(&y, &x, mu_x)));
        prop_assert_eq!(cv.plain, stats);

        let mcv = McvEstimate::from_samples(&y, &z, &mu);
        let (want, want_beta) = reference::mcv(&y, &z, &mu);
        prop_assert_eq!(bits(&[mcv.mean, mcv.variance_of_mean, mcv.r_squared]), bits(&want));
        prop_assert_eq!(bits(&mcv.beta), bits(&want_beta));

        // Both fits from one pass over `y`, `x` and the `z` series.
        let mut controls = vec![x.clone()];
        controls.extend(z.iter().cloned());
        let moments = Moments::of(&y, &controls);
        prop_assert_eq!(format!("{:?}", CvEstimate::from_moments(&moments, 1, mu_x)), format!("{cv:?}"));
        prop_assert_eq!(format!("{:?}", McvEstimate::from_moments(&moments, 2, &mu)), format!("{mcv:?}"));
        prop_assert_eq!(covariance(&y, &x).to_bits(), reference::covariance(&y, &x).to_bits());
    }

    /// On a synthetic population of correlated binary indicators (control
    /// `Z ~ Bern(p)`, target `Y = Z` flipped with a small noise rate), the
    /// CV and MCV estimators stay unbiased: the mean of the per-trial
    /// estimates lands inside a generous confidence band around the
    /// population truth, trial samples drawn by the real `FrameSampler`.
    #[test]
    fn cv_mcv_unbiased_on_correlated_indicators(seed in 0u64..400, p in 0.25f64..0.75, noise in 0.0f64..0.25) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 400usize;
        let z: Vec<f64> = (0..n).map(|_| if rng.gen::<f64>() < p { 1.0 } else { 0.0 }).collect();
        let y: Vec<f64> =
            z.iter().map(|&v| if rng.gen::<f64>() < noise { 1.0 - v } else { v }).collect();
        let mu_z = z.iter().sum::<f64>() / n as f64;
        let truth = y.iter().sum::<f64>() / n as f64;

        let sampler = FrameSampler::new(seed ^ 0x5eed);
        let (trials, k) = (60usize, 40usize);
        let mut cv_means = Vec::with_capacity(trials);
        let mut mcv_means = Vec::with_capacity(trials);
        for trial in 0..trials {
            let idx = sampler.sample_indices(n, k, trial as u64);
            let ys: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
            let zs: Vec<f64> = idx.iter().map(|&i| z[i]).collect();
            cv_means.push(CvEstimate::from_pairs(&ys, &zs, mu_z).mean);
            mcv_means.push(McvEstimate::from_samples(&ys, std::slice::from_ref(&zs), &[mu_z]).mean);
        }
        // Std error of the mean of `trials` means, each from `k` draws, is
        // at most sqrt(1/4 / (k * trials)); allow five of those.
        let bound = 5.0 * (0.25 / (k * trials) as f64).sqrt();
        let cv_avg = cv_means.iter().sum::<f64>() / trials as f64;
        let mcv_avg = mcv_means.iter().sum::<f64>() / trials as f64;
        prop_assert!((cv_avg - truth).abs() < bound, "cv {cv_avg} vs truth {truth} (bound {bound})");
        prop_assert!((mcv_avg - truth).abs() < bound, "mcv {mcv_avg} vs truth {truth} (bound {bound})");
    }

    /// The fitted MCV coefficient vector satisfies the normal equations
    /// `Σ_ZZ β* = Σ_YZ` (checked against `linalg::Matrix`'s own matvec), on
    /// well-conditioned two-control samples.
    #[test]
    fn mcv_beta_satisfies_normal_equations(seed in 0u64..1000, n in 30usize..120, a in -2.0f64..2.0, b in -2.0f64..2.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let z1: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let z2: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let y: Vec<f64> =
            (0..n).map(|i| a * z1[i] + b * z2[i] + rng.gen_range(-0.2..0.2)).collect();
        let mu = [0.5, 0.5];
        let est = McvEstimate::from_samples(&y, &[z1.clone(), z2.clone()], &mu);
        // Two independent uniform controls are never collinear at these
        // sizes, so the regression must actually have been solved.
        prop_assert_eq!(est.beta.len(), 2);

        let controls = [z1, z2];
        let mut szz = Matrix::zeros(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                szz.set(i, j, covariance(&controls[i], &controls[j]));
            }
        }
        let syz: Vec<f64> = (0..2).map(|i| covariance(&y, &controls[i])).collect();
        let lhs = szz.matvec(&est.beta);
        for (l, r) in lhs.iter().zip(&syz) {
            prop_assert!((l - r).abs() < 1e-8, "normal equations violated: {l} vs {r} (beta {:?})", est.beta);
        }
    }
}
