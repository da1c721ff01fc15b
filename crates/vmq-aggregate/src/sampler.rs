//! Frame sampling for aggregate estimation.

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// A deterministic sampler of frame indices.
#[derive(Debug, Clone)]
pub struct FrameSampler {
    seed: u64,
}

impl FrameSampler {
    /// Creates a sampler with a seed.
    pub fn new(seed: u64) -> Self {
        FrameSampler { seed }
    }

    /// Samples `k` distinct indices from `0..n` (simple random sampling
    /// without replacement). When `k >= n` all indices are returned. The
    /// `trial` number lets repeated estimations (the paper runs each
    /// aggregate query one hundred times) draw independent samples while
    /// remaining reproducible.
    pub fn sample_indices(&self, n: usize, k: usize, trial: u64) -> Vec<usize> {
        if n == 0 {
            return Vec::new();
        }
        if k >= n {
            return (0..n).collect();
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut idx = sample(&mut rng, n, k).into_vec();
        idx.sort_unstable();
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_distinct_and_in_range() {
        let s = FrameSampler::new(7);
        let idx = s.sample_indices(100, 20, 0);
        assert_eq!(idx.len(), 20);
        let mut dedup = idx.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
        assert!(idx.iter().all(|&i| i < 100));
    }

    #[test]
    fn deterministic_per_trial() {
        let s = FrameSampler::new(7);
        assert_eq!(s.sample_indices(50, 10, 3), s.sample_indices(50, 10, 3));
        assert_ne!(s.sample_indices(50, 10, 3), s.sample_indices(50, 10, 4));
    }

    #[test]
    fn oversampling_returns_everything() {
        let s = FrameSampler::new(1);
        assert_eq!(s.sample_indices(5, 10, 0), vec![0, 1, 2, 3, 4]);
        assert!(s.sample_indices(0, 10, 0).is_empty());
    }
}
