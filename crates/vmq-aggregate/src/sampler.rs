//! Frame sampling for aggregate estimation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic sampler of frame indices.
#[derive(Debug, Clone)]
pub struct FrameSampler {
    seed: u64,
}

/// Reusable buffers of [`FrameSampler::sample_into`].
#[derive(Debug, Clone, Default)]
pub struct SampleScratch {
    /// The identity permutation of `0..pool.len()` between draws.
    pool: Vec<usize>,
    /// One bit per population index: drawn in the current draw.
    drawn: Vec<u64>,
}

impl FrameSampler {
    /// Creates a sampler with a seed.
    pub fn new(seed: u64) -> Self {
        FrameSampler { seed }
    }

    /// Samples `k` distinct indices from `0..n` (simple random sampling
    /// without replacement), ascending. When `k >= n` all indices are
    /// returned. The `trial` number lets repeated estimations (the paper runs
    /// each aggregate query one hundred times) draw independent samples while
    /// remaining reproducible.
    pub fn sample_indices(&self, n: usize, k: usize, trial: u64) -> Vec<usize> {
        let mut out = Vec::new();
        self.sample_into(n, k, trial, &mut SampleScratch::default(), &mut out);
        out
    }

    /// [`FrameSampler::sample_indices`] into `out`, reusing `scratch`: a
    /// partial Fisher–Yates shuffle of `k` swaps over the identity
    /// permutation, with the drawn indices read out ascending from a bitset —
    /// `O(k + n / 64)` once the pool has grown to `n`.
    ///
    /// The draw leaves the pool as it found it by resetting exactly the
    /// positions its swaps touched: the first `k`, and every drawn value
    /// `v ≥ k` — such a value can only have been swapped in from its own
    /// position `v`, and every position past `k` a swap touched gave its
    /// value to the drawn prefix for good.
    pub fn sample_into(&self, n: usize, k: usize, trial: u64, scratch: &mut SampleScratch, out: &mut Vec<usize>) {
        out.clear();
        if k >= n {
            out.extend(0..n);
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let SampleScratch { pool, drawn } = scratch;
        if pool.len() < n {
            pool.extend(pool.len()..n);
        }
        for i in 0..k {
            let j = rng.gen_range(i..n);
            pool.swap(i, j);
        }
        drawn.clear();
        drawn.resize(n.div_ceil(64), 0);
        for i in 0..k {
            let v = pool[i];
            drawn[v / 64] |= 1 << (v % 64);
            if v >= k {
                pool[v] = v;
            }
            pool[i] = i;
        }
        for (w, &word) in drawn.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
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
