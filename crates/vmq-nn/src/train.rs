//! Mini-batch training utilities: sample order, batching, epoch statistics.
//!
//! The filter networks in `vmq-filters` have multi-head architectures with
//! bespoke losses (Eq. 2 / Eq. 3) and therefore implement their own epoch
//! loops; they share the batching, shuffling and bookkeeping defined here.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Summary statistics for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean loss over all samples in the epoch.
    pub mean_loss: f32,
    /// Number of samples seen.
    pub samples: usize,
}

/// Returns a (possibly shuffled) permutation of `0..n`.
pub fn sample_order(n: usize, shuffle: bool, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    if shuffle {
        idx.shuffle(rng);
    }
    idx
}

/// Splits an index permutation into batches of at most `batch_size`.
pub fn batches(order: &[usize], batch_size: usize) -> std::slice::Chunks<'_, usize> {
    assert!(batch_size > 0, "batch size must be positive");
    order.chunks(batch_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn sample_order_is_permutation() {
        let mut rng = seeded_rng(0);
        let order = sample_order(10, true, &mut rng);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn batches_cover_all_indices() {
        let order: Vec<usize> = (0..10).collect();
        let bs: Vec<&[usize]> = batches(&order, 3).collect();
        assert_eq!(bs.len(), 4);
        assert_eq!(bs.iter().map(|b| b.len()).sum::<usize>(), 10);
        assert_eq!(bs[3], [9]);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = batches(&[0, 1], 0);
    }
}
