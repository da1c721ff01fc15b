//! A small generic training loop for [`Sequential`] networks.
//!
//! The filter networks in `vmq-filters` have multi-head architectures with
//! bespoke losses (Eq. 2 / Eq. 3) and therefore implement their own epoch
//! loops, but they reuse the batching, shuffling and bookkeeping utilities
//! defined here next to the plain loop, [`fit`].

use crate::net::Sequential;
use crate::optim::Optimizer;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Hyper-parameters of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Gradients are averaged over this many samples before an optimiser step.
    pub batch_size: usize,
    /// Shuffle sample order every epoch.
    pub shuffle: bool,
    /// Stop early when the epoch loss drops below this value (if set).
    pub target_loss: Option<f32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 5, batch_size: 16, shuffle: true, target_loss: None }
    }
}

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

/// Trains `net` on `(input, target)` pairs with the given loss.
///
/// `loss_fn` returns `(loss, gradient_wrt_prediction)` for one sample. The
/// returned vector contains one [`EpochStats`] per completed epoch.
pub fn fit(
    net: &mut Sequential,
    data: &[(Tensor, Tensor)],
    loss_fn: &dyn Fn(&Tensor, &Tensor) -> (f32, Tensor),
    opt: &mut dyn Optimizer,
    config: &TrainConfig,
    rng: &mut StdRng,
) -> Vec<EpochStats> {
    let mut history = Vec::with_capacity(config.epochs);
    if data.is_empty() {
        return history;
    }
    let mut ws = Workspace::new();
    for epoch in 0..config.epochs {
        let order = sample_order(data.len(), config.shuffle, rng);
        let mut epoch_loss = 0.0f64;
        for batch in batches(&order, config.batch_size) {
            net.zero_grad();
            for &i in batch {
                let (x, y) = &data[i];
                ws.load(x);
                net.forward_ws(&mut ws);
                let (loss, grad) = loss_fn(&ws.output(), y);
                epoch_loss += loss as f64;
                // average gradient over the batch
                ws.load(&grad.scale(1.0 / batch.len() as f32));
                net.backward_ws(&mut ws, false);
            }
            opt.step(&mut net.parameters());
        }
        let stats = EpochStats { epoch, mean_loss: (epoch_loss / data.len() as f64) as f32, samples: data.len() };
        history.push(stats);
        if let Some(target) = config.target_loss {
            if stats.mean_loss <= target {
                break;
            }
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::layer::{Act, Activation, Dense};
    use crate::loss::mse_loss;
    use crate::optim::Adam;

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

    #[test]
    fn fit_learns_linear_function() {
        // y = 3x - 1, learnable by a 1-layer network.
        let mut rng = seeded_rng(7);
        let data: Vec<(Tensor, Tensor)> = (0..40)
            .map(|i| {
                let x = (i as f32 / 20.0) - 1.0;
                (Tensor::from_vec(vec![x], vec![1]), Tensor::from_vec(vec![3.0 * x - 1.0], vec![1]))
            })
            .collect();
        let mut net = Sequential::new(vec![Box::new(Dense::new(1, 1, 3))]);
        let mut opt = Adam::new(0.05);
        let config = TrainConfig { epochs: 120, batch_size: 8, shuffle: true, target_loss: Some(1e-4) };
        let history = fit(&mut net, &data, &mse_loss, &mut opt, &config, &mut rng);
        assert!(!history.is_empty());
        let last = history.last().unwrap();
        assert!(last.mean_loss < 0.05, "final loss {}", last.mean_loss);
        assert!(history[0].mean_loss > last.mean_loss, "loss should decrease");
    }

    #[test]
    fn fit_with_hidden_layer_learns_nonlinearity() {
        // y = |x| requires a nonlinearity.
        let mut rng = seeded_rng(11);
        let data: Vec<(Tensor, Tensor)> = (0..60)
            .map(|i| {
                let x = (i as f32 / 30.0) - 1.0;
                (Tensor::from_vec(vec![x], vec![1]), Tensor::from_vec(vec![x.abs()], vec![1]))
            })
            .collect();
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(1, 8, 1)),
            Box::new(Activation::new(Act::Relu)),
            Box::new(Dense::new(8, 1, 2)),
        ]);
        let mut opt = Adam::new(0.02);
        let config = TrainConfig { epochs: 150, batch_size: 10, shuffle: true, target_loss: Some(5e-3) };
        let history = fit(&mut net, &data, &mse_loss, &mut opt, &config, &mut rng);
        assert!(history.last().unwrap().mean_loss < 0.05);
    }

    #[test]
    fn fit_on_empty_data_is_noop() {
        let mut rng = seeded_rng(0);
        let mut net = Sequential::new(vec![Box::new(Dense::new(1, 1, 0))]);
        let mut opt = Adam::new(0.01);
        let history = fit(&mut net, &[], &mse_loss, &mut opt, &TrainConfig::default(), &mut rng);
        assert!(history.is_empty());
    }

    #[test]
    fn early_stop_truncates_history() {
        let mut rng = seeded_rng(1);
        let data = vec![(Tensor::from_vec(vec![0.0], vec![1]), Tensor::from_vec(vec![0.0], vec![1]))];
        let mut net = Sequential::new(vec![Box::new(Dense::new(1, 1, 0))]);
        let mut opt = Adam::new(0.0); // no learning needed; loss may already be tiny
        let config = TrainConfig { epochs: 50, batch_size: 1, shuffle: false, target_loss: Some(f32::MAX) };
        let history = fit(&mut net, &data, &mse_loss, &mut opt, &config, &mut rng);
        assert_eq!(history.len(), 1, "should stop after the first epoch");
    }
}
