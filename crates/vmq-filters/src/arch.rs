//! Shared network-construction helpers for the filter architectures.
//!
//! The paper attaches its branches to the first layers of pre-trained VGG19
//! (IC) or Darknet-19 (OD). Pre-trained trunks are not available here, so the
//! trunks are miniature convolutional stacks trained from scratch; their
//! structure (convolutions interleaved with 2×2 max-pooling until the spatial
//! size equals the grid size `g`) mirrors the role the first `k` layers of the
//! backbone networks play in the paper.

use crate::config::FilterConfig;
use vmq_nn::layer::{Act, Activation, Conv2d, MaxPool2d};
use vmq_nn::net::Sequential;

/// Builds a trunk for the given configuration.
///
/// The trunk maps a `[3, R, R]` raster to a `[d, g, g]` feature map where
/// `d = config.feature_channels()` and `g = config.grid`: each of the first
/// `pool_stages()` convolutions is followed by a 2×2 max-pool, any remaining
/// convolutions run at grid resolution. `act` selects the nonlinearity (ReLU
/// for the IC/VGG-style trunk, LeakyReLU for the OD/Darknet-style trunk) and
/// `seed` controls weight initialisation.
pub fn build_trunk(config: &FilterConfig, act: Act, seed: u64) -> Sequential {
    let pools = config.pool_stages();
    let mut layers: Vec<Box<dyn vmq_nn::layer::Layer>> = Vec::new();
    let mut in_ch = 3usize;
    for (i, &out_ch) in config.trunk_channels.iter().enumerate() {
        layers.push(Box::new(Conv2d::same(in_ch, out_ch, seed.wrapping_add(i as u64 * 13 + 1))));
        layers.push(Box::new(Activation::new(act)));
        if i < pools {
            layers.push(Box::new(MaxPool2d::new(2)));
        }
        in_ch = out_ch;
    }
    Sequential::new(layers)
}

/// Builds the OD branch of Fig. 4: convolutions at grid resolution that keep
/// the spatial size, using LeakyReLU activations.
pub fn build_branch(in_channels: usize, branch_channels: usize, depth: usize, seed: u64) -> Sequential {
    let mut layers: Vec<Box<dyn vmq_nn::layer::Layer>> = Vec::new();
    let mut in_ch = in_channels;
    for i in 0..depth.max(1) {
        layers.push(Box::new(Conv2d::same(in_ch, branch_channels, seed.wrapping_add(100 + i as u64 * 7))));
        layers.push(Box::new(Activation::new(Act::LeakyRelu(0.1))));
        in_ch = branch_channels;
    }
    Sequential::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmq_nn::Tensor;
    use vmq_video::ObjectClass;

    #[test]
    fn trunk_output_matches_grid() {
        let config = FilterConfig::fast_test(vec![ObjectClass::Car]);
        let trunk = build_trunk(&config, Act::Relu, 1);
        let x = Tensor::zeros(vec![3, config.raster.height, config.raster.width]);
        let y = trunk.infer(&x, &mut vmq_nn::Workspace::new());
        assert_eq!(y.shape(), &[config.feature_channels(), config.grid, config.grid]);
    }

    #[test]
    fn trunk_with_two_pools() {
        let config = FilterConfig::experiment(vec![ObjectClass::Car, ObjectClass::Bus]);
        let trunk = build_trunk(&config, Act::LeakyRelu(0.1), 2);
        let x = Tensor::zeros(vec![3, 56, 56]);
        let y = trunk.infer(&x, &mut vmq_nn::Workspace::new());
        assert_eq!(y.shape(), &[16, 14, 14]);
    }

    #[test]
    fn branch_preserves_spatial_size() {
        let branch = build_branch(12, 16, 2, 3);
        let x = Tensor::zeros(vec![12, 14, 14]);
        let y = branch.infer(&x, &mut vmq_nn::Workspace::new());
        assert_eq!(y.shape(), &[16, 14, 14]);
    }

    #[test]
    fn different_seeds_give_different_weights() {
        let config = FilterConfig::fast_test(vec![ObjectClass::Car]);
        let a = build_trunk(&config, Act::Relu, 1);
        let b = build_trunk(&config, Act::Relu, 2);
        let pa = a.parameters().first().map(|p| p.value.clone()).unwrap();
        let pb = b.parameters().first().map(|p| p.value.clone()).unwrap();
        assert_ne!(pa, pb);
    }
}
