//! 2-D convolution layer: trains on the direct kernels in [`crate::grad`],
//! infers through the dispatched conv block in [`crate::kernels`].

use crate::grad::{conv2d_backward_input_into, conv2d_backward_params_into, conv2d_forward_into};
use crate::init::{kaiming_uniform, seeded_rng};
use crate::kernels::{conv2d_block_into, BlockAct};
use crate::layer::Layer;
use crate::net::Param;
use crate::ops::ConvSpec;
use crate::tensor::Tensor;
use crate::workspace::{Tape, Workspace};

/// A 2-D convolution over `CHW` tensors with square kernels.
///
/// The weight tensor is stored in the im2col-friendly layout
/// `[out_channels, in_channels * kernel * kernel]`.
pub struct Conv2d {
    spec: ConvSpec,
    weight: Param,
    bias: Param,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// `seed` makes the Kaiming initialisation deterministic.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        let spec = ConvSpec { in_channels, out_channels, kernel, stride, padding };
        let fan_in = in_channels * kernel * kernel;
        let mut rng = seeded_rng(seed.wrapping_mul(0x51_7C_C1_B7).wrapping_add(3));
        let weight = Param::new(kaiming_uniform(vec![out_channels, fan_in], fan_in, &mut rng));
        let bias = Param::new(Tensor::zeros(vec![out_channels]));
        Conv2d { spec, weight, bias }
    }

    /// Convenience constructor for the common 3×3 / stride-1 / pad-1 shape,
    /// which preserves spatial dimensions.
    pub fn same(in_channels: usize, out_channels: usize, seed: u64) -> Self {
        Conv2d::new(in_channels, out_channels, 3, 1, 1, seed)
    }

    /// The convolution specification (channels, kernel, stride, padding).
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// Read-only access to the `[out_channels, in_channels*k*k]` weight
    /// matrix (used by post-training quantization).
    pub fn weight(&self) -> &crate::tensor::Tensor {
        &self.weight.value
    }

    /// Read-only access to the bias vector.
    pub fn bias(&self) -> &crate::tensor::Tensor {
        &self.bias.value
    }

    /// Inference for this convolution together with the activation and the
    /// 2×2 max-pool that follow it, as one [`conv2d_block_into`] call — what
    /// [`crate::net::Sequential::infer_ws`] resolves a `Conv2d → Activation
    /// [→ MaxPool2d(2)]` run into. [`Layer::infer`] is the block with
    /// nothing after the convolution.
    pub(crate) fn infer_block(&self, ws: &mut Workspace, act: BlockAct, pool: bool) {
        debug_assert_eq!(ws.shape().len(), 3, "Conv2d expects CHW input");
        debug_assert_eq!(ws.shape()[0], self.spec.in_channels, "Conv2d channel mismatch");
        let (h, w) = (ws.shape()[1], ws.shape()[2]);
        let (mut oh, mut ow) = self.spec.out_size(h, w);
        {
            // The kernel uses `cols` as its padded-image scratch on the
            // direct 3×3 path and as the column matrix on the im2col
            // fallback.
            let (input, out, cols) = ws.split();
            let (weight, bias) = (self.weight.value.data(), self.bias.value.data());
            conv2d_block_into(input, h, w, &self.spec, weight, bias, act, pool, cols, out);
        }
        if pool {
            (oh, ow) = (oh / 2, ow / 2);
        }
        ws.commit(&[self.spec.out_channels, oh, ow]);
    }
}

impl Layer for Conv2d {
    /// Pushes the zero-padded input and its `[h, w]`.
    fn forward(&self, ws: &mut Workspace, tape: &mut Tape) {
        assert_eq!(ws.shape().len(), 3, "Conv2d expects CHW input");
        assert_eq!(ws.shape()[0], self.spec.in_channels, "Conv2d channel mismatch");
        let (h, w) = (ws.shape()[1], ws.shape()[2]);
        tape.idx.push().extend([h, w]);
        let (input, out, scratch) = ws.split();
        let (weight, bias) = (self.weight.value.data(), self.bias.value.data());
        conv2d_forward_into(input, h, w, &self.spec, weight, bias, tape.vals.push(), scratch, out);
        let (oh, ow) = self.spec.out_size(h, w);
        ws.commit(&[self.spec.out_channels, oh, ow]);
    }

    fn infer(&self, ws: &mut Workspace) {
        self.infer_block(ws, BlockAct::Identity, false);
    }

    fn backward(&self, ws: &mut Workspace, tape: &mut Tape, grad: &mut [f32], input_grad: bool) {
        let &[h, w] = tape.idx.pop() else { panic!("Conv2d::backward without its forward pass") };
        let xpad = tape.vals.pop();
        let (grad_out, grad_in, scratch) = ws.split();
        let (dw, db) = grad.split_at_mut(self.weight.len());
        conv2d_backward_params_into(xpad, h, w, &self.spec, grad_out, scratch, dw, db);
        if input_grad {
            conv2d_backward_input_into(self.weight.value.data(), h, w, &self.spec, grad_out, scratch, grad_in);
            ws.commit(&[self.spec.in_channels, h, w]);
        }
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{assert_flat, backward, forward, tape_capacities};

    #[test]
    fn same_conv_preserves_shape() {
        let c = Conv2d::same(2, 4, 0);
        let y = forward(&c, &mut Tape::default(), &Tensor::full(vec![2, 8, 8], 1.0));
        assert_eq!(y.shape(), &[4, 8, 8]);
    }

    #[test]
    fn stride_two_halves_spatial_dims() {
        let c = Conv2d::new(1, 3, 3, 2, 1, 0);
        let y = forward(&c, &mut Tape::default(), &Tensor::full(vec![1, 8, 8], 1.0));
        assert_eq!(y.shape(), &[3, 4, 4]);
    }

    #[test]
    fn gradient_check_small_conv() {
        // L = sum(conv(x)); finite-difference check of a few weight entries.
        let mut c = Conv2d::new(1, 2, 3, 1, 1, 5);
        let x = Tensor::from_vec((0..16).map(|v| (v as f32 * 0.21).sin()).collect(), vec![1, 4, 4]);
        let mut tape = Tape::default();
        let _y = forward(&c, &mut tape, &x);
        let gout = Tensor::full(vec![2, 4, 4], 1.0);
        let (gx, analytic_w) = backward(&c, &mut tape, &gout);
        let eps = 1e-3;
        let loss = |c: &Conv2d, x: &Tensor| forward(c, &mut Tape::default(), x).sum();
        for idx in [0usize, 3, 7, 12, 17] {
            let orig = c.weight.value.data()[idx];
            c.weight.value.data_mut()[idx] = orig + eps;
            let lp = loss(&c, &x);
            c.weight.value.data_mut()[idx] = orig - eps;
            let lm = loss(&c, &x);
            c.weight.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - analytic_w[idx]).abs() < 2e-2, "w[{idx}] {numeric} vs {}", analytic_w[idx]);
        }
        // input gradient check (a couple of positions)
        for i in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let numeric = (loss(&c, &xp) - loss(&c, &xm)) / (2.0 * eps);
            assert!((numeric - gx.data()[i]).abs() < 2e-2, "x[{i}] {numeric} vs {}", gx.data()[i]);
        }
    }

    #[test]
    fn bias_gradient_accumulates_over_cells() {
        let c = Conv2d::new(1, 1, 1, 1, 0, 0);
        let mut tape = Tape::default();
        let _ = forward(&c, &mut tape, &Tensor::full(vec![1, 3, 3], 1.0));
        let (_, grad) = backward(&c, &mut tape, &Tensor::full(vec![1, 3, 3], 1.0));
        // 9 output cells each contribute 1 to the single bias gradient.
        assert_eq!(grad[1], 9.0);
    }

    #[test]
    fn forward_cache_stops_growing_after_the_first_sample() {
        let c = Conv2d::new(2, 3, 3, 1, 1, 0);
        let inputs = [1.0, 0.5, -2.0].map(|v| Tensor::full(vec![2, 6, 6], v));
        assert_flat(&tape_capacities(&c, &inputs, &Tensor::full(vec![3, 6, 6], 1.0)));
    }
}
