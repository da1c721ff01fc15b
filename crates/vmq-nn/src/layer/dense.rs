//! Fully-connected (dense) layer.

use crate::init::{kaiming_uniform, seeded_rng};
use crate::kernels::matvec_into;
use crate::layer::Layer;
use crate::net::Param;
use crate::tensor::Tensor;
use crate::workspace::{Tape, Workspace};

/// A fully-connected layer `y = W x + b` over flat vectors.
///
/// Weights are stored as an `[out, in]` matrix. The layer operates on a single
/// sample at a time (mini-batching is done by the training loop, which
/// accumulates gradients over repeated forward/backward calls).
pub struct Dense {
    weight: Param,
    bias: Param,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Creates a dense layer with Kaiming-uniform weights seeded by `seed`.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = seeded_rng(seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
        let weight = Param::new(kaiming_uniform(vec![out_dim, in_dim], in_dim, &mut rng));
        let bias = Param::new(Tensor::zeros(vec![out_dim]));
        Dense { weight, bias, in_dim, out_dim }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Read-only access to the weight matrix (used by the CAM head, which
    /// shares the count head's weights as per Eq. 1 of the paper).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Read-only access to the bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }
}

impl Layer for Dense {
    /// Pushes the input.
    fn forward(&self, ws: &mut Workspace, tape: &mut Tape) {
        assert_eq!(ws.data().len(), self.in_dim, "Dense input length mismatch");
        tape.vals.push().extend_from_slice(ws.data());
        // `matvec_into` keeps the scalar order on every backend.
        self.infer(ws);
    }

    fn infer(&self, ws: &mut Workspace) {
        debug_assert_eq!(ws.data().len(), self.in_dim, "Dense input length mismatch");
        {
            let (input, out, _cols) = ws.split();
            matvec_into(self.weight.value.data(), self.out_dim, self.in_dim, input, out);
            for (v, b) in out.iter_mut().zip(self.bias.value.data()) {
                *v += b;
            }
        }
        ws.commit(&[self.out_dim]);
    }

    fn backward(&self, ws: &mut Workspace, tape: &mut Tape, grad: &mut [f32], input_grad: bool) {
        let input = tape.vals.pop();
        assert_eq!(input.len(), self.in_dim, "Dense::backward without its forward pass");
        let (grad_out, grad_in, _scratch) = ws.split();
        assert_eq!(grad_out.len(), self.out_dim);
        // dW[o][i] += g[o] * x[i]
        let (gw, gb) = grad.split_at_mut(self.weight.len());
        for (o, &g) in grad_out.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            let row = &mut gw[o * self.in_dim..(o + 1) * self.in_dim];
            for (w, &x) in row.iter_mut().zip(input) {
                *w += g * x;
            }
        }
        // db += g
        for (b, &g) in gb.iter_mut().zip(grad_out) {
            *b += g;
        }
        if !input_grad {
            return;
        }
        // dx[i] = sum_o g[o] * W[o][i]
        let wd = self.weight.value.data();
        grad_in.clear();
        grad_in.resize(self.in_dim, 0.0);
        for (o, &g) in grad_out.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            let row = &wd[o * self.in_dim..(o + 1) * self.in_dim];
            for (x, &w) in grad_in.iter_mut().zip(row) {
                *x += g * w;
            }
        }
        ws.commit(&[self.in_dim]);
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

    fn loss(d: &Dense, x: &Tensor) -> f32 {
        forward(d, &mut Tape::default(), x).sum()
    }

    #[test]
    fn forward_matches_manual() {
        let mut d = Dense::new(2, 2, 0);
        // overwrite with known weights
        d.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        d.bias.value = Tensor::from_vec(vec![0.5, -0.5], vec![2]);
        let y = forward(&d, &mut Tape::default(), &Tensor::from_vec(vec![1.0, 1.0], vec![2]));
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn gradient_check_weights() {
        // finite-difference check of dL/dW for L = sum(y)
        let mut d = Dense::new(3, 2, 1);
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.2], vec![3]);
        let mut tape = Tape::default();
        let _ = forward(&d, &mut tape, &x);
        let (_, analytic) = backward(&d, &mut tape, &Tensor::full(vec![2], 1.0));
        let eps = 1e-3;
        for (idx, &want) in analytic.iter().enumerate().take(d.weight.value.len()) {
            let orig = d.weight.value.data()[idx];
            d.weight.value.data_mut()[idx] = orig + eps;
            let lp = loss(&d, &x);
            d.weight.value.data_mut()[idx] = orig - eps;
            let lm = loss(&d, &x);
            d.weight.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - want).abs() < 1e-2, "idx {idx}: {numeric} vs {want}");
        }
    }

    #[test]
    fn gradient_check_input() {
        let d = Dense::new(3, 2, 2);
        let x = Tensor::from_vec(vec![0.1, 0.2, -0.3], vec![3]);
        let mut tape = Tape::default();
        let _ = forward(&d, &mut tape, &x);
        let (gx, _) = backward(&d, &mut tape, &Tensor::full(vec![2], 1.0));
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let numeric = (loss(&d, &xp) - loss(&d, &xm)) / (2.0 * eps);
            assert!((numeric - gx.data()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn params_exposed() {
        let mut d = Dense::new(4, 3, 0);
        let ps = d.params();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].value.shape(), &[3, 4]);
        assert_eq!(ps[1].value.shape(), &[3]);
        assert_eq!(d.params_mut().len(), 2);
    }

    #[test]
    fn forward_cache_stops_growing_after_the_first_sample() {
        let inputs = [1.0, -1.0, 0.5].map(|v| Tensor::full(vec![5], v));
        assert_flat(&tape_capacities(&Dense::new(5, 2, 0), &inputs, &Tensor::full(vec![2], 1.0)));
    }
}
