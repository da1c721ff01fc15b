//! The Adam optimiser.
//!
//! The paper trains IC filters with Adam (lr 1e-4, exponential decay 5e-4) and
//! OD filters with SGD (momentum 0.9, weight decay 5e-4); the reproduction
//! trains every filter with Adam and L2 weight decay.

use crate::net::Param;
use crate::tensor::Tensor;

/// A gradient-descent optimiser over a set of parameters.
///
/// Optimisers are stateless with respect to *which* parameters they update:
/// internal state (momentum buffers, Adam moments) is keyed by position in the
/// parameter list, so the same list must be passed on every step — which is
/// what [`crate::net::Sequential::parameters`] guarantees.
pub trait Optimizer {
    /// Applies one update step using the gradients accumulated in `params`.
    fn step(&mut self, params: &mut [&mut Param]);
}

/// The Adam optimiser (Kingma & Ba) with bias-corrected moment estimates.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with default betas (0.9, 0.999) and no weight decay.
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Adam with L2 weight decay, matching the paper's IC training setup.
    pub fn with_weight_decay(lr: f32, weight_decay: f32) -> Self {
        Adam { weight_decay, ..Adam::new(lr) }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| Tensor::zeros(p.value.shape().to_vec())).collect();
            self.v = params.iter().map(|p| Tensor::zeros(p.value.shape().to_vec())).collect();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(self.m.iter_mut()).zip(self.v.iter_mut()) {
            let md = m.data_mut();
            let vd = v.data_mut();
            let gd = p.grad.data();
            let pd = p.value.data_mut();
            for i in 0..pd.len() {
                let g = gd[i] + self.weight_decay * pd[i];
                md[i] = self.beta1 * md[i] + (1.0 - self.beta1) * g;
                vd[i] = self.beta2 * vd[i] + (1.0 - self.beta2) * g * g;
                let m_hat = md[i] / bc1;
                let v_hat = vd[i] / bc2;
                pd[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_param(x: f32) -> Param {
        Param::new(Tensor::from_vec(vec![x], vec![1]))
    }

    /// Minimise f(x) = (x - 3)^2 with each optimiser.
    fn run_opt(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut p = quad_param(0.0);
        for _ in 0..steps {
            let x = p.value.data()[0];
            p.grad = Tensor::from_vec(vec![2.0 * (x - 3.0)], vec![1]);
            let mut params = [&mut p];
            opt.step(&mut params);
        }
        p.value.data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        let x = run_opt(&mut opt, 300);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        // With zero gradient, weight decay alone should shrink the parameter.
        let mut p = quad_param(1.0);
        let mut opt = Adam::with_weight_decay(0.01, 0.5);
        for _ in 0..10 {
            p.grad = Tensor::zeros(vec![1]);
            let mut params = [&mut p];
            opt.step(&mut params);
        }
        assert!(p.value.data()[0] < 1.0);
        assert!(p.value.data()[0] > 0.0);
    }
}
