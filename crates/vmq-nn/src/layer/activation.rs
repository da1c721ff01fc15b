//! Element-wise activation layers (ReLU, LeakyReLU, Sigmoid, Tanh).

use crate::layer::Layer;
use crate::ops::sigmoid;
use crate::workspace::{Tape, Workspace};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Act {
    /// Rectified linear unit, used by the IC count head (Fig. 2).
    Relu,
    /// Leaky ReLU with the given negative slope, used by the OD-COF head
    /// (Table I uses LeakyReLU throughout).
    LeakyRelu(f32),
    /// Logistic sigmoid, used by the OD grid head so each cell is a
    /// probability of object presence.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Act {
    /// Applies the activation function to one value (shared by the f32
    /// layer below and the int8 inference path in [`crate::quant`], so the
    /// two modes use the same nonlinearity arithmetic).
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Act::Relu => x.max(0.0),
            Act::LeakyRelu(slope) => {
                if x >= 0.0 {
                    x
                } else {
                    slope * x
                }
            }
            Act::Sigmoid => sigmoid(x),
            Act::Tanh => x.tanh(),
        }
    }

    /// Applies the activation to a whole buffer in place, routing ReLU and
    /// LeakyReLU through the dispatched SIMD kernels (bit-identical to the
    /// per-element [`Act::apply`] modulo the sign of zero for ReLU).
    pub fn apply_slice(self, data: &mut [f32]) {
        match self {
            Act::Relu => crate::kernels::relu_in_place(data),
            Act::LeakyRelu(slope) => crate::kernels::leaky_relu_in_place(data, slope),
            _ => {
                for v in data {
                    *v = self.apply(*v);
                }
            }
        }
    }
}

/// An element-wise activation layer.
pub struct Activation {
    act: Act,
}

impl Activation {
    /// Creates an activation layer.
    pub fn new(act: Act) -> Self {
        Activation { act }
    }

    /// The activation function used.
    pub fn act(&self) -> Act {
        self.act
    }

    fn caches_input(&self) -> bool {
        matches!(self.act, Act::Relu | Act::LeakyRelu(_))
    }

    /// The derivative at a cached value.
    fn derivative(&self, cached: f32) -> f32 {
        match self.act {
            Act::Relu => {
                if cached > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Act::LeakyRelu(slope) => {
                if cached >= 0.0 {
                    1.0
                } else {
                    slope
                }
            }
            Act::Sigmoid => cached * (1.0 - cached),
            Act::Tanh => 1.0 - cached * cached,
        }
    }
}

impl Layer for Activation {
    /// Pushes what the derivative is a function of: the *input* for ReLU /
    /// LeakyReLU (its sign), the *output* for Sigmoid / Tanh.
    fn forward(&self, ws: &mut Workspace, tape: &mut Tape) {
        let cached = tape.vals.push();
        if self.caches_input() {
            cached.extend_from_slice(ws.data());
        }
        for v in ws.data_mut() {
            *v = self.act.apply(*v);
        }
        if !self.caches_input() {
            cached.extend_from_slice(ws.data());
        }
    }

    fn infer(&self, ws: &mut Workspace) {
        // Element-wise: applied in place, no buffer rotation needed.
        self.act.apply_slice(ws.data_mut());
    }

    fn backward(&self, ws: &mut Workspace, tape: &mut Tape, _grad: &mut [f32], _input_grad: bool) {
        let cached = tape.vals.pop();
        assert_eq!(ws.data().len(), cached.len(), "Activation::backward without its forward pass");
        for (g, &c) in ws.data_mut().iter_mut().zip(cached) {
            *g *= self.derivative(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{assert_flat, backward, forward, tape_capacities};
    use crate::tensor::Tensor;

    /// Forward then backward of one activation: `(output, input gradient)`.
    fn round_trip(act: Act, x: &Tensor, grad_out: f32) -> (Tensor, Tensor) {
        let a = Activation::new(act);
        let mut tape = Tape::default();
        let y = forward(&a, &mut tape, x);
        let (g, _) = backward(&a, &mut tape, &Tensor::full(x.shape().to_vec(), grad_out));
        (y, g)
    }

    #[test]
    fn relu_forward_backward() {
        let (y, g) = round_trip(Act::Relu, &Tensor::from_vec(vec![-1.0, 0.5, 2.0], vec![3]), 1.0);
        assert_eq!(y.data(), &[0.0, 0.5, 2.0]);
        assert_eq!(g.data(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let (y, g) = round_trip(Act::LeakyRelu(0.1), &Tensor::from_vec(vec![-2.0, 3.0], vec![2]), 2.0);
        assert!((y.data()[0] + 0.2).abs() < 1e-6);
        assert_eq!(y.data()[1], 3.0);
        assert!((g.data()[0] - 0.2).abs() < 1e-6);
        assert_eq!(g.data()[1], 2.0);
    }

    #[test]
    fn sigmoid_gradient_check() {
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.0], vec![3]);
        let (_, g) = round_trip(Act::Sigmoid, &x, 1.0);
        let eps = 1e-3;
        for i in 0..3 {
            let fp = sigmoid(x.data()[i] + eps);
            let fm = sigmoid(x.data()[i] - eps);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - g.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn tanh_gradient_check() {
        let x = Tensor::from_vec(vec![0.5, -0.5], vec![2]);
        let (_, g) = round_trip(Act::Tanh, &x, 1.0);
        let eps = 1e-3;
        for i in 0..2 {
            let numeric = ((x.data()[i] + eps).tanh() - (x.data()[i] - eps).tanh()) / (2.0 * eps);
            assert!((numeric - g.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn act_is_reported() {
        let a = Activation::new(Act::LeakyRelu(0.01));
        assert_eq!(a.act(), Act::LeakyRelu(0.01));
    }

    #[test]
    fn forward_cache_stops_growing_after_the_first_sample() {
        for act in [Act::Relu, Act::Sigmoid] {
            let inputs = [1.0, -1.0, 0.5].map(|v| Tensor::full(vec![40], v));
            assert_flat(&tape_capacities(&Activation::new(act), &inputs, &Tensor::full(vec![40], 1.0)));
        }
    }
}
