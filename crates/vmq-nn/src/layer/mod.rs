//! Neural-network layers with explicit forward / backward passes.
//!
//! Every layer caches whatever it needs from the forward pass (inputs,
//! pooling indices) in buffers it keeps across samples: backward needs no
//! autograd graph and, like inference over a [`Workspace`], no allocation.

mod activation;
mod conv;
mod dense;
mod pool;

pub use activation::{Act, Activation};
pub use conv::Conv2d;
pub use dense::Dense;
pub use pool::{GlobalAvgPool, MaxPool2d};

use crate::net::Param;
use crate::workspace::Workspace;

/// A differentiable layer.
///
/// `forward` must be called before `backward`; layers are stateful and keep
/// the activations of the most recent forward pass. Layers are `Send + Sync`
/// so trained networks can be moved into the streaming executor's worker
/// threads — and, through the shared-read [`Layer::infer`] path, serve many
/// inference threads concurrently without a lock.
pub trait Layer: Send + Sync {
    /// Training forward pass: [`Layer::infer`] that caches what
    /// [`Layer::backward`] needs in buffers kept across samples and runs one
    /// scalar accumulation order on every backend (backend-invariant weights).
    fn forward(&mut self, ws: &mut Workspace);

    /// Inference-only forward pass: reads the current activation from `ws`
    /// and leaves the layer output there, using only the workspace's
    /// caller-owned scratch buffers — no `&mut self` (so a trained net can
    /// be shared across threads) and no heap allocation in steady state.
    ///
    /// Bit-identical to [`Layer::forward`] under the scalar backend
    /// (`VMQ_FORCE_SCALAR=1`); a SIMD backend may differ per element within
    /// the ULP tolerance documented in [`crate::kernels`], deterministically.
    fn infer(&self, ws: &mut Workspace);

    /// Reads the loss gradient w.r.t. the layer output from `ws`, accumulates
    /// parameter gradients and, if `input_grad`, leaves the gradient w.r.t.
    /// the layer input there (else — a model's first layer — unspecified).
    fn backward(&mut self, ws: &mut Workspace, input_grad: bool);

    /// Mutable references to the layer's trainable parameters (empty for
    /// parameter-free layers).
    fn params(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Short layer name for architecture summaries.
    fn name(&self) -> &'static str;

    /// The layer as [`std::any::Any`], so structure-aware consumers (e.g.
    /// post-training quantization in [`crate::quant`]) can downcast a boxed
    /// `dyn Layer` back to its concrete type.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Reshapes any tensor into a flat vector (and restores the shape on backward).
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { in_shape: Vec::new() }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, ws: &mut Workspace) {
        self.in_shape.clear();
        self.in_shape.extend_from_slice(ws.shape());
        self.infer(ws);
    }

    fn infer(&self, ws: &mut Workspace) {
        ws.set_shape(&[ws.data().len()]);
    }

    fn backward(&mut self, ws: &mut Workspace, _input_grad: bool) {
        ws.set_shape(&self.in_shape);
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// One training forward pass of a single layer over a fresh workspace.
    pub(crate) fn forward(layer: &mut dyn Layer, input: &Tensor) -> Tensor {
        let mut ws = Workspace::new();
        ws.load(input);
        layer.forward(&mut ws);
        ws.output()
    }

    /// One backward pass of a single layer (input gradient included).
    pub(crate) fn backward(layer: &mut dyn Layer, grad_out: &Tensor) -> Tensor {
        let mut ws = Workspace::new();
        ws.load(grad_out);
        layer.backward(&mut ws, true);
        ws.output()
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), vec![3, 2, 2]);
        let y = forward(&mut f, &x);
        assert_eq!(y.shape(), &[12]);
        let gx = backward(&mut f, &y);
        assert_eq!(gx.shape(), &[3, 2, 2]);
        assert_eq!(gx.data(), x.data());
        assert_eq!(f.name(), "Flatten");
    }
}
