//! Neural-network layers with explicit forward / backward passes.
//!
//! Layers are stateless during training: each reads its weights through
//! `&self`, leaves what its backward pass needs on a caller-owned [`Tape`]
//! and writes its parameter gradients into a caller-owned slice. So one
//! network trains many samples at once, one tape and gradient slot each.

mod activation;
mod conv;
mod dense;
mod pool;

pub use activation::{Act, Activation};
pub use conv::Conv2d;
pub use dense::Dense;
pub use pool::{GlobalAvgPool, MaxPool2d};

use crate::net::Param;
use crate::workspace::{Tape, Workspace};

/// A differentiable layer.
///
/// `backward` pops what the matching `forward` pushed onto the tape, so a
/// network's backward pass visits its layers in reverse. Layers are
/// `Send + Sync` and take `&self` in every pass, so a trained network is
/// shared by many inference threads, and a network in training by many
/// per-sample passes, without a lock.
pub trait Layer: std::any::Any + Send + Sync {
    /// Training forward pass: [`Layer::infer`] that pushes what
    /// [`Layer::backward`] needs onto `tape` and runs one scalar
    /// accumulation order on every backend (backend-invariant weights).
    fn forward(&self, ws: &mut Workspace, tape: &mut Tape);

    /// Inference-only forward pass: reads the current activation from `ws`
    /// and leaves the layer output there, using only the workspace's
    /// caller-owned scratch buffers and no heap allocation in steady state.
    ///
    /// Bit-identical to [`Layer::forward`] under the scalar backend
    /// (`VMQ_FORCE_SCALAR=1`); a SIMD backend may differ per element within
    /// the ULP tolerance documented in [`crate::kernels`], deterministically.
    fn infer(&self, ws: &mut Workspace);

    /// Reads the loss gradient w.r.t. the layer output from `ws` and pops the
    /// forward pass's records off `tape`. Adds one term per element to
    /// `grad`, the layer's parameter gradients laid out as
    /// [`Layer::params`] (`[]` for a parameter-free layer). If
    /// `input_grad`, leaves the gradient w.r.t. the layer input in `ws`
    /// (else — a model's first layer — unspecified).
    fn backward(&self, ws: &mut Workspace, tape: &mut Tape, grad: &mut [f32], input_grad: bool);

    /// The layer's trainable parameters (empty for parameter-free layers).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// [`Layer::params`], mutably, for the optimiser step.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Short layer name for architecture summaries: the type's name.
    fn name(&self) -> &'static str {
        let path = std::any::type_name::<Self>();
        path.rsplit("::").next().unwrap_or(path)
    }
}

impl dyn Layer {
    /// The layer as [`std::any::Any`], so structure-aware consumers (e.g.
    /// post-training quantization in [`crate::quant`]) can downcast a boxed
    /// `dyn Layer` back to its concrete type.
    pub fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Reshapes any tensor into a flat vector (and restores the shape on backward).
#[derive(Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten
    }
}

impl Layer for Flatten {
    fn forward(&self, ws: &mut Workspace, tape: &mut Tape) {
        tape.idx.push().extend_from_slice(ws.shape());
        self.infer(ws);
    }

    fn infer(&self, ws: &mut Workspace) {
        ws.set_shape(&[ws.data().len()]);
    }

    fn backward(&self, ws: &mut Workspace, tape: &mut Tape, _grad: &mut [f32], _input_grad: bool) {
        ws.set_shape(tape.idx.pop());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// One training forward pass of a single layer over a fresh workspace,
    /// leaving its records on `tape`.
    pub(crate) fn forward(layer: &dyn Layer, tape: &mut Tape, input: &Tensor) -> Tensor {
        let mut ws = Workspace::new();
        ws.load(input);
        layer.forward(&mut ws, tape);
        ws.output()
    }

    /// One backward pass of a single layer (input gradient included): pops
    /// the layer's records off `tape`, returns the input gradient and the
    /// parameter gradients (from +0.0, laid out as [`Layer::params`]).
    pub(crate) fn backward(layer: &dyn Layer, tape: &mut Tape, grad_out: &Tensor) -> (Tensor, Vec<f32>) {
        let mut ws = Workspace::new();
        ws.load(grad_out);
        let mut grad = vec![0.0; layer.params().iter().map(|p| p.len()).sum()];
        layer.backward(&mut ws, tape, &mut grad, true);
        assert!(tape.is_empty(), "{} left records on the tape", layer.name());
        (ws.output(), grad)
    }

    /// Runs one training forward and backward pass per input on a single
    /// tape and returns the tape's capacity after each: a layer's records
    /// must reach their high-water mark on the first sample.
    pub(crate) fn tape_capacities(layer: &dyn Layer, inputs: &[Tensor], grad_out: &Tensor) -> Vec<usize> {
        let mut tape = Tape::default();
        inputs
            .iter()
            .map(|x| {
                let _ = forward(layer, &mut tape, x);
                let _ = backward(layer, &mut tape, grad_out);
                tape.capacity_bytes()
            })
            .collect()
    }

    /// Asserts that `caps` (from [`tape_capacities`]) is non-zero and flat.
    pub(crate) fn assert_flat(caps: &[usize]) {
        assert!(caps[0] > 0, "the forward pass left no records");
        assert!(caps.iter().all(|&c| c == caps[0]), "the tape grew after the first sample: {caps:?}");
    }

    #[test]
    fn flatten_roundtrip() {
        let f = Flatten::new();
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), vec![3, 2, 2]);
        let mut tape = Tape::default();
        let y = forward(&f, &mut tape, &x);
        assert_eq!(y.shape(), &[12]);
        let (gx, _) = backward(&f, &mut tape, &y);
        assert_eq!(gx.shape(), &[3, 2, 2]);
        assert_eq!(gx.data(), x.data());
        assert_eq!(f.name(), "Flatten");
    }
}
