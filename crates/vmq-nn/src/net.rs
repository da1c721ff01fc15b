//! Trainable parameters and the sequential network container.

use crate::kernels::BlockAct;
use crate::layer::{Act, Activation, Conv2d, Layer, MaxPool2d};
use crate::tensor::Tensor;
use crate::workspace::{Tape, Workspace};
use serde::{Deserialize, Serialize};

/// A trainable parameter: its current value and the accumulated gradient.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient accumulated since the last [`Param::zero_grad`].
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient of matching shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().to_vec());
        Param { value, grad }
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters held.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter has no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// FNV-1a over the bit pattern of every value of `params`, in order — what
/// the trained-weights golden pins.
pub fn param_digest(params: &[&Param]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in params.iter().flat_map(|p| p.value.data()).flat_map(|v| v.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A plain stack of layers executed in order.
///
/// `Sequential` is used both as a full network (for the count-only OD-COF
/// head) and as the shared trunk of the multi-head IC / OD filter networks.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Builds a sequential network from a list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Training forward pass ([`Layer::forward`] per layer) over the
    /// activation loaded into `ws`, leaving the network output there and
    /// what [`Sequential::backward_ws`] needs on `tape`.
    pub fn forward_ws(&self, ws: &mut Workspace, tape: &mut Tape) {
        for layer in &self.layers {
            layer.forward(ws, tape);
        }
    }

    /// Shared-read inference over the activation already loaded into `ws`
    /// (see [`Workspace::load`]), leaving the network output in the
    /// workspace. No `&mut self`, no lock, no steady-state allocation.
    ///
    /// A `Conv2d → Activation(Relu | LeakyRelu) [→ MaxPool2d(2)]` run — the
    /// block every filter trunk and branch is made of — executes as one
    /// conv-block kernel call (found by looking ahead from the convolution;
    /// nothing is cached). Every other layer runs its own [`Layer::infer`]
    /// in turn, and the result is bit-identical to doing so for all of them.
    pub fn infer_ws(&self, ws: &mut Workspace) {
        let mut rest = &self.layers[..];
        while let Some((layer, after)) = rest.split_first() {
            rest = match conv_block(layer.as_ref(), after, ws.shape()) {
                Some((conv, act, pool)) => {
                    conv.infer_block(ws, act, pool);
                    &after[1 + usize::from(pool)..]
                }
                None => {
                    layer.infer(ws);
                    after
                }
            };
        }
    }

    /// Convenience wrapper over [`Sequential::infer_ws`]: loads `input`,
    /// runs inference and copies the output out as a tensor.
    pub fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        ws.load(input);
        self.infer_ws(ws);
        ws.output()
    }

    /// Backward pass over the loss gradient w.r.t. the network output loaded
    /// into `ws`, popping the forward pass's records off `tape`. The
    /// parameter gradients go into the tail of `grad`, laid out as
    /// [`Sequential::parameters`], and the part of `grad` before them is
    /// returned: a network made of several `Sequential`s runs their backward
    /// passes last to first, each on what the one after it left. If
    /// `input_grad`, the gradient w.r.t. the network input is left in `ws`.
    /// A filter trunk passes `false`: nothing reads its first layer's input
    /// gradient.
    pub fn backward_ws<'g>(
        &self,
        ws: &mut Workspace,
        tape: &mut Tape,
        grad: &'g mut [f32],
        input_grad: bool,
    ) -> &'g mut [f32] {
        let mut rest = grad;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let at = rest.len() - layer.params().iter().map(|p| p.len()).sum::<usize>();
            let (before, own) = std::mem::take(&mut rest).split_at_mut(at);
            layer.backward(ws, tape, own, i > 0 || input_grad);
            rest = before;
        }
        rest
    }

    /// Every trainable parameter in layer order.
    pub fn parameters(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// [`Sequential::parameters`], mutably.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    /// Read-only access to the layer stack (used by structure-aware
    /// consumers such as post-training quantization, via `dyn Layer`'s
    /// `as_any`).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }
}

/// The conv block starting at `layer`, if there is one: a 3×3 / stride-1 /
/// pad-1 convolution, the ReLU or LeakyReLU right after it, and whether a
/// 2×2 max-pool follows that (fused only for the even `[_, h, w]` input it
/// accepts, so an odd one still reaches [`MaxPool2d`]'s own check).
fn conv_block<'a>(
    layer: &'a dyn Layer,
    after: &[Box<dyn Layer>],
    in_shape: &[usize],
) -> Option<(&'a Conv2d, BlockAct, bool)> {
    let conv = layer.as_any().downcast_ref::<Conv2d>()?;
    if !conv.spec().is_3x3_same() {
        return None;
    }
    let act = match after.first()?.as_any().downcast_ref::<Activation>()?.act() {
        Act::Relu => BlockAct::Relu,
        Act::LeakyRelu(slope) => BlockAct::LeakyRelu(slope),
        Act::Sigmoid | Act::Tanh => return None,
    };
    let pool = after.get(1).and_then(|l| l.as_any().downcast_ref::<MaxPool2d>()).is_some_and(|p| p.size() == 2)
        && in_shape[1..].iter().all(|d| d.is_multiple_of(2));
    Some((conv, act, pool))
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Sequential{names:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Dense;

    /// The length of a gradient slot for `net`.
    fn slot_len(net: &Sequential) -> usize {
        net.parameters().iter().map(|p| p.len()).sum()
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::full(vec![3], 1.0));
        p.grad = Tensor::full(vec![3], 2.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn sequential_forward_backward_shapes() {
        let net = Sequential::new(vec![
            Box::new(Dense::new(4, 8, 0)),
            Box::new(Activation::new(Act::Relu)),
            Box::new(Dense::new(8, 2, 1)),
        ]);
        let (mut ws, mut tape) = (Workspace::new(), Tape::default());
        ws.load(&Tensor::full(vec![4], 0.5));
        net.forward_ws(&mut ws, &mut tape);
        assert_eq!(ws.shape(), &[2]);
        ws.load(&Tensor::full(vec![2], 1.0));
        let mut grad = vec![0.0; slot_len(&net)];
        assert!(net.backward_ws(&mut ws, &mut tape, &mut grad, true).is_empty());
        assert_eq!(ws.shape(), &[4]);
        assert!(tape.is_empty());
        assert_eq!(grad.len(), 4 * 8 + 8 + 8 * 2 + 2);
        // The last layer's bias gradient is the output gradient itself.
        assert_eq!(&grad[grad.len() - 2..], &[1.0, 1.0]);
    }

    /// `forward` (training) always runs the scalar reference; `infer` goes
    /// through the dispatched kernels, which on SIMD backends may differ
    /// per element within the documented ULP tolerance (bit-exact when
    /// scalar is active, e.g. under `VMQ_FORCE_SCALAR=1`). The sigmoid and
    /// the small dense head squash the conv-stack divergence, so a tight
    /// relative bound holds either way.
    #[test]
    fn infer_matches_forward_within_kernel_tolerance_and_reuses_buffers() {
        use crate::layer::{Flatten, GlobalAvgPool};
        let net = Sequential::new(vec![
            Box::new(Conv2d::same(2, 4, 3)),
            Box::new(Activation::new(Act::LeakyRelu(0.1))),
            Box::new(MaxPool2d::new(2)),
            Box::new(Conv2d::new(4, 3, 1, 1, 0, 9)),
            Box::new(Activation::new(Act::Sigmoid)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(3, 2, 4)),
            Box::new(Activation::new(Act::Relu)),
        ]);
        let mut ws = crate::workspace::Workspace::new();
        for seed in 0..4 {
            let x = Tensor::from_vec(
                (0..2 * 8 * 8).map(|v| ((v + seed * 131) as f32 * 0.173).sin()).collect(),
                vec![2, 8, 8],
            );
            ws.load(&x);
            let mut tape = Tape::default();
            net.forward_ws(&mut ws, &mut tape);
            let reference = ws.output();
            // The same workspace serves every pass (buffer reuse must not
            // leak stale state between frames).
            let inferred = net.infer(&x, &mut ws);
            assert_eq!(inferred.shape(), reference.shape());
            if !crate::kernels::KernelBackend::active().is_simd() {
                assert_eq!(inferred.data(), reference.data(), "scalar infer must be bit-identical to forward");
            } else {
                for (got, want) in inferred.data().iter().zip(reference.data()) {
                    assert!(
                        (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                        "infer {got} vs forward {want} beyond kernel tolerance"
                    );
                }
            }
        }
    }

    /// A batch's gradient replaces whatever the parameters held: summing
    /// all-zero slots clears every gradient.
    #[test]
    fn zero_grad_clears_all() {
        let mut net = Sequential::new(vec![Box::new(Dense::new(2, 2, 0)), Box::new(Dense::new(2, 3, 1))]);
        net.parameters_mut().into_iter().for_each(|p| p.grad.fill(3.0));
        let slot = vec![0.0; slot_len(&net)];
        crate::train::sum_slots(&mut net.parameters_mut(), [&slot[..], &slot[..]]);
        assert!(net.parameters().iter().all(|p| p.grad.norm() == 0.0));
    }

    /// The workspace, the tape and the gradient slot reach their
    /// high-water marks on the first sample; the epochs after it allocate
    /// nothing. Every layer kind that leaves records is in the stack, so a
    /// layer whose records grew per sample would show here.
    #[test]
    fn training_grows_no_buffer_after_the_first_sample() {
        use crate::layer::{Flatten, GlobalAvgPool};
        let net = Sequential::new(vec![
            Box::new(Conv2d::same(2, 4, 3)),
            Box::new(Activation::new(Act::LeakyRelu(0.1))),
            Box::new(MaxPool2d::new(2)),
            Box::new(Conv2d::new(4, 3, 1, 1, 1, 9)),
            Box::new(Activation::new(Act::Sigmoid)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(3, 2, 4)),
            Box::new(Activation::new(Act::Relu)),
        ]);
        let samples: Vec<Vec<f32>> =
            (0..6).map(|s| (0..2 * 8 * 8).map(|v| ((v + s * 131) as f32 * 0.173).sin()).collect()).collect();
        let (mut ws, mut tape) = (Workspace::new(), Tape::default());
        let mut grad = vec![0.0; slot_len(&net)];
        let mut epoch = || {
            for (i, x) in samples.iter().enumerate() {
                ws.load_slice(x, &[2, 8, 8]);
                net.forward_ws(&mut ws, &mut tape);
                assert_eq!(ws.shape(), &[2]);
                ws.load_slice(&[0.5, -0.25], &[2]);
                // Both backward forms: with and without the input gradient.
                net.backward_ws(&mut ws, &mut tape, &mut grad, i % 2 == 0);
                assert!(tape.is_empty(), "backward left forward records on the tape");
            }
            (ws.capacity_bytes(), tape.capacity_bytes(), grad.capacity())
        };
        let warm = epoch();
        assert!(warm.0 > 0 && warm.1 > 0);
        for _ in 0..3 {
            assert_eq!(epoch(), warm, "a later epoch grew a training buffer");
        }
        let mut rest = &grad[..];
        for p in net.parameters() {
            let (own, after) = rest.split_at(p.len());
            assert!(own.iter().any(|&g| g != 0.0), "a parameter got no gradient");
            rest = after;
        }
    }

    #[test]
    fn infer_runs_without_mut_across_threads() {
        let net = Sequential::new(vec![Box::new(Dense::new(2, 2, 0)), Box::new(Activation::new(Act::Relu))]);
        let x = Tensor::from_vec(vec![0.5, -0.25], vec![2]);
        let net_ref = &net;
        let x = &x;
        // The shared-read contract, exercised on the persistent pool.
        let outputs: Vec<Tensor> = {
            let mut out: Vec<Option<Tensor>> = vec![None; 4];
            vmq_exec::scope(4, |scope| {
                for slot in out.iter_mut() {
                    scope.spawn(move || {
                        *slot = Some(crate::workspace::with_thread_workspace(|ws| net_ref.infer(x, ws)));
                    });
                }
            });
            out.into_iter().map(|t| t.unwrap()).collect()
        };
        for out in &outputs[1..] {
            assert_eq!(out.data(), outputs[0].data());
        }
    }

    #[test]
    fn layer_names_reported() {
        let net = Sequential::new(vec![Box::new(Dense::new(1, 1, 0)), Box::new(Activation::new(Act::Relu))]);
        assert_eq!(format!("{net:?}"), r#"Sequential["Dense", "Activation"]"#);
    }
}
