//! Pooling layers: max pooling and global average pooling.

use crate::grad::{global_avg_pool_backward_into, maxpool2d_backward_into};
use crate::kernels::{global_avg_pool_into, maxpool2d_argmax_into, maxpool2d_into};
use crate::layer::Layer;
use crate::workspace::{Tape, Workspace};

/// Square, non-overlapping max pooling (window == stride).
pub struct MaxPool2d {
    size: usize,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window size.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "pool size must be >= 1");
        MaxPool2d { size }
    }

    /// Pool window size.
    pub fn size(&self) -> usize {
        self.size
    }
}

impl Layer for MaxPool2d {
    /// Pushes each pooled cell's argmax, then the `[c, h, w]` input shape.
    fn forward(&self, ws: &mut Workspace, tape: &mut Tape) {
        assert_eq!(ws.shape().len(), 3, "MaxPool2d expects CHW input");
        let (c, h, w) = (ws.shape()[0], ws.shape()[1], ws.shape()[2]);
        let (input, out, _scratch) = ws.split();
        maxpool2d_argmax_into(input, c, h, w, self.size, out, tape.idx.push());
        tape.idx.push().extend([c, h, w]);
        ws.commit(&[c, h / self.size, w / self.size]);
    }

    fn infer(&self, ws: &mut Workspace) {
        debug_assert_eq!(ws.shape().len(), 3, "MaxPool2d expects CHW input");
        let (c, h, w) = (ws.shape()[0], ws.shape()[1], ws.shape()[2]);
        {
            let (input, out, _cols) = ws.split();
            maxpool2d_into(input, c, h, w, self.size, out);
        }
        ws.commit(&[c, h / self.size, w / self.size]);
    }

    fn backward(&self, ws: &mut Workspace, tape: &mut Tape, _grad: &mut [f32], _input_grad: bool) {
        let &[c, h, w] = tape.idx.pop() else { panic!("MaxPool2d::backward without its forward pass") };
        let (grad_out, grad_in, _scratch) = ws.split();
        maxpool2d_backward_into(grad_out, tape.idx.pop(), c * h * w, grad_in);
        ws.commit(&[c, h, w]);
    }
}

/// Global average pooling `[C, H, W] -> [C]` (the GAP block of Figs. 2, 4, 5).
#[derive(Default)]
pub struct GlobalAvgPool;

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool
    }
}

impl Layer for GlobalAvgPool {
    /// Pushes the `[h, w]` of the input.
    fn forward(&self, ws: &mut Workspace, tape: &mut Tape) {
        tape.idx.push().extend_from_slice(&ws.shape()[1..]);
        self.infer(ws);
    }

    fn infer(&self, ws: &mut Workspace) {
        debug_assert_eq!(ws.shape().len(), 3, "GlobalAvgPool expects CHW input");
        let (c, h, w) = (ws.shape()[0], ws.shape()[1], ws.shape()[2]);
        {
            let (input, out, _cols) = ws.split();
            global_avg_pool_into(input, c, h, w, out);
        }
        ws.commit(&[c]);
    }

    fn backward(&self, ws: &mut Workspace, tape: &mut Tape, _grad: &mut [f32], _input_grad: bool) {
        let &[h, w] = tape.idx.pop() else { panic!("GlobalAvgPool::backward without its forward pass") };
        let (grad_out, grad_in, _scratch) = ws.split();
        let c = grad_out.len();
        global_avg_pool_backward_into(grad_out, h, w, grad_in);
        ws.commit(&[c, h, w]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{assert_flat, backward, forward, tape_capacities};
    use crate::tensor::Tensor;

    #[test]
    fn maxpool_layer_roundtrip() {
        let p = MaxPool2d::new(2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), vec![1, 4, 4]);
        let mut tape = Tape::default();
        let y = forward(&p, &mut tape, &x);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
        let (g, _) = backward(&p, &mut tape, &Tensor::full(vec![1, 2, 2], 1.0));
        assert_eq!(g.shape(), &[1, 4, 4]);
        assert_eq!(g.sum(), 4.0);
        assert_eq!(p.size(), 2);
    }

    #[test]
    fn gap_layer_roundtrip() {
        let g = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], vec![1, 2, 2]);
        let mut tape = Tape::default();
        let y = forward(&g, &mut tape, &x);
        assert_eq!(y.data(), &[4.0]);
        let (gx, _) = backward(&g, &mut tape, &Tensor::from_vec(vec![8.0], vec![1]));
        assert_eq!(gx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn forward_cache_stops_growing_after_the_first_sample() {
        let inputs = [1.0, -1.0, 0.5].map(|v| Tensor::full(vec![2, 6, 6], v));
        assert_flat(&tape_capacities(&MaxPool2d::new(2), &inputs, &Tensor::full(vec![2, 3, 3], 1.0)));
    }

    #[test]
    #[should_panic(expected = "pool size")]
    fn zero_pool_size_rejected() {
        let _ = MaxPool2d::new(0);
    }
}
