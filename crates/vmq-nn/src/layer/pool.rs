//! Pooling layers: max pooling and global average pooling.

use crate::grad::{global_avg_pool_backward_into, maxpool2d_backward_into};
use crate::kernels::{global_avg_pool_into, maxpool2d_into};
use crate::layer::Layer;
use crate::ops;
use crate::workspace::Workspace;

/// Square, non-overlapping max pooling (window == stride).
pub struct MaxPool2d {
    size: usize,
    cached_idx: Vec<usize>,
    cached_in_shape: [usize; 3],
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window size.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "pool size must be >= 1");
        MaxPool2d { size, cached_idx: Vec::new(), cached_in_shape: [0; 3] }
    }

    /// Pool window size.
    pub fn size(&self) -> usize {
        self.size
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, ws: &mut Workspace) {
        assert_eq!(ws.shape().len(), 3, "MaxPool2d expects CHW input");
        let (c, h, w) = (ws.shape()[0], ws.shape()[1], ws.shape()[2]);
        self.cached_in_shape = [c, h, w];
        let (input, out, _scratch) = ws.split();
        ops::maxpool2d_into(input, c, h, w, self.size, out, Some(&mut self.cached_idx));
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

    fn backward(&mut self, ws: &mut Workspace, _input_grad: bool) {
        let (grad_out, grad_in, _scratch) = ws.split();
        maxpool2d_backward_into(grad_out, &self.cached_idx, self.cached_in_shape.iter().product(), grad_in);
        ws.commit(&self.cached_in_shape);
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Global average pooling `[C, H, W] -> [C]` (the GAP block of Figs. 2, 4, 5).
pub struct GlobalAvgPool {
    cached_in_hw: (usize, usize),
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_in_hw: (0, 0) }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, ws: &mut Workspace) {
        self.cached_in_hw = (ws.shape()[1], ws.shape()[2]);
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

    fn backward(&mut self, ws: &mut Workspace, _input_grad: bool) {
        let (h, w) = self.cached_in_hw;
        let (grad_out, grad_in, _scratch) = ws.split();
        let c = grad_out.len();
        global_avg_pool_backward_into(grad_out, h, w, grad_in);
        ws.commit(&[c, h, w]);
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, forward};
    use crate::tensor::Tensor;

    #[test]
    fn maxpool_layer_roundtrip() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), vec![1, 4, 4]);
        let y = forward(&mut p, &x);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
        let g = backward(&mut p, &Tensor::full(vec![1, 2, 2], 1.0));
        assert_eq!(g.shape(), &[1, 4, 4]);
        assert_eq!(g.sum(), 4.0);
        assert_eq!(p.size(), 2);
    }

    #[test]
    fn gap_layer_roundtrip() {
        let mut g = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], vec![1, 2, 2]);
        let y = forward(&mut g, &x);
        assert_eq!(y.data(), &[4.0]);
        let gx = backward(&mut g, &Tensor::from_vec(vec![8.0], vec![1]));
        assert_eq!(gx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "pool size")]
    fn zero_pool_size_rejected() {
        let _ = MaxPool2d::new(0);
    }

    #[test]
    fn forward_cache_stops_growing_after_the_first_sample() {
        let mut p = MaxPool2d::new(2);
        let _ = forward(&mut p, &Tensor::full(vec![2, 6, 6], 1.0));
        let warm = p.cached_idx.capacity();
        let _ = forward(&mut p, &Tensor::full(vec![2, 6, 6], -1.0));
        let _ = backward(&mut p, &Tensor::full(vec![2, 3, 3], 1.0));
        assert_eq!(p.cached_idx.capacity(), warm);
    }
}
