//! Dense row-major tensors of `f32` with explicit shapes.
//!
//! The tensor type is deliberately simple: a `Vec<f32>` plus a shape vector.
//! Everything the filter networks need (element-wise arithmetic, reshaping,
//! reductions, 2-D / 3-D indexing) is provided as inherent methods; the heavy
//! numeric kernels live in [`crate::ops`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// Shapes follow the `CHW` convention for image-like data (channels, height,
/// width) and `[rows, cols]` for matrices. A scalar is represented by an empty
/// shape and a single element.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(f, "data=[{}, {}, ..; {}])", self.data[0], self.data[1], self.data.len())
        }
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor { data: vec![0.0; n], shape }
    }

    /// Creates a tensor filled with the given value.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n = shape.iter().product();
        Tensor { data: vec![value; n], shape }
    }

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    /// Panics if the data length does not match the product of the shape.
    pub fn from_vec(data: Vec<f32>, shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "data length {} does not match shape {:?}", data.len(), shape);
        Tensor { data, shape }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element-wise addition producing a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in add");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Element-wise subtraction producing a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in sub");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Multiplies every element by a scalar, producing a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * s).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// In-place `self += other * alpha` (axpy).
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_scaled");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b * alpha;
        }
    }

    /// In-place fill with a constant.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(vec![2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let f = Tensor::full(vec![4], 2.5);
        assert_eq!(f.sum(), 10.0);
    }

    #[test]
    fn from_vec_checks_shape() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        assert_eq!((t.shape(), t.data()[2]), (&[2, 2][..], 3.0));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![2, 2]);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0], vec![2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], vec![2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::zeros(vec![3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![3]);
        a.add_scaled(&g, 0.5);
        a.add_scaled(&g, 0.5);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -4.0, 3.0], vec![3]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
        assert!((t.norm() - (26.0f32).sqrt()).abs() < 1e-6);
    }
}
