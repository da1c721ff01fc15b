//! # vmq-nn — minimal CPU neural-network substrate for Video Monitoring Queries
//!
//! This crate implements the small amount of deep-learning machinery the
//! paper's filters need, from scratch and on the CPU:
//!
//! * a dense [`Tensor`] type with shape tracking ([`tensor`]),
//! * the numeric kernels (matmul, im2col convolution, pooling) ([`ops`]),
//!   with runtime-dispatched SIMD variants behind [`kernels`], the direct
//!   convolution forward / backward kernels training runs ([`grad`]) and an
//!   int8 post-training-quantized inference mode in [`quant`],
//! * layer types with explicit forward/backward passes ([`layer`]),
//! * the losses used by the paper — SmoothL1 for counts, MSE for class
//!   activation maps, and the masked grid loss of Eq. 3 ([`loss`]),
//! * the Adam optimiser ([`optim`]),
//! * a sequential network container plus the multi-head filter networks'
//!   plumbing ([`net`]) and mini-batch training utilities ([`train`]).
//!
//! The design intentionally avoids a general autograd graph: every layer
//! caches what it needs during `forward` and produces input gradients during
//! `backward`, which keeps the implementation small, predictable and easy to
//! test with finite differences.
//!
//! ## Example
//!
//! ```
//! use vmq_nn::{layer::Dense, net::Sequential, tensor::Tensor, Workspace};
//! use vmq_nn::optim::{Adam, Optimizer};
//! use vmq_nn::loss::mse_loss;
//!
//! // Learn y = 2x with a single linear layer on two training points.
//! let mut net = Sequential::new(vec![Box::new(Dense::new(1, 1, 7))]);
//! let mut opt = Adam::new(0.05);
//! let mut ws = Workspace::new();
//! for _ in 0..300 {
//!     for &(x, y) in &[(1.5f32, 3.0f32), (-1.0, -2.0)] {
//!         ws.load_slice(&[x], &[1]);
//!         net.forward_ws(&mut ws);
//!         let (_loss, grad) = mse_loss(&ws.output(), &Tensor::from_vec(vec![y], vec![1]));
//!         ws.load(&grad);
//!         net.backward_ws(&mut ws, false);
//!         opt.step(&mut net.parameters());
//!         net.zero_grad();
//!     }
//! }
//! let out = net.infer(&Tensor::from_vec(vec![2.0], vec![1]), &mut ws);
//! assert!((out.data()[0] - 4.0).abs() < 0.2);
//! ```

#![warn(missing_docs)]
// Unsafe code is denied crate-wide; the only exceptions are the scoped
// `#[allow(unsafe_code)]` SIMD modules inside [`kernels`] and [`quant`],
// which need `std::arch` intrinsics (see the equivalence contract there).
#![deny(unsafe_code)]

pub mod grad;
pub mod init;
pub mod kernels;
pub mod layer;
pub mod loss;
pub mod net;
pub mod ops;
pub mod optim;
pub mod quant;
pub mod tensor;
pub mod train;
pub mod workspace;

pub use kernels::KernelBackend;
pub use layer::{Act, Activation, Conv2d, Dense, Flatten, GlobalAvgPool, Layer, MaxPool2d};
pub use net::{Param, Sequential};
pub use optim::{Adam, Optimizer};
pub use quant::QuantizedSequential;
pub use tensor::Tensor;
pub use workspace::{scratch_growth_events, with_thread_workspace, Workspace};
