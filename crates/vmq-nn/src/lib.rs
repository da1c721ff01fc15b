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
//! pushes what it needs onto a caller-owned tape during `forward` and pops
//! it to produce gradients during `backward`, which keeps the implementation
//! small, predictable, easy to test with finite differences, and lets one
//! network train many samples at once ([`train::train`]).
//!
//! ## Example
//!
//! ```
//! use vmq_nn::{layer::Dense, net::Sequential, tensor::Tensor, Workspace};
//! use vmq_nn::loss::mse_loss;
//! use vmq_nn::optim::Adam;
//! use vmq_nn::train::{train, Epochs};
//!
//! // Learn y = 2x with a single linear layer on two training points.
//! let data = [(1.5f32, 3.0f32), (-1.0, -2.0)];
//! let mut net = Sequential::new(vec![Box::new(Dense::new(1, 1, 7))]);
//! let plan = Epochs { samples: data.len(), epochs: 300, batch_size: 1, seed: 0 };
//! train(&mut net, plan, Adam::new(0.05), 1, |net, s| {
//!     let (x, y) = data[s.index];
//!     s.ws.load_slice(&[x], &[1]);
//!     net.forward_ws(s.ws, s.tape);
//!     let (loss, grad) = mse_loss(&s.ws.output(), &Tensor::from_vec(vec![y], vec![1]));
//!     s.ws.load(&grad.scale(s.scale));
//!     net.backward_ws(s.ws, s.tape, s.grad, false);
//!     loss
//! });
//! let out = net.infer(&Tensor::from_vec(vec![2.0], vec![1]), &mut Workspace::new());
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
pub use workspace::{scratch_growth_events, with_thread_workspace, Tape, Workspace};
