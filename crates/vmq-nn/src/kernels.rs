//! Runtime-dispatched SIMD variants of the inference kernels.
//!
//! [`crate::ops`] holds the scalar reference implementations of the five
//! `_into` inference kernels. This module wraps them in a dispatch layer
//! that, once per process, picks the widest instruction set the host
//! supports — AVX-512 then AVX2 on x86_64 (checked with
//! `is_x86_feature_detected!`), NEON on aarch64 (baseline there), scalar
//! everywhere else — and routes every layer's inference through it.
//!
//! ## Equivalence contract
//!
//! The scalar kernels are the bit-exact reference; goldens and parity pins
//! are recorded under `VMQ_FORCE_SCALAR=1`. SIMD backends agree with the
//! reference within a documented per-element tolerance, not bitwise:
//!
//! * **Matmul-shaped kernels** (`matmul_into`, the convolution inside
//!   `conv2d_block_into` / `conv2d_into`) use FMA and register-blocked
//!   accumulation orders chosen for the hardware, so individual elements
//!   may round differently from the scalar loop. The contract is ≤ 128 ULP (or an absolute 10⁻⁶ near
//!   zero) per element — in practice a relative ~1.5·10⁻⁵ — pinned by the
//!   dispatch-parity tests below. Within one backend results are still
//!   fully deterministic: the same inputs produce the same bits on every
//!   call, which is what the batch/worker-invariance proptests rely on.
//! * **Element-wise and comparison kernels** (`maxpool2d`, activations,
//!   `global_avg_pool`, `matvec`) keep the scalar accumulation order and
//!   remain bit-identical on every backend (modulo the sign of zero for
//!   ReLU, which compares equal).
//!
//! * **The conv block** (`conv2d_block_into`: convolution, then ReLU or
//!   LeakyReLU, then an optional 2×2 max-pool) equals, on every backend and
//!   bit for bit, that backend's convolution followed by its element-wise
//!   activation and pool — fusing the three is an implementation choice of
//!   a backend (AVX-512 does), never a change of result.
//!
//! * **The training convolutions** (the AVX-512 path of [`crate::grad`]'s
//!   unit-stride forward, dW / db and dX) are bit-identical to the portable
//!   kernels there: no FMA, and every lane takes its terms in the order
//!   `grad` documents, so trained weights do not depend on the backend.
//!
//! Setting `VMQ_FORCE_SCALAR=1` in the environment pins dispatch to the
//! scalar reference for the whole process (decided once, at first use).
//!
//! Two kernels deserve a note: `im2col` is pure data movement whose
//! stride-1 span copies already lower to vectorised `memcpy`, so every
//! backend calls [`ops::im2col_into`] itself (the AVX2 fused conv avoids
//! it entirely for the 3×3/stride-1/pad-1 shape every filter trunk uses,
//! working from a zero-padded copy of the input instead); `maxpool2d` is
//! vectorised for the 2×2 window the filter trunks use and falls back to
//! scalar for other window sizes.

use crate::grad::Geom;
use crate::ops::{self, ConvSpec};
use std::sync::OnceLock;

/// Maximum per-element ULP distance a SIMD matmul-shaped kernel may land
/// from the scalar reference (the module-level equivalence contract;
/// ~1.5·10⁻⁵ relative for f32).
pub const ULP_TOLERANCE: u64 = 128;

/// Absolute per-element slack near zero, where ULP distance is
/// meaningless (adjacent subnormals are many ULPs apart in value terms).
pub const ABS_TOLERANCE: f32 = 1e-6;

/// Which kernel implementation dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable scalar reference (always available, bit-exact baseline).
    Scalar,
    /// 256-bit AVX2+FMA kernels (x86_64 only, runtime-detected).
    Avx2,
    /// 512-bit AVX-512 kernels (x86_64 only, runtime-detected; doubles
    /// the FMA width and adds native masked tails).
    Avx512,
    /// 128-bit NEON kernels (aarch64 only, baseline feature there).
    Neon,
}

impl KernelBackend {
    /// Every backend variant, supported on this host or not (see
    /// [`KernelBackend::is_supported`]).
    pub const ALL: [KernelBackend; 4] =
        [KernelBackend::Scalar, KernelBackend::Avx2, KernelBackend::Avx512, KernelBackend::Neon];

    /// Short lower-case name used in bench records and stage metrics.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
            KernelBackend::Neon => "neon",
        }
    }

    /// True when the current host can execute this backend.
    pub fn is_supported(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            KernelBackend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    // The f32 kernels fuse multiply-adds, so the backend
                    // needs FMA alongside AVX2 (every AVX2 part ships it,
                    // but the guard keeps the `target_feature` contract
                    // honest).
                    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            KernelBackend::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                {
                    // The AVX-512 backend delegates its element-wise
                    // kernels to the AVX2 module, so it requires both
                    // feature sets.
                    std::arch::is_x86_feature_detected!("avx512f") && KernelBackend::Avx2.is_supported()
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            KernelBackend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// True for any non-scalar backend.
    pub fn is_simd(self) -> bool {
        self != KernelBackend::Scalar
    }

    /// The backends that can run on this host, scalar first.
    pub fn supported() -> Vec<KernelBackend> {
        KernelBackend::ALL.iter().copied().filter(|b| b.is_supported()).collect()
    }

    /// Detects the widest supported backend, ignoring the env override.
    pub fn detect() -> KernelBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if KernelBackend::Avx512.is_supported() {
                return KernelBackend::Avx512;
            }
            if KernelBackend::Avx2.is_supported() {
                return KernelBackend::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            return KernelBackend::Neon;
        }
        #[allow(unreachable_code)]
        KernelBackend::Scalar
    }

    /// True when `VMQ_FORCE_SCALAR` requests the scalar reference path.
    ///
    /// Any value other than empty or `0` counts as a request; the decision
    /// is cached on first use together with [`KernelBackend::active`].
    pub fn forced_scalar() -> bool {
        std::env::var_os("VMQ_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
    }

    /// The backend every auto-dispatched kernel call uses, decided once per
    /// process: `VMQ_FORCE_SCALAR=1` pins scalar, otherwise
    /// [`KernelBackend::detect`].
    pub fn active() -> KernelBackend {
        static ACTIVE: OnceLock<KernelBackend> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if KernelBackend::forced_scalar() {
                KernelBackend::Scalar
            } else {
                KernelBackend::detect()
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Explicit-backend entry points
//
// `*_with` lets tests and benches pin a backend regardless of the process
// cache or environment; unsupported backends fall back to scalar (the only
// way to reach that fallback is asking for a foreign ISA's backend).
// ---------------------------------------------------------------------------

/// [`ops::matmul_into`] via the chosen backend.
#[allow(unsafe_code)]
pub fn matmul_into_with(
    backend: KernelBackend,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut Vec<f32>,
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the arm guard just confirmed AVX-512F (+AVX2/FMA) via
        // runtime detection, satisfying the callee's `target_feature`
        // contract; slice sizes are the callee's debug-asserted contract.
        KernelBackend::Avx512 if backend.is_supported() => unsafe { avx512::matmul_into(a, m, k, b, n, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guard confirmed AVX2+FMA at runtime (the callee's
        // `target_feature` requirement).
        KernelBackend::Avx2 if backend.is_supported() => unsafe { avx2::matmul_into(a, m, k, b, n, out) },
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => neon::matmul_into(a, m, k, b, n, out),
        _ => ops::matmul_into(a, m, k, b, n, out),
    }
}

/// [`ops::matvec_into`] via the chosen backend.
#[allow(unsafe_code)]
pub fn matvec_into_with(backend: KernelBackend, a: &[f32], m: usize, k: usize, x: &[f32], out: &mut Vec<f32>) {
    match backend {
        // AVX-512 shares the AVX2 matvec: it is bit-identical to scalar
        // and too small to benefit from wider vectors.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guard confirmed AVX2 (implied by AVX-512 support too) at
        // runtime, satisfying the callee's `target_feature` contract.
        KernelBackend::Avx2 | KernelBackend::Avx512 if backend.is_supported() => unsafe {
            avx2::matvec_into(a, m, k, x, out)
        },
        _ => ops::matvec_into(a, m, k, x, out),
    }
}

/// [`ops::maxpool2d_into`] via the chosen backend (2×2 windows are
/// vectorised; other sizes use the scalar loop on every backend).
#[allow(unsafe_code)]
pub fn maxpool2d_into_with(
    backend: KernelBackend,
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    size: usize,
    out: &mut Vec<f32>,
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guard confirmed AVX2 at runtime (the callee's
        // `target_feature` requirement) and pins the vectorised 2×2 shape.
        KernelBackend::Avx2 | KernelBackend::Avx512 if backend.is_supported() && size == 2 => unsafe {
            avx2::maxpool2d_2x2_into(input, c, h, w, out)
        },
        _ => ops::maxpool2d_into(input, c, h, w, size, out, None),
    }
}

/// [`ops::global_avg_pool_into`] via the chosen backend.
#[allow(unsafe_code)]
pub fn global_avg_pool_into_with(
    backend: KernelBackend,
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    out: &mut Vec<f32>,
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guard confirmed AVX2 at runtime (the callee's
        // `target_feature` requirement).
        KernelBackend::Avx2 | KernelBackend::Avx512 if backend.is_supported() => unsafe {
            avx2::global_avg_pool_into(input, c, h, w, out)
        },
        _ => ops::global_avg_pool_into(input, c, h, w, out),
    }
}

/// [`ops::maxpool2d_into`] with the argmax training records, via the chosen
/// backend: AVX-512 scans 2×2 windows sixteen at a time, in the scalar
/// loop's cell order with its keep-first `>` from `-inf`, so pooled values
/// and argmax indices both equal the scalar loop's; other window sizes and
/// backends run that loop.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
pub fn maxpool2d_argmax_into_with(
    backend: KernelBackend,
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    size: usize,
    out: &mut Vec<f32>,
    argmax: &mut Vec<usize>,
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 if backend.is_supported() && size == 2 && h.is_multiple_of(2) && w.is_multiple_of(2) => {
            // SAFETY: guard confirmed AVX-512F at runtime (the callee's
            // `target_feature` contract) and the even map it indexes.
            unsafe { avx512::maxpool2x2_argmax_into(input, c, h, w, out, argmax) }
        }
        _ => ops::maxpool2d_into(input, c, h, w, size, out, Some(argmax)),
    }
}

/// What a conv block does to each convolution output before storing it:
/// the element-wise activations the filter trunks use, or nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockAct {
    /// Store the convolution output as is.
    Identity,
    /// [`relu_in_place_with`]'s arithmetic.
    Relu,
    /// [`leaky_relu_in_place_with`]'s arithmetic with the given slope.
    LeakyRelu(f32),
}

impl BlockAct {
    /// The element-wise kernel this epilogue stands for, on `backend`.
    fn apply_in_place_with(self, backend: KernelBackend, data: &mut [f32]) {
        match self {
            BlockAct::Identity => {}
            BlockAct::Relu => relu_in_place_with(backend, data),
            BlockAct::LeakyRelu(slope) => leaky_relu_in_place_with(backend, data, slope),
        }
    }
}

/// One conv block, `out = pool(act(weight (m × c·k²) ⊛ input (c × h × w) +
/// bias))`, via the chosen backend: the convolution, an element-wise
/// [`BlockAct`] and, when `pool` is set, a 2×2 max-pool (which needs even
/// output dims, like [`ops::maxpool2d_into`]).
///
/// The contract is the output: on every backend it equals, bit for bit,
/// that backend's plain convolution followed by its element-wise activation
/// kernel and its max-pool. The scalar reference convolution is the
/// composition the conv layer always ran — `im2col_into` + `matmul_into` +
/// a bias pass — with `scratch` holding the column matrix; AVX2 replaces it
/// for the 3×3 / stride-1 / pad-1 shape every filter trunk uses with a
/// register-blocked FMA kernel over a zero-padded copy of the input
/// (`scratch`, a fraction of the column matrix's size). Those backends run
/// the block as exactly that composition. AVX-512 runs the 3×3 shape as one
/// pass (`avx512::conv3x3_block_into`): activation and pool happen in the
/// accumulator registers and only the final map is stored.
///
/// `scratch` and `out` are overwritten, never read: whatever a previous
/// call of any shape left in them does not matter, and `scratch`'s contents
/// afterwards are unspecified.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
pub fn conv2d_block_into_with(
    backend: KernelBackend,
    input: &[f32],
    h: usize,
    w: usize,
    spec: &ConvSpec,
    weight: &[f32],
    bias: &[f32],
    act: BlockAct,
    pool: bool,
    scratch: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    debug_assert_eq!(weight.len(), spec.out_channels * spec.in_channels * spec.kernel * spec.kernel);
    debug_assert_eq!(bias.len(), spec.out_channels);
    let (oh, ow) = spec.out_size(h, w);
    match backend {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 if backend.is_supported() && spec.is_3x3_same() => {
            // SAFETY: `is_supported()` confirmed AVX-512F at runtime (the
            // callee's `target_feature` contract); the 3×3/stride-1/pad-1
            // guard pins the shape the kernel's padded-scratch indexing
            // assumes, and slice sizes are debug-asserted above.
            unsafe {
                avx512::conv3x3_block_into(
                    input,
                    spec.in_channels,
                    h,
                    w,
                    weight,
                    spec.out_channels,
                    bias,
                    act,
                    pool,
                    scratch,
                    out,
                )
            };
            return;
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: same contract as the AVX-512 arm with AVX2+FMA confirmed
        // by `is_supported()`.
        KernelBackend::Avx2 if backend.is_supported() && spec.is_3x3_same() => unsafe {
            avx2::conv3x3_into(input, spec.in_channels, h, w, weight, spec.out_channels, bias, scratch, out)
        },
        _ => {
            let ckk = spec.in_channels * spec.kernel * spec.kernel;
            ops::im2col_into(input, h, w, spec, scratch);
            matmul_into_with(backend, weight, spec.out_channels, ckk, scratch, oh * ow, out);
            for (co, &b) in bias.iter().enumerate() {
                for v in &mut out[co * oh * ow..(co + 1) * oh * ow] {
                    *v += b;
                }
            }
        }
    }
    act.apply_in_place_with(backend, out);
    if pool {
        // The convolution is done with `scratch`, so it takes the pooled
        // map and the two buffers trade places.
        maxpool2d_into_with(backend, out, spec.out_channels, oh, ow, 2, scratch);
        std::mem::swap(scratch, out);
    }
}

/// Plain fused 2-D convolution plus bias: [`conv2d_block_into_with`] with
/// the identity epilogue.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into_with(
    backend: KernelBackend,
    input: &[f32],
    h: usize,
    w: usize,
    spec: &ConvSpec,
    weight: &[f32],
    bias: &[f32],
    scratch: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    conv2d_block_into_with(backend, input, h, w, spec, weight, bias, BlockAct::Identity, false, scratch, out);
}

/// In-place ReLU (`x.max(0.0)`) via the chosen backend. Output values are
/// identical to the scalar reference; only the sign of zero may differ
/// (the vector path writes `+0.0` for negative-zero inputs).
#[allow(unsafe_code)]
pub fn relu_in_place_with(backend: KernelBackend, data: &mut [f32]) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guard confirmed AVX-512F at runtime (the callee's
        // `target_feature` requirement).
        KernelBackend::Avx512 if backend.is_supported() => unsafe { avx512::activate_in_place(data, BlockAct::Relu) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guard confirmed AVX2 at runtime.
        KernelBackend::Avx2 if backend.is_supported() => unsafe { avx2::relu_in_place(data) },
        _ => {
            for v in data {
                *v = v.max(0.0);
            }
        }
    }
}

/// In-place LeakyReLU (`x >= 0 ? x : slope * x`) via the chosen backend.
/// Bit-identical on every backend: the vector path blends the same
/// per-element product the scalar branch computes.
#[allow(unsafe_code)]
pub fn leaky_relu_in_place_with(backend: KernelBackend, data: &mut [f32], slope: f32) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guard confirmed AVX-512F at runtime (the callee's
        // `target_feature` requirement).
        KernelBackend::Avx512 if backend.is_supported() => unsafe {
            avx512::activate_in_place(data, BlockAct::LeakyRelu(slope))
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: guard confirmed AVX2 at runtime.
        KernelBackend::Avx2 if backend.is_supported() => unsafe { avx2::leaky_relu_in_place(data, slope) },
        _ => {
            for v in data {
                if *v < 0.0 {
                    *v *= slope;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Training convolutions: the AVX-512 path of `crate::grad`.
//
// Each entry point runs its kernel and returns true when `backend` is a
// supported AVX-512 backend and the convolution has unit stride; otherwise
// it does nothing and returns false, and `grad` runs its portable reference.
// Unlike the inference kernels these are bit-identical to the reference:
// see `crate::grad` for the order they keep.
// ---------------------------------------------------------------------------

/// The forward sums plus bias of [`crate::grad::conv2d_forward_into_with`]
/// into `out` (`[m, oh, ow]`), from the padded input `xpad`.
#[allow(unsafe_code)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn conv_train_forward_with(
    backend: KernelBackend,
    g: &Geom,
    xpad: &[f32],
    weight: &[f32],
    bias: &[f32],
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) -> bool {
    match backend {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 if backend.is_supported() && g.s == 1 => {
            // SAFETY: `is_supported()` confirmed AVX-512F at runtime (the
            // callee's `target_feature` contract); the callee asserts the
            // slice sizes its raw accesses rely on.
            unsafe { avx512::train_forward(g, xpad, weight, bias, scratch, out) };
            true
        }
        _ => false,
    }
}

/// The dW and db sums of [`crate::grad::conv2d_backward_params_into_with`],
/// each added once into `dw` and `db`, from `xpad` and `grad_out`.
#[allow(unsafe_code)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn conv_train_weight_grads_with(
    backend: KernelBackend,
    g: &Geom,
    xpad: &[f32],
    grad_out: &[f32],
    scratch: &mut Vec<f32>,
    dw: &mut [f32],
    db: &mut [f32],
) -> bool {
    match backend {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 if backend.is_supported() && g.s == 1 => {
            // SAFETY: as in `conv_train_forward_with`.
            unsafe { avx512::train_weight_grads(g, xpad, grad_out, scratch, dw, db) };
            true
        }
        _ => false,
    }
}

/// dX of [`crate::grad::conv2d_backward_input_into_with`] over the padded
/// input, left at the front of `scratch` (`c·hp·wp` cells).
#[allow(unsafe_code)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn conv_train_input_grad_with(
    backend: KernelBackend,
    g: &Geom,
    weight: &[f32],
    grad_out: &[f32],
    scratch: &mut Vec<f32>,
) -> bool {
    match backend {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 if backend.is_supported() && g.s == 1 => {
            // SAFETY: as in `conv_train_forward_with`.
            unsafe { avx512::train_input_grad(g, weight, grad_out, scratch) };
            true
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Auto-dispatched wrappers: what the layers call.
// ---------------------------------------------------------------------------

/// [`conv2d_block_into_with`] through the process-wide active backend.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_block_into(
    input: &[f32],
    h: usize,
    w: usize,
    spec: &ConvSpec,
    weight: &[f32],
    bias: &[f32],
    act: BlockAct,
    pool: bool,
    scratch: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    conv2d_block_into_with(KernelBackend::active(), input, h, w, spec, weight, bias, act, pool, scratch, out);
}

/// [`conv2d_into_with`] through the process-wide active backend.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    input: &[f32],
    h: usize,
    w: usize,
    spec: &ConvSpec,
    weight: &[f32],
    bias: &[f32],
    scratch: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    conv2d_into_with(KernelBackend::active(), input, h, w, spec, weight, bias, scratch, out);
}

/// [`relu_in_place_with`] through the process-wide active backend.
pub fn relu_in_place(data: &mut [f32]) {
    relu_in_place_with(KernelBackend::active(), data);
}

/// [`leaky_relu_in_place_with`] through the process-wide active backend.
pub fn leaky_relu_in_place(data: &mut [f32], slope: f32) {
    leaky_relu_in_place_with(KernelBackend::active(), data, slope);
}

/// [`ops::matmul_into`] through the process-wide active backend.
pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut Vec<f32>) {
    matmul_into_with(KernelBackend::active(), a, m, k, b, n, out);
}

/// [`ops::matvec_into`] through the process-wide active backend.
pub fn matvec_into(a: &[f32], m: usize, k: usize, x: &[f32], out: &mut Vec<f32>) {
    matvec_into_with(KernelBackend::active(), a, m, k, x, out);
}

/// [`ops::maxpool2d_into`] through the process-wide active backend.
pub fn maxpool2d_into(input: &[f32], c: usize, h: usize, w: usize, size: usize, out: &mut Vec<f32>) {
    maxpool2d_into_with(KernelBackend::active(), input, c, h, w, size, out);
}

/// [`maxpool2d_argmax_into_with`] through the process-wide active backend.
pub fn maxpool2d_argmax_into(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    size: usize,
    out: &mut Vec<f32>,
    argmax: &mut Vec<usize>,
) {
    maxpool2d_argmax_into_with(KernelBackend::active(), input, c, h, w, size, out, argmax);
}

/// [`ops::global_avg_pool_into`] through the process-wide active backend.
pub fn global_avg_pool_into(input: &[f32], c: usize, h: usize, w: usize, out: &mut Vec<f32>) {
    global_avg_pool_into_with(KernelBackend::active(), input, c, h, w, out);
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86_64).
//
// The matmul-shaped kernels use FMA register tiles — the per-element
// accumulation order differs from the scalar loop within the module-level
// ULP tolerance. The element-wise/comparison kernels (maxpool, gap,
// matvec, activations) keep the scalar order and stay bit-identical.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;

    // Safety: every function in this module requires AVX2 (+FMA for the
    // fused kernels); the dispatch layer only calls them after
    // `KernelBackend::is_supported()` runtime detection. Pointer
    // arithmetic stays inside the slices' bounds: block loops only run
    // while a full vector fits, with masked or scalar tails for the rest
    // (the fused conv's masked tails read from a scratch buffer padded
    // with 8 floats of slack for exactly that purpose).

    /// `out = A (m×k) · B (k×n)` with FMA register tiles: four output rows
    /// × 24 columns per pass, every streamed B vector feeding all four
    /// rows. Ascending-`k` accumulation from zero, fused multiply-add per
    /// step — deterministic, but not the scalar rounding sequence.
    // SAFETY: caller must guarantee AVX2+FMA (dispatch checks
    // `is_supported()`). All pointer arithmetic derives from `a`/`b`/`out`
    // and stays in bounds: `out` is resized to `m * n` first, row blocks
    // advance while `i + 4 <= m`, and the row kernels bound `j` by `n`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut Vec<f32>) {
        debug_assert_eq!(a.len(), m * k, "matmul_into lhs size mismatch");
        debug_assert_eq!(b.len(), k * n, "matmul_into rhs size mismatch");
        out.clear();
        out.resize(m * n, 0.0);
        let bp = b.as_ptr();
        let ap = a.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= m {
            row_quad(ap.add(i * k), k, bp, n, op.add(i * n));
            i += 4;
        }
        while i < m {
            row_one(ap.add(i * k), k, bp, n, op.add(i * n));
            i += 1;
        }
    }

    /// Four output rows (`o..o+4`, weight rows contiguous at `a`).
    // SAFETY: caller (`matmul_into`) guarantees AVX2+FMA and that `a` has
    // 4 rows of `k` floats, `b` is `k × n`, and `o` has 4 rows of `n`
    // floats. Vector loads/stores run only while `j + 24 <= n` or
    // `j + 8 <= n`; the remainder is scalar.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_quad(a: *const f32, k: usize, b: *const f32, n: usize, o: *mut f32) {
        let (a0, a1, a2, a3) = (a, a.add(k), a.add(2 * k), a.add(3 * k));
        let (o0, o1, o2, o3) = (o, o.add(n), o.add(2 * n), o.add(3 * n));
        let mut j = 0;
        while j + 24 <= n {
            let mut x00 = _mm256_setzero_ps();
            let mut x01 = _mm256_setzero_ps();
            let mut x02 = _mm256_setzero_ps();
            let mut x10 = _mm256_setzero_ps();
            let mut x11 = _mm256_setzero_ps();
            let mut x12 = _mm256_setzero_ps();
            let mut x20 = _mm256_setzero_ps();
            let mut x21 = _mm256_setzero_ps();
            let mut x22 = _mm256_setzero_ps();
            let mut x30 = _mm256_setzero_ps();
            let mut x31 = _mm256_setzero_ps();
            let mut x32 = _mm256_setzero_ps();
            for kk in 0..k {
                let bq = b.add(kk * n + j);
                let b0 = _mm256_loadu_ps(bq);
                let b1 = _mm256_loadu_ps(bq.add(8));
                let b2 = _mm256_loadu_ps(bq.add(16));
                let c0 = _mm256_broadcast_ss(&*a0.add(kk));
                x00 = _mm256_fmadd_ps(c0, b0, x00);
                x01 = _mm256_fmadd_ps(c0, b1, x01);
                x02 = _mm256_fmadd_ps(c0, b2, x02);
                let c1 = _mm256_broadcast_ss(&*a1.add(kk));
                x10 = _mm256_fmadd_ps(c1, b0, x10);
                x11 = _mm256_fmadd_ps(c1, b1, x11);
                x12 = _mm256_fmadd_ps(c1, b2, x12);
                let c2 = _mm256_broadcast_ss(&*a2.add(kk));
                x20 = _mm256_fmadd_ps(c2, b0, x20);
                x21 = _mm256_fmadd_ps(c2, b1, x21);
                x22 = _mm256_fmadd_ps(c2, b2, x22);
                let c3 = _mm256_broadcast_ss(&*a3.add(kk));
                x30 = _mm256_fmadd_ps(c3, b0, x30);
                x31 = _mm256_fmadd_ps(c3, b1, x31);
                x32 = _mm256_fmadd_ps(c3, b2, x32);
            }
            _mm256_storeu_ps(o0.add(j), x00);
            _mm256_storeu_ps(o0.add(j + 8), x01);
            _mm256_storeu_ps(o0.add(j + 16), x02);
            _mm256_storeu_ps(o1.add(j), x10);
            _mm256_storeu_ps(o1.add(j + 8), x11);
            _mm256_storeu_ps(o1.add(j + 16), x12);
            _mm256_storeu_ps(o2.add(j), x20);
            _mm256_storeu_ps(o2.add(j + 8), x21);
            _mm256_storeu_ps(o2.add(j + 16), x22);
            _mm256_storeu_ps(o3.add(j), x30);
            _mm256_storeu_ps(o3.add(j + 8), x31);
            _mm256_storeu_ps(o3.add(j + 16), x32);
            j += 24;
        }
        while j + 8 <= n {
            let mut x0 = _mm256_setzero_ps();
            let mut x1 = _mm256_setzero_ps();
            let mut x2 = _mm256_setzero_ps();
            let mut x3 = _mm256_setzero_ps();
            for kk in 0..k {
                let bv = _mm256_loadu_ps(b.add(kk * n + j));
                x0 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a0.add(kk)), bv, x0);
                x1 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a1.add(kk)), bv, x1);
                x2 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a2.add(kk)), bv, x2);
                x3 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a3.add(kk)), bv, x3);
            }
            _mm256_storeu_ps(o0.add(j), x0);
            _mm256_storeu_ps(o1.add(j), x1);
            _mm256_storeu_ps(o2.add(j), x2);
            _mm256_storeu_ps(o3.add(j), x3);
            j += 8;
        }
        while j < n {
            let mut s0 = 0.0f32;
            let mut s1 = 0.0f32;
            let mut s2 = 0.0f32;
            let mut s3 = 0.0f32;
            for kk in 0..k {
                let bv = *b.add(kk * n + j);
                // mul_add lowers to scalar FMA inside this target_feature
                // scope, matching the vector lanes' one-rounding step.
                s0 = (*a0.add(kk)).mul_add(bv, s0);
                s1 = (*a1.add(kk)).mul_add(bv, s1);
                s2 = (*a2.add(kk)).mul_add(bv, s2);
                s3 = (*a3.add(kk)).mul_add(bv, s3);
            }
            *o0.add(j) = s0;
            *o1.add(j) = s1;
            *o2.add(j) = s2;
            *o3.add(j) = s3;
            j += 1;
        }
    }

    /// One remaining output row (`m % 4` tail).
    // SAFETY: caller guarantees AVX2+FMA, `a0` points at `k` floats, `b`
    // is `k × n`, `o0` at `n` floats. Vector width only while
    // `j + 8 <= n`; scalar tail after.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_one(a0: *const f32, k: usize, b: *const f32, n: usize, o0: *mut f32) {
        let mut j = 0;
        while j + 8 <= n {
            let mut x = _mm256_setzero_ps();
            for kk in 0..k {
                x = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a0.add(kk)), _mm256_loadu_ps(b.add(kk * n + j)), x);
            }
            _mm256_storeu_ps(o0.add(j), x);
            j += 8;
        }
        while j < n {
            let mut s = 0.0f32;
            for kk in 0..k {
                s = (*a0.add(kk)).mul_add(*b.add(kk * n + j), s);
            }
            *o0.add(j) = s;
            j += 1;
        }
    }

    /// All-ones prefix mask for an `rem`-lane (1..=8) partial store.
    // SAFETY: caller guarantees AVX2; the load reads the local 8-lane
    // stack array, always fully initialised.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        debug_assert!((1..=8).contains(&rem));
        let mut lanes = [0i32; 8];
        for l in lanes.iter_mut().take(rem) {
            *l = -1;
        }
        _mm256_loadu_si256(lanes.as_ptr() as *const __m256i)
    }

    /// Fused 3×3 / stride-1 / pad-1 convolution with bias: the shape every
    /// filter trunk and branch conv uses. Copies the input into a
    /// zero-padded image (`padded`, with 8 floats of slack so masked
    /// column tails can load full vectors) and accumulates straight off
    /// it with FMA tiles of four output channels × 16 pixels — no im2col
    /// matrix is ever materialised, so B traffic is the (L1/L2-resident)
    /// input image instead of a `9×` unfolded copy of it.
    // SAFETY: caller must guarantee AVX2+FMA (dispatch checks
    // `is_supported()`); slice sizes are debug-asserted, `out` is resized
    // to `m * h * w` before any raw store, and `padded` carries 8 floats
    // of slack past the image so masked column-tail loads of a full
    // vector stay inside the allocation.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn conv3x3_into(
        input: &[f32],
        c: usize,
        h: usize,
        w: usize,
        weight: &[f32],
        m: usize,
        bias: &[f32],
        padded: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        debug_assert_eq!(input.len(), c * h * w, "conv3x3_into input size mismatch");
        debug_assert_eq!(weight.len(), m * c * 9, "conv3x3_into weight size mismatch");
        debug_assert_eq!(bias.len(), m, "conv3x3_into bias size mismatch");
        let (ph, pw) = (h + 2, w + 2);
        let phpw = ph * pw;
        padded.clear();
        padded.resize(c * phpw + 8, 0.0);
        for ch in 0..c {
            for y in 0..h {
                let dst = ch * phpw + (y + 1) * pw + 1;
                padded[dst..dst + w].copy_from_slice(&input[ch * h * w + y * w..ch * h * w + (y + 1) * w]);
            }
        }
        out.clear();
        out.resize(m * h * w, 0.0);
        let pp = padded.as_ptr();
        let op = out.as_mut_ptr();
        let mut o = 0;
        while o + 4 <= m {
            conv3x3_rows4(pp, c, h, w, pw, phpw, weight, bias, o, op);
            o += 4;
        }
        while o < m {
            conv3x3_rows1(pp, c, h, w, pw, phpw, weight, bias, o, op);
            o += 1;
        }
    }

    /// Four output channels of the fused conv (`o..o+4`).
    // SAFETY: caller (`conv3x3_into`) guarantees AVX2+FMA, `o + 4 <= m`,
    // `pp` points at the padded image with 8 floats of slack (full-vector
    // loads past a column tail stay in the allocation), and `op` has
    // `m * h * w` floats; tail-column stores are masked to `rem` lanes.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn conv3x3_rows4(
        pp: *const f32,
        c: usize,
        h: usize,
        w: usize,
        pw: usize,
        phpw: usize,
        weight: &[f32],
        bias: &[f32],
        o: usize,
        op: *mut f32,
    ) {
        let k = c * 9;
        let w0 = weight.as_ptr().add(o * k);
        let (w1, w2, w3) = (w0.add(k), w0.add(2 * k), w0.add(3 * k));
        let o0 = op.add(o * h * w);
        let (o1, o2, o3) = (o0.add(h * w), o0.add(2 * h * w), o0.add(3 * h * w));
        for y in 0..h {
            let orow = y * w;
            let mut x = 0;
            while x + 16 <= w {
                let mut x00 = _mm256_set1_ps(bias[o]);
                let mut x01 = _mm256_set1_ps(bias[o]);
                let mut x10 = _mm256_set1_ps(bias[o + 1]);
                let mut x11 = _mm256_set1_ps(bias[o + 1]);
                let mut x20 = _mm256_set1_ps(bias[o + 2]);
                let mut x21 = _mm256_set1_ps(bias[o + 2]);
                let mut x30 = _mm256_set1_ps(bias[o + 3]);
                let mut x31 = _mm256_set1_ps(bias[o + 3]);
                let mut r = 0;
                for ch in 0..c {
                    // Top-left of the receptive field for output (y, x) in
                    // the padded image.
                    let rf = pp.add(ch * phpw + y * pw + x);
                    for ky in 0..3 {
                        for kx in 0..3 {
                            let off = ky * pw + kx;
                            let b0 = _mm256_loadu_ps(rf.add(off));
                            let b1 = _mm256_loadu_ps(rf.add(off + 8));
                            let c0 = _mm256_broadcast_ss(&*w0.add(r));
                            x00 = _mm256_fmadd_ps(c0, b0, x00);
                            x01 = _mm256_fmadd_ps(c0, b1, x01);
                            let c1 = _mm256_broadcast_ss(&*w1.add(r));
                            x10 = _mm256_fmadd_ps(c1, b0, x10);
                            x11 = _mm256_fmadd_ps(c1, b1, x11);
                            let c2 = _mm256_broadcast_ss(&*w2.add(r));
                            x20 = _mm256_fmadd_ps(c2, b0, x20);
                            x21 = _mm256_fmadd_ps(c2, b1, x21);
                            let c3 = _mm256_broadcast_ss(&*w3.add(r));
                            x30 = _mm256_fmadd_ps(c3, b0, x30);
                            x31 = _mm256_fmadd_ps(c3, b1, x31);
                            r += 1;
                        }
                    }
                }
                _mm256_storeu_ps(o0.add(orow + x), x00);
                _mm256_storeu_ps(o0.add(orow + x + 8), x01);
                _mm256_storeu_ps(o1.add(orow + x), x10);
                _mm256_storeu_ps(o1.add(orow + x + 8), x11);
                _mm256_storeu_ps(o2.add(orow + x), x20);
                _mm256_storeu_ps(o2.add(orow + x + 8), x21);
                _mm256_storeu_ps(o3.add(orow + x), x30);
                _mm256_storeu_ps(o3.add(orow + x + 8), x31);
                x += 16;
            }
            while x < w {
                let rem = (w - x).min(8);
                let mask = tail_mask(rem);
                let mut x0 = _mm256_set1_ps(bias[o]);
                let mut x1 = _mm256_set1_ps(bias[o + 1]);
                let mut x2 = _mm256_set1_ps(bias[o + 2]);
                let mut x3 = _mm256_set1_ps(bias[o + 3]);
                let mut r = 0;
                for ch in 0..c {
                    let rf = pp.add(ch * phpw + y * pw + x);
                    for ky in 0..3 {
                        for kx in 0..3 {
                            // Full-vector load; lanes past `rem` read the
                            // padded buffer's slack and are masked away at
                            // the store.
                            let bv = _mm256_loadu_ps(rf.add(ky * pw + kx));
                            x0 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*w0.add(r)), bv, x0);
                            x1 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*w1.add(r)), bv, x1);
                            x2 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*w2.add(r)), bv, x2);
                            x3 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*w3.add(r)), bv, x3);
                            r += 1;
                        }
                    }
                }
                _mm256_maskstore_ps(o0.add(orow + x), mask, x0);
                _mm256_maskstore_ps(o1.add(orow + x), mask, x1);
                _mm256_maskstore_ps(o2.add(orow + x), mask, x2);
                _mm256_maskstore_ps(o3.add(orow + x), mask, x3);
                x += rem;
            }
        }
    }

    /// One remaining output channel of the fused conv (`m % 4` tail).
    // SAFETY: caller (`conv3x3_into`) guarantees AVX2+FMA, `pp` points at
    // the padded image with 8 floats of slack (full-vector loads past a
    // column tail stay in the allocation), and `op` has `m * h * w`
    // floats; stores are masked to `rem` lanes.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn conv3x3_rows1(
        pp: *const f32,
        c: usize,
        h: usize,
        w: usize,
        pw: usize,
        phpw: usize,
        weight: &[f32],
        bias: &[f32],
        o: usize,
        op: *mut f32,
    ) {
        let k = c * 9;
        let w0 = weight.as_ptr().add(o * k);
        let o0 = op.add(o * h * w);
        for y in 0..h {
            let orow = y * w;
            let mut x = 0;
            while x < w {
                let rem = (w - x).min(8);
                let mut acc = _mm256_set1_ps(bias[o]);
                let mut r = 0;
                for ch in 0..c {
                    let rf = pp.add(ch * phpw + y * pw + x);
                    for ky in 0..3 {
                        for kx in 0..3 {
                            let bv = _mm256_loadu_ps(rf.add(ky * pw + kx));
                            acc = _mm256_fmadd_ps(_mm256_broadcast_ss(&*w0.add(r)), bv, acc);
                            r += 1;
                        }
                    }
                }
                if rem == 8 {
                    _mm256_storeu_ps(o0.add(orow + x), acc);
                } else {
                    _mm256_maskstore_ps(o0.add(orow + x), tail_mask(rem), acc);
                }
                x += rem;
            }
        }
    }

    /// In-place ReLU. `max_ps(v, 0)` returns the second operand for NaN
    /// and `-0.0` inputs, matching scalar `f32::max(0.0)` values (the sign
    /// of a zero result may differ; the values compare equal).
    // SAFETY: caller must guarantee AVX2; loads/stores stay inside `data`
    // (vector width only while `i + 8 <= n`, scalar tail after).
    #[target_feature(enable = "avx2")]
    pub unsafe fn relu_in_place(data: &mut [f32]) {
        let z = _mm256_setzero_ps();
        let n = data.len();
        let p = data.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(p.add(i), _mm256_max_ps(_mm256_loadu_ps(p.add(i)), z));
            i += 8;
        }
        for i in i..n {
            let v = *p.add(i);
            *p.add(i) = v.max(0.0);
        }
    }

    /// In-place LeakyReLU: blends `slope * x` under `x` on a `>= 0`
    /// compare — the scalar branch's exact per-element arithmetic.
    // SAFETY: caller must guarantee AVX2; loads/stores stay inside `data`
    // (vector width only while `i + 8 <= n`, scalar tail after).
    #[target_feature(enable = "avx2")]
    pub unsafe fn leaky_relu_in_place(data: &mut [f32], slope: f32) {
        let z = _mm256_setzero_ps();
        let vs = _mm256_set1_ps(slope);
        let n = data.len();
        let p = data.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(p.add(i));
            let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(v, z);
            _mm256_storeu_ps(p.add(i), _mm256_blendv_ps(_mm256_mul_ps(v, vs), v, ge));
            i += 8;
        }
        for i in i..n {
            let v = *p.add(i);
            if v < 0.0 {
                *p.add(i) = v * slope;
            }
        }
    }

    /// `y = A (m×k) · x`: eight output rows per pass, gathering one column
    /// of `A` per `kk` step. Per lane: the scalar fold `acc += a * x` in
    /// ascending `kk` (no zero skipping — the scalar reference has none).
    // SAFETY: caller must guarantee AVX2. Gathers run only when
    // `k <= i32::MAX / 8` so every 32-bit index `7 * stride + kk` stays
    // positive and inside `a`'s `m * k` floats (`i + 8 <= m` bounds the
    // rows); leftover rows use safe slice arithmetic.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matvec_into(a: &[f32], m: usize, k: usize, x: &[f32], out: &mut Vec<f32>) {
        debug_assert_eq!(a.len(), m * k, "matvec_into size mismatch");
        debug_assert_eq!(x.len(), k, "matvec_into dimension mismatch");
        out.clear();
        out.resize(m, 0.0);
        let ap = a.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        if k <= (i32::MAX as usize) / 8 {
            let stride = k as i32;
            let vindex =
                _mm256_setr_epi32(0, stride, 2 * stride, 3 * stride, 4 * stride, 5 * stride, 6 * stride, 7 * stride);
            while i + 8 <= m {
                let base = ap.add(i * k);
                let mut acc = _mm256_set1_ps(-0.0); // the scalar `Sum`'s identity
                for (kk, &xv) in x.iter().enumerate() {
                    let col = _mm256_i32gather_ps::<4>(base.add(kk), vindex);
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(col, _mm256_set1_ps(xv)));
                }
                _mm256_storeu_ps(op.add(i), acc);
                i += 8;
            }
        }
        for row in i..m {
            out[row] = a[row * k..(row + 1) * k].iter().zip(x).map(|(a, b)| a * b).sum::<f32>();
        }
    }

    /// 2×2 max pooling, eight output columns per pass. The four window
    /// positions are visited in the scalar scan order and compared with the
    /// same `v > best` / keep-first semantics (`GT_OQ` compare + blend), so
    /// results are bit-identical even around `-0.0` and NaN.
    // SAFETY: caller must guarantee AVX2. `h`/`w` divisibility is
    // asserted, `out` is resized to `c * oh * ow` first, and the 16-wide
    // input loads run only while `ox + 8 <= ow` (i.e. `2*ox + 16 <= w`);
    // the remainder is scalar indexing.
    #[target_feature(enable = "avx2")]
    pub unsafe fn maxpool2d_2x2_into(input: &[f32], c: usize, h: usize, w: usize, out: &mut Vec<f32>) {
        debug_assert_eq!(input.len(), c * h * w, "maxpool2d_into input size mismatch");
        assert!(
            h.is_multiple_of(2) && w.is_multiple_of(2),
            "maxpool2d requires divisible spatial dims ({}x{} by 2)",
            h,
            w
        );
        let (oh, ow) = (h / 2, w / 2);
        out.clear();
        out.resize(c * oh * ow, 0.0);
        let ip = input.as_ptr();
        let op = out.as_mut_ptr();
        for ch in 0..c {
            for oy in 0..oh {
                let r0 = ip.add(ch * h * w + (2 * oy) * w);
                let r1 = r0.add(w);
                let orow = op.add(ch * oh * ow + oy * ow);
                let mut ox = 0;
                while ox + 8 <= ow {
                    let (e0, d0) = deinterleave(_mm256_loadu_ps(r0.add(2 * ox)), _mm256_loadu_ps(r0.add(2 * ox + 8)));
                    let (e1, d1) = deinterleave(_mm256_loadu_ps(r1.add(2 * ox)), _mm256_loadu_ps(r1.add(2 * ox + 8)));
                    let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
                    for v in [e0, d0, e1, d1] {
                        let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(v, best);
                        best = _mm256_blendv_ps(best, v, gt);
                    }
                    _mm256_storeu_ps(orow.add(ox), best);
                    ox += 8;
                }
                for ox in ox..ow {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let v = *ip.add(ch * h * w + (oy * 2 + dy) * w + ox * 2 + dx);
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    *orow.add(ox) = best;
                }
            }
        }
    }

    /// Splits two consecutive 8-lane loads covering 16 columns into their
    /// even- and odd-column halves.
    // SAFETY: caller must guarantee AVX2; pure register shuffles, no
    // memory access.
    #[target_feature(enable = "avx2")]
    unsafe fn deinterleave(a: __m256, b: __m256) -> (__m256, __m256) {
        let lo = _mm256_shuffle_ps::<0b10_00_10_00>(a, b);
        let hi = _mm256_shuffle_ps::<0b11_01_11_01>(a, b);
        let even = _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(lo)));
        let odd = _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(hi)));
        (even, odd)
    }

    /// Global average pooling, eight channels per pass via strided gathers.
    /// Per lane: the scalar per-channel ascending sum, then one IEEE divide.
    // SAFETY: caller must guarantee AVX2. Gathers run only when
    // `hw <= i32::MAX / 8` so indices fit i32 and stay inside `input`'s
    // `c * h * w` floats (`ch + 8 <= c` bounds the channels); leftover
    // channels use safe slice arithmetic.
    #[target_feature(enable = "avx2")]
    pub unsafe fn global_avg_pool_into(input: &[f32], c: usize, h: usize, w: usize, out: &mut Vec<f32>) {
        debug_assert_eq!(input.len(), c * h * w, "global_avg_pool_into input size mismatch");
        let hw = h * w;
        let area = hw as f32;
        out.clear();
        out.resize(c, 0.0);
        let ip = input.as_ptr();
        let op = out.as_mut_ptr();
        let mut ch = 0;
        if hw > 0 && hw <= (i32::MAX as usize) / 8 {
            let stride = hw as i32;
            let vindex =
                _mm256_setr_epi32(0, stride, 2 * stride, 3 * stride, 4 * stride, 5 * stride, 6 * stride, 7 * stride);
            let varea = _mm256_set1_ps(area);
            while ch + 8 <= c {
                let base = ip.add(ch * hw);
                let mut acc = _mm256_set1_ps(-0.0); // the scalar `Sum`'s identity
                for i in 0..hw {
                    acc = _mm256_add_ps(acc, _mm256_i32gather_ps::<4>(base.add(i), vindex));
                }
                _mm256_storeu_ps(op.add(ch), _mm256_div_ps(acc, varea));
                ch += 8;
            }
        }
        for ch in ch..c {
            out[ch] = input[ch * hw..(ch + 1) * hw].iter().sum::<f32>() / area;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512 kernels (x86_64).
//
// Same equivalence contract as AVX2 (FMA within the module-level ULP
// tolerance for matmul-shaped kernels), but with 16-lane vectors, twice
// the register file and native masked loads/stores, so tails never fall
// back to scalar arithmetic. Element-wise kernels (activations here;
// maxpool/gap/matvec delegate to the AVX2 module) stay bit-identical to
// the scalar reference.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use super::BlockAct;
    use crate::grad::Geom;
    use std::arch::x86_64::*;

    // Safety: every function requires AVX-512F; the dispatch layer only
    // calls them after `KernelBackend::is_supported()` runtime detection.
    // Masked loads/stores never touch masked-out lanes, and the fused
    // conv's full-width tail loads read from a scratch buffer padded with
    // 16 floats of slack.

    /// All-ones prefix mask for an `rem`-lane (0..=16) partial vector.
    #[inline]
    fn prefix_mask(rem: usize) -> __mmask16 {
        debug_assert!(rem <= 16);
        if rem >= 16 {
            !0
        } else {
            (1u16 << rem) - 1
        }
    }

    /// `out = A (m×k) · B (k×n)` with zmm FMA tiles: four output rows ×
    /// 48 columns per pass, 16-wide then masked tails. Same rounding
    /// caveat as the AVX2 twin.
    // SAFETY: caller must guarantee AVX-512F (dispatch checks
    // `is_supported()`). `out` is resized to `m * n` before any raw
    // store; row blocks advance while `i + 4 <= m` and the row kernels
    // bound `j` by `n` with masked tails.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut Vec<f32>) {
        debug_assert_eq!(a.len(), m * k, "matmul_into lhs size mismatch");
        debug_assert_eq!(b.len(), k * n, "matmul_into rhs size mismatch");
        out.clear();
        out.resize(m * n, 0.0);
        let bp = b.as_ptr();
        let ap = a.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= m {
            row_quad(ap.add(i * k), k, bp, n, op.add(i * n));
            i += 4;
        }
        while i < m {
            row_one(ap.add(i * k), k, bp, n, op.add(i * n));
            i += 1;
        }
    }

    /// Four output rows (`o..o+4`, weight rows contiguous at `a`).
    // SAFETY: caller (`matmul_into`) guarantees AVX-512F and that `a` has
    // 4 rows of `k` floats, `b` is `k × n`, and `o` has 4 rows of `n`
    // floats. Full-width access only while `j + 48 <= n`; the tail loop
    // masks every load and store to `rem` lanes.
    #[target_feature(enable = "avx512f")]
    unsafe fn row_quad(a: *const f32, k: usize, b: *const f32, n: usize, o: *mut f32) {
        let (a0, a1, a2, a3) = (a, a.add(k), a.add(2 * k), a.add(3 * k));
        let (o0, o1, o2, o3) = (o, o.add(n), o.add(2 * n), o.add(3 * n));
        let mut j = 0;
        while j + 48 <= n {
            let mut x00 = _mm512_setzero_ps();
            let mut x01 = _mm512_setzero_ps();
            let mut x02 = _mm512_setzero_ps();
            let mut x10 = _mm512_setzero_ps();
            let mut x11 = _mm512_setzero_ps();
            let mut x12 = _mm512_setzero_ps();
            let mut x20 = _mm512_setzero_ps();
            let mut x21 = _mm512_setzero_ps();
            let mut x22 = _mm512_setzero_ps();
            let mut x30 = _mm512_setzero_ps();
            let mut x31 = _mm512_setzero_ps();
            let mut x32 = _mm512_setzero_ps();
            for kk in 0..k {
                let bq = b.add(kk * n + j);
                let b0 = _mm512_loadu_ps(bq);
                let b1 = _mm512_loadu_ps(bq.add(16));
                let b2 = _mm512_loadu_ps(bq.add(32));
                let c0 = _mm512_set1_ps(*a0.add(kk));
                x00 = _mm512_fmadd_ps(c0, b0, x00);
                x01 = _mm512_fmadd_ps(c0, b1, x01);
                x02 = _mm512_fmadd_ps(c0, b2, x02);
                let c1 = _mm512_set1_ps(*a1.add(kk));
                x10 = _mm512_fmadd_ps(c1, b0, x10);
                x11 = _mm512_fmadd_ps(c1, b1, x11);
                x12 = _mm512_fmadd_ps(c1, b2, x12);
                let c2 = _mm512_set1_ps(*a2.add(kk));
                x20 = _mm512_fmadd_ps(c2, b0, x20);
                x21 = _mm512_fmadd_ps(c2, b1, x21);
                x22 = _mm512_fmadd_ps(c2, b2, x22);
                let c3 = _mm512_set1_ps(*a3.add(kk));
                x30 = _mm512_fmadd_ps(c3, b0, x30);
                x31 = _mm512_fmadd_ps(c3, b1, x31);
                x32 = _mm512_fmadd_ps(c3, b2, x32);
            }
            _mm512_storeu_ps(o0.add(j), x00);
            _mm512_storeu_ps(o0.add(j + 16), x01);
            _mm512_storeu_ps(o0.add(j + 32), x02);
            _mm512_storeu_ps(o1.add(j), x10);
            _mm512_storeu_ps(o1.add(j + 16), x11);
            _mm512_storeu_ps(o1.add(j + 32), x12);
            _mm512_storeu_ps(o2.add(j), x20);
            _mm512_storeu_ps(o2.add(j + 16), x21);
            _mm512_storeu_ps(o2.add(j + 32), x22);
            _mm512_storeu_ps(o3.add(j), x30);
            _mm512_storeu_ps(o3.add(j + 16), x31);
            _mm512_storeu_ps(o3.add(j + 32), x32);
            j += 48;
        }
        while j < n {
            let rem = (n - j).min(16);
            let mask = prefix_mask(rem);
            let mut x0 = _mm512_setzero_ps();
            let mut x1 = _mm512_setzero_ps();
            let mut x2 = _mm512_setzero_ps();
            let mut x3 = _mm512_setzero_ps();
            for kk in 0..k {
                // Masked-out lanes load as 0.0 and never reach the store,
                // so the live lanes round exactly like the full-width
                // tiles.
                let bv = _mm512_maskz_loadu_ps(mask, b.add(kk * n + j));
                x0 = _mm512_fmadd_ps(_mm512_set1_ps(*a0.add(kk)), bv, x0);
                x1 = _mm512_fmadd_ps(_mm512_set1_ps(*a1.add(kk)), bv, x1);
                x2 = _mm512_fmadd_ps(_mm512_set1_ps(*a2.add(kk)), bv, x2);
                x3 = _mm512_fmadd_ps(_mm512_set1_ps(*a3.add(kk)), bv, x3);
            }
            _mm512_mask_storeu_ps(o0.add(j), mask, x0);
            _mm512_mask_storeu_ps(o1.add(j), mask, x1);
            _mm512_mask_storeu_ps(o2.add(j), mask, x2);
            _mm512_mask_storeu_ps(o3.add(j), mask, x3);
            j += rem;
        }
    }

    /// One remaining output row (`m % 4` tail).
    // SAFETY: caller guarantees AVX-512F, `a0` points at `k` floats, `b`
    // is `k × n`, `o0` at `n` floats; every load and store is masked to
    // `rem` lanes.
    #[target_feature(enable = "avx512f")]
    unsafe fn row_one(a0: *const f32, k: usize, b: *const f32, n: usize, o0: *mut f32) {
        let mut j = 0;
        while j < n {
            let rem = (n - j).min(16);
            let mask = prefix_mask(rem);
            let mut x = _mm512_setzero_ps();
            for kk in 0..k {
                let bv = _mm512_maskz_loadu_ps(mask, b.add(kk * n + j));
                x = _mm512_fmadd_ps(_mm512_set1_ps(*a0.add(kk)), bv, x);
            }
            _mm512_mask_storeu_ps(o0.add(j), mask, x);
            j += rem;
        }
    }

    /// One element-wise activation step on a vector: the arithmetic of the
    /// in-place kernels below and of the conv block's epilogue, so the two
    /// agree bit for bit. ReLU is `max_ps(v, 0)` (see the AVX2 twin for the
    /// NaN / sign-of-zero notes); LeakyReLU mask-selects `slope * x` under
    /// `x` on a `>= 0` compare — the scalar branch's exact per-element
    /// arithmetic.
    // SAFETY: caller must guarantee AVX-512F; pure register arithmetic, no
    // memory access.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn activate(v: __m512, act: BlockAct) -> __m512 {
        match act {
            BlockAct::Identity => v,
            BlockAct::Relu => _mm512_max_ps(v, _mm512_setzero_ps()),
            BlockAct::LeakyRelu(slope) => {
                let ge = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(v, _mm512_setzero_ps());
                _mm512_mask_blend_ps(ge, _mm512_mul_ps(v, _mm512_set1_ps(slope)), v)
            }
        }
    }

    /// What one conv-block call hands its tile loops: the padded input, the
    /// parameters and the output map as raw pointers plus their geometry.
    struct Block3x3 {
        /// Zero-padded input, `c` planes of `phpw = (h + 2) * pw` floats and
        /// 16 floats of slack.
        padded: *const f32,
        c: usize,
        h: usize,
        w: usize,
        pw: usize,
        phpw: usize,
        /// `m` rows of `c * 9` weights, and `m` biases.
        weight: *const f32,
        bias: *const f32,
        act: BlockAct,
        pool: bool,
        /// Output map, `m` planes of `oh * ow` floats (`h × w`, halved when
        /// pooling).
        out: *mut f32,
        oh: usize,
        ow: usize,
    }

    /// One conv block for the 3×3 / stride-1 / pad-1 shape every filter
    /// trunk and branch conv uses: convolution + bias, [`BlockAct`] and an
    /// optional 2×2 max-pool in a single pass. Works from a zero-padded
    /// input copy (16 floats of slack for full-width tail loads) in tiles
    /// of two output rows × eight output channels × 16 pixels — 16 zmm
    /// accumulators fed by 2 loads + 8 broadcasts per 16 FMAs at every
    /// width — with a one-row tile for an odd last row and one-channel tiles
    /// for `m % 8`. Each output element starts from its bias and takes its
    /// `c * 9` FMAs in ascending `(channel, ky, kx)` order whatever tile it
    /// falls in; the activation is [`activate`] on the accumulators and the
    /// pool visits `(0,0),(0,1),(1,0),(1,1)` with the keep-first `>` compare
    /// from `-∞` of the element-wise kernel, so the stored map equals conv →
    /// activation → pool run as three passes, bit for bit.
    ///
    /// Neither buffer is cleared: `resize` without `clear` leaves whatever a
    /// previous call wrote, which is sound because the padded image's
    /// interior is copied over, its border and slack are zeroed here, and
    /// every element of `out` is stored by exactly one tile before anything
    /// reads it.
    // SAFETY: caller must guarantee AVX-512F (dispatch checks
    // `is_supported()`); slice sizes are debug-asserted, `out` is sized to
    // `m * oh * ow` and `padded` to `c * phpw + 16` before any raw access,
    // and the tile loops below stay inside both (see `tiles`).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn conv3x3_block_into(
        input: &[f32],
        c: usize,
        h: usize,
        w: usize,
        weight: &[f32],
        m: usize,
        bias: &[f32],
        act: BlockAct,
        pool: bool,
        padded: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        debug_assert_eq!(input.len(), c * h * w, "conv3x3_block_into input size mismatch");
        debug_assert_eq!(weight.len(), m * c * 9, "conv3x3_block_into weight size mismatch");
        debug_assert_eq!(bias.len(), m, "conv3x3_block_into bias size mismatch");
        assert!(
            !pool || (h.is_multiple_of(2) && w.is_multiple_of(2)),
            "maxpool2d requires divisible spatial dims ({}x{} by 2)",
            h,
            w
        );
        let pw = w + 2;
        let phpw = (h + 2) * pw;
        padded.resize(c * phpw + 16, 0.0);
        for (plane, rows) in padded.chunks_exact_mut(phpw).zip(input.chunks_exact(h * w)) {
            plane[..pw].fill(0.0);
            for (dst, src) in plane[pw..].chunks_exact_mut(pw).zip(rows.chunks_exact(w)) {
                dst[0] = 0.0;
                dst[1..=w].copy_from_slice(src);
                dst[w + 1] = 0.0;
            }
            plane[(h + 1) * pw..].fill(0.0);
        }
        padded[c * phpw..].fill(0.0);
        let (oh, ow) = if pool { (h / 2, w / 2) } else { (h, w) };
        out.resize(m * oh * ow, 0.0);
        let block = Block3x3 {
            padded: padded.as_ptr(),
            c,
            h,
            w,
            pw,
            phpw,
            weight: weight.as_ptr(),
            bias: bias.as_ptr(),
            act,
            pool,
            out: out.as_mut_ptr(),
            oh,
            ow,
        };
        let mut o = 0;
        while o + 8 <= m {
            channels::<8>(&block, o);
            o += 8;
        }
        while o < m {
            channels::<1>(&block, o);
            o += 1;
        }
    }

    /// Output channels `o..o + CH`, every row: two rows per tile, then the
    /// odd last row on its own.
    // SAFETY: caller (`conv3x3_block_into`) guarantees AVX-512F and
    // `o + CH <= m`; the row ranges handed on stay below `h`.
    #[target_feature(enable = "avx512f")]
    unsafe fn channels<const CH: usize>(b: &Block3x3, o: usize) {
        let mut y = 0;
        while y + 2 <= b.h {
            tiles::<CH, 2>(b, o, y);
            y += 2;
        }
        if y < b.h {
            tiles::<CH, 1>(b, o, y);
        }
    }

    /// Output channels `o..o + CH` × rows `y..y + ROWS`, all columns, in
    /// 16-pixel tiles (the last one masked).
    // SAFETY: caller guarantees AVX-512F, `o + CH <= m` and `y + ROWS <= h`.
    // Loads are full-width from padded rows `y..y + ROWS + 2 <= h + 2` at
    // columns `x + kx .. x + kx + 16` with `x < w`, so they end at most 16
    // floats past the last plane — inside the slack; lanes at or past `rem`
    // hold neighbouring rows or slack and never reach memory, because every
    // store is masked to `rem` lanes (`rem / 2` pooled lanes, each reading
    // only lanes below `rem`). Stores land in plane `o + oc`, row `y + r`
    // (`y / 2` pooled), columns `x..x + rem` (`x / 2..` pooled) of `out`.
    // Across a call the tiles partition the output map, so every element is
    // written exactly once.
    #[target_feature(enable = "avx512f")]
    unsafe fn tiles<const CH: usize, const ROWS: usize>(b: &Block3x3, o: usize, y: usize) {
        debug_assert!(!b.pool || ROWS == 2, "pooling needs both rows of the window in one tile");
        let k = b.c * 9;
        let wp = b.weight.add(o * k);
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 0, 0, 0, 0, 0, 0, 0, 0);
        let odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 0, 0, 0, 0, 0, 0, 0, 0);
        let mut x = 0;
        while x < b.w {
            let rem = (b.w - x).min(16);
            let mut acc = [[_mm512_setzero_ps(); ROWS]; CH];
            for (oc, rows) in acc.iter_mut().enumerate() {
                *rows = [_mm512_set1_ps(*b.bias.add(o + oc)); ROWS];
            }
            let mut r = 0;
            for ch in 0..b.c {
                // Top-left of the receptive field for output (y, x) in the
                // padded image.
                let rf = b.padded.add(ch * b.phpw + y * b.pw + x);
                for ky in 0..3 {
                    for kx in 0..3 {
                        let mut px = [_mm512_setzero_ps(); ROWS];
                        for (row, p) in px.iter_mut().enumerate() {
                            *p = _mm512_loadu_ps(rf.add((row + ky) * b.pw + kx));
                        }
                        for (oc, rows) in acc.iter_mut().enumerate() {
                            let wv = _mm512_set1_ps(*wp.add(oc * k + r));
                            for (a, &p) in rows.iter_mut().zip(&px) {
                                *a = _mm512_fmadd_ps(wv, p, *a);
                            }
                        }
                        r += 1;
                    }
                }
            }
            for (oc, rows) in acc.iter().enumerate() {
                let plane = b.out.add((o + oc) * b.oh * b.ow);
                if b.pool {
                    let (top, bottom) = (activate(rows[0], b.act), activate(rows[ROWS - 1], b.act));
                    let mut best = _mm512_set1_ps(f32::NEG_INFINITY);
                    for v in [
                        _mm512_permutexvar_ps(even, top),
                        _mm512_permutexvar_ps(odd, top),
                        _mm512_permutexvar_ps(even, bottom),
                        _mm512_permutexvar_ps(odd, bottom),
                    ] {
                        let gt = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, best);
                        best = _mm512_mask_blend_ps(gt, best, v);
                    }
                    _mm512_mask_storeu_ps(plane.add(y / 2 * b.ow + x / 2), prefix_mask(rem / 2), best);
                } else {
                    for (row, &a) in rows.iter().enumerate() {
                        _mm512_mask_storeu_ps(plane.add((y + row) * b.ow + x), prefix_mask(rem), activate(a, b.act));
                    }
                }
            }
            x += rem;
        }
    }

    // -- Training convolutions (`crate::grad`'s AVX-512 path) -------------
    //
    // Bit-identical to `crate::grad`'s portable kernels: every lane is one
    // of the sums the reference computes, from the same start and taking
    // its terms in the same order, each term a `mul_ps` then an `add_ps`
    // (never `fmadd`), zero weights skipped by a scalar branch per
    // (channel, tap). Speed comes from holding 12–16 of those independent
    // sums in registers at once, enough to hide the adds' latency.

    /// Panics unless `g` is a unit-stride convolution whose output spans the
    /// padded input exactly (`oh + k - 1 = hp`, `ow + k - 1 = wp`): the
    /// bounds every training kernel's raw reads rely on.
    fn assert_unit_stride(g: &Geom) {
        let spans = g.k >= 1 && g.oh + g.k - 1 == g.hp && g.ow + g.k - 1 == g.wp;
        assert!(g.s == 1 && g.oh >= 1 && g.ow >= 1 && spans && g.ckk == g.c * g.k * g.k, "not a unit-stride geometry");
    }

    /// 16-lane vectors of output positions per forward / dX tile.
    const TRAIN_VECS: usize = 4;

    /// The lane masks of a tile's vectors when `len` positions remain.
    fn tile_masks(len: usize) -> [__mmask16; TRAIN_VECS] {
        std::array::from_fn(|v| prefix_mask(len.saturating_sub(16 * v).min(16)))
    }

    /// Unit-stride training forward: `out[co][p] = (Σ_kk w[co][kk]·x[kk, p])
    /// + bias[co]`, `kk` ascending from +0.0. Like the portable kernel it
    /// runs over the padded-pitch grid `q = oy·wp + ox`, where every tap is
    /// one shifted run of `xpad`: tiles of four output channels (then single
    /// channels) × 64 positions put their sums plus bias in `scratch`
    /// (`[4][q_len]`, every cell stored), whose rows' first `ow` cells are
    /// then copied to `out`.
    // SAFETY: caller must guarantee AVX-512F; the sizes the raw accesses
    // rely on are asserted here (see `forward_tiles`).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn train_forward(
        g: &Geom,
        xpad: &[f32],
        weight: &[f32],
        bias: &[f32],
        scratch: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        assert_unit_stride(g);
        assert!(xpad.len() == g.c * g.hp * g.wp && weight.len() == g.m * g.ckk && bias.len() == g.m);
        assert_eq!(out.len(), g.m * g.oh * g.ow, "train_forward output size mismatch");
        let q_len = (g.oh - 1) * g.wp + g.ow;
        scratch.resize(4 * q_len, 0.0);
        let mut co = 0;
        while co < g.m {
            let ch = if g.m - co >= 4 { 4 } else { 1 };
            let (x, w) = (xpad.as_ptr(), weight.as_ptr().add(co * g.ckk));
            if ch == 4 {
                forward_tiles::<4>(g, x, w, &bias[co..], q_len, scratch.as_mut_ptr());
            } else {
                forward_tiles::<1>(g, x, w, &bias[co..], q_len, scratch.as_mut_ptr());
            }
            let maps = out[co * g.oh * g.ow..].chunks_exact_mut(g.oh * g.ow).zip(scratch.chunks(q_len));
            for (o_map, s_map) in maps.take(ch) {
                for (o_row, s_row) in o_map.chunks_exact_mut(g.ow).zip(s_map.chunks(g.wp)) {
                    o_row.copy_from_slice(&s_row[..g.ow]);
                }
            }
            co += ch;
        }
    }

    /// `CH` output channels of [`train_forward`] (`weight` at the first
    /// one's row, `bias` at its bias), every position, into `scratch`.
    // SAFETY: caller guarantees AVX-512F, unit stride, `CH` weight rows of
    // `ckk` floats at `weight` and `CH` biases, `xpad` of `c·hp·wp` and
    // `scratch` of `CH·q_len` floats. A tap `(ci, ky, kx)` at grid position
    // `q < q_len` reads `xpad[(ci·hp + ky)·wp + kx + q]`, at most
    // `c·hp·wp - 1` because `oh + k - 1 = hp` and `ow + k - 1 = wp`; every
    // load and store is masked to positions below `q_len` (the pointers of
    // fully masked vectors are formed with `wrapping_add` and never
    // dereferenced).
    #[target_feature(enable = "avx512f")]
    unsafe fn forward_tiles<const CH: usize>(
        g: &Geom,
        xpad: *const f32,
        weight: *const f32,
        bias: &[f32],
        q_len: usize,
        scratch: *mut f32,
    ) {
        let mut q0 = 0;
        while q0 < q_len {
            let masks = tile_masks(q_len - q0);
            let mut acc = [[_mm512_setzero_ps(); TRAIN_VECS]; CH];
            let mut kk = 0;
            for ci in 0..g.c {
                for ky in 0..g.k {
                    let row = xpad.add((ci * g.hp + ky) * g.wp + q0);
                    for kx in 0..g.k {
                        let mut xs = [_mm512_setzero_ps(); TRAIN_VECS];
                        for (v, x) in xs.iter_mut().enumerate() {
                            *x = _mm512_maskz_loadu_ps(masks[v], row.wrapping_add(kx + 16 * v));
                        }
                        for (oc, sums) in acc.iter_mut().enumerate() {
                            let wv = *weight.add(oc * g.ckk + kk);
                            if wv != 0.0 {
                                let wv = _mm512_set1_ps(wv);
                                for (sum, &x) in sums.iter_mut().zip(&xs) {
                                    *sum = _mm512_add_ps(*sum, _mm512_mul_ps(wv, x));
                                }
                            }
                        }
                        kk += 1;
                    }
                }
            }
            for (oc, sums) in acc.iter().enumerate() {
                let b = _mm512_set1_ps(bias[oc]);
                let dst = scratch.add(oc * q_len + q0);
                for (v, &sum) in sums.iter().enumerate() {
                    _mm512_mask_storeu_ps(dst.wrapping_add(16 * v), masks[v], _mm512_add_ps(sum, b));
                }
            }
            q0 += 16 * TRAIN_VECS;
        }
    }

    /// Unit-stride training dW and db: `dw[co][kk] += Σ_p g[co][p]·x[kk, p]`
    /// (`p` ascending from +0.0, padded zeros included) and `db[co] += Σ_p
    /// g[co][p]` (`p` ascending from −0.0, the start `Iterator::sum` uses).
    /// Each lane is one output channel: per group of 16 channels a gather
    /// pass transposes the gradient to `scratch` (`[p][16]`) and runs the db
    /// chains, then blocks of 12 units (then 6, 3, 1) run side by side, a
    /// unit being one tap whose input cell is broadcast to every lane. With
    /// eight channels or fewer and kernels two taps wide or more, lanes `2c`
    /// and `2c + 1` both hold channel `c` and a unit is two adjacent taps
    /// of a kernel row: one 64-bit broadcast puts the input cells under them
    /// in the even and the odd lanes, so no lane idles. (A row of odd width
    /// ends on the pair `(k - 2, k - 1)`, whose even lane repeats a tap the
    /// previous unit summed and is dropped.)
    // SAFETY: caller must guarantee AVX-512F; the sizes the raw accesses
    // rely on are asserted here. Gather lanes are masked to channels below
    // `m` at positions below `p`, and `scratch` holds `p` rows of 16 floats;
    // see `weight_grad_units` for the dW loop.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn train_weight_grads(
        g: &Geom,
        xpad: &[f32],
        grad_out: &[f32],
        scratch: &mut Vec<f32>,
        dw: &mut [f32],
        db: &mut [f32],
    ) {
        let p = g.oh * g.ow;
        assert_unit_stride(g);
        assert!(xpad.len() == g.c * g.hp * g.wp && grad_out.len() == g.m * p && db.len() == g.m);
        assert!(grad_out.len() <= i32::MAX as usize, "train_weight_grads: gather offsets are i32");
        assert_eq!(dw.len(), g.m * g.ckk, "train_weight_grads weight-gradient size mismatch");
        let pairs = g.m <= 8 && g.k >= 2;
        scratch.resize(16 * p, 0.0);
        let gt = scratch.as_mut_ptr();
        for first in (0..g.m).step_by(16) {
            // Lane `l` reads channel `first + l`, or `l / 2` in pairs.
            let channel = |l: usize| if pairs { l / 2 } else { first + l };
            let offsets: [i32; 16] = std::array::from_fn(|l| (channel(l).min(g.m - 1) * p) as i32);
            let live = (0..16).filter(|&l| channel(l) < g.m).fold(0, |mask: __mmask16, l| mask | 1 << l);
            let offsets = _mm512_loadu_si512(offsets.as_ptr().cast());
            let mut sum = _mm512_set1_ps(-0.0);
            for i in 0..p {
                let row = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), live, offsets, grad_out.as_ptr().add(i));
                _mm512_storeu_ps(gt.add(16 * i), row);
                sum = _mm512_add_ps(sum, row);
            }
            let mut sums = [0.0f32; 16];
            _mm512_storeu_ps(sums.as_mut_ptr(), sum);
            for (l, &v) in sums.iter().enumerate().step_by(if pairs { 2 } else { 1 }) {
                if channel(l) < g.m {
                    db[channel(l)] += v;
                }
            }
            let units = g.c * g.k * if pairs { g.k.div_ceil(2) } else { g.k };
            let x = xpad.as_ptr();
            let mut u = 0;
            while u < units {
                u += match (units - u, pairs) {
                    (12.., false) => weight_grad_units::<12, false>(g, x, gt, first, u, dw),
                    (6.., false) => weight_grad_units::<6, false>(g, x, gt, first, u, dw),
                    (3.., false) => weight_grad_units::<3, false>(g, x, gt, first, u, dw),
                    (_, false) => weight_grad_units::<1, false>(g, x, gt, first, u, dw),
                    (12.., true) => weight_grad_units::<12, true>(g, x, gt, first, u, dw),
                    (6.., true) => weight_grad_units::<6, true>(g, x, gt, first, u, dw),
                    (3.., true) => weight_grad_units::<3, true>(g, x, gt, first, u, dw),
                    (_, true) => weight_grad_units::<1, true>(g, x, gt, first, u, dw),
                };
            }
        }
    }

    /// Units `u0..u0 + T` of [`train_weight_grads`] for the channel group
    /// starting at `first` (pairs if `PAIRS`); returns `T`.
    // SAFETY: caller guarantees AVX-512F, unit stride, `u0 + T` units at
    // most, `xpad` of `c·hp·wp` floats and `gt` of `16·oh·ow`. A unit's
    // first tap `(ci, ky, kx)` at position `(oy, ox)` reads `xpad[off + oy·wp
    // + ox]` with `off = (ci·hp + ky)·wp + kx`, at most `c·hp·wp - 1`
    // because `oh + k - 1 = hp` and `ow + k - 1 = wp`; a pair's second tap
    // is `kx + 1 <= k - 1`, so its cell is inside the same bound.
    #[target_feature(enable = "avx512f")]
    unsafe fn weight_grad_units<const T: usize, const PAIRS: bool>(
        g: &Geom,
        xpad: *const f32,
        gt: *const f32,
        first: usize,
        u0: usize,
        dw: &mut [f32],
    ) -> usize {
        let per_row = if PAIRS { g.k.div_ceil(2) } else { g.k };
        // Each unit's first tap: its cell offset in `xpad` and its `kk`.
        let taps: [(usize, usize); T] = std::array::from_fn(|t| {
            let (row, j) = ((u0 + t) / per_row, (u0 + t) % per_row);
            let kx = if PAIRS { (2 * j).min(g.k - 2) } else { j };
            ((row / g.k * g.hp + row % g.k) * g.wp + kx, row * g.k + kx)
        });
        let mut acc = [_mm512_setzero_ps(); T];
        for oy in 0..g.oh {
            let x_row = xpad.add(oy * g.wp);
            let g_row = gt.add(oy * g.ow * 16);
            for ox in 0..g.ow {
                let gv = _mm512_loadu_ps(g_row.add(16 * ox));
                let x = x_row.add(ox);
                for (sum, &(off, _)) in acc.iter_mut().zip(&taps) {
                    let xv = if PAIRS {
                        _mm512_castpd_ps(_mm512_set1_pd(x.add(off).cast::<f64>().read_unaligned()))
                    } else {
                        _mm512_set1_ps(*x.add(off))
                    };
                    *sum = _mm512_add_ps(*sum, _mm512_mul_ps(xv, gv));
                }
            }
        }
        let mut sums = [0.0f32; 16];
        for (&sum, &(_, kk)) in acc.iter().zip(&taps) {
            _mm512_storeu_ps(sums.as_mut_ptr(), sum);
            if PAIRS {
                // Lane `2c + 1` is tap `kk + 1` and lane `2c` tap `kk`, unless
                // `kx` is odd: then it is the pair a row of odd width ends on,
                // and the previous unit summed tap `kk`.
                for (c, lanes) in sums.chunks_exact(2).take(g.m).enumerate() {
                    if (kk % g.k).is_multiple_of(2) {
                        dw[c * g.ckk + kk] += lanes[0];
                    }
                    dw[c * g.ckk + kk + 1] += lanes[1];
                }
            } else {
                for (l, &v) in sums.iter().take(g.m - first).enumerate() {
                    dw[(first + l) * g.ckk + kk] += v;
                }
            }
        }
        T
    }

    /// Taps whose `t[p]` [`train_input_grad`] computes side by side.
    const TRAIN_TAPS: usize = 4;

    /// Unit-stride training dX over the padded input, left zero-started in
    /// `scratch[..c·hp·wp]`: for blocks of `TRAIN_TAPS` taps (then single
    /// taps), `t[tap][p] = Σ_co w[co][kk]·g[co][p]` (`co` ascending from
    /// +0.0, zero weights skipped) in tiles of `TRAIN_TAPS` taps × 64
    /// positions into the rest of `scratch`, then each tap's `t` added into
    /// dX in tap order, so every cell still takes its terms `kk` ascending.
    // SAFETY: caller must guarantee AVX-512F; the sizes the raw accesses
    // rely on are asserted here (see `input_grad_taps`).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn train_input_grad(g: &Geom, weight: &[f32], grad_out: &[f32], scratch: &mut Vec<f32>) {
        let (p, pad_len) = (g.oh * g.ow, g.c * g.hp * g.wp);
        assert_unit_stride(g);
        assert!(weight.len() == g.m * g.ckk && grad_out.len() == g.m * p, "train_input_grad size mismatch");
        scratch.clear();
        scratch.resize(pad_len + TRAIN_TAPS * p, 0.0);
        let (dx_pad, t) = scratch.split_at_mut(pad_len);
        let mut kk = 0;
        while kk < g.ckk {
            kk += if g.ckk - kk >= TRAIN_TAPS {
                input_grad_taps::<TRAIN_TAPS>(g, weight, grad_out, kk, t, dx_pad)
            } else {
                input_grad_taps::<1>(g, weight, grad_out, kk, t, dx_pad)
            };
        }
    }

    /// Taps `kk0..kk0 + T` of [`train_input_grad`]; returns `T`.
    // SAFETY: caller guarantees AVX-512F, unit stride, `kk0 + T <= ckk`,
    // `weight` of `m·ckk` and `grad_out` of `m·p` floats, `t` of at least
    // `T·p` and `dx_pad` of `c·hp·wp`. Gradient loads and `t` stores are
    // masked to positions below `p` (fully masked vectors' pointers formed
    // with `wrapping_add`); the tap `(ci, ky, kx)` adds `t` row `oy` into
    // `dx_pad[(ci·hp + oy + ky)·wp + kx ..][..ow]`, inside the plane
    // because `oh + k - 1 = hp` and `ow + k - 1 = wp`, and every access
    // there is masked to the row's `ow` cells.
    #[target_feature(enable = "avx512f")]
    unsafe fn input_grad_taps<const T: usize>(
        g: &Geom,
        weight: &[f32],
        grad_out: &[f32],
        kk0: usize,
        t: &mut [f32],
        dx_pad: &mut [f32],
    ) -> usize {
        let p = g.oh * g.ow;
        let (w, go, tp, dx) = (weight.as_ptr(), grad_out.as_ptr(), t.as_mut_ptr(), dx_pad.as_mut_ptr());
        let mut q0 = 0;
        while q0 < p {
            let masks = tile_masks(p - q0);
            let mut acc = [[_mm512_setzero_ps(); TRAIN_VECS]; T];
            for co in 0..g.m {
                let src = go.add(co * p + q0);
                let mut gs = [_mm512_setzero_ps(); TRAIN_VECS];
                for (v, gv) in gs.iter_mut().enumerate() {
                    *gv = _mm512_maskz_loadu_ps(masks[v], src.wrapping_add(16 * v));
                }
                for (tap, sums) in acc.iter_mut().enumerate() {
                    let wv = *w.add(co * g.ckk + kk0 + tap);
                    if wv != 0.0 {
                        let wv = _mm512_set1_ps(wv);
                        for (sum, &gv) in sums.iter_mut().zip(&gs) {
                            *sum = _mm512_add_ps(*sum, _mm512_mul_ps(wv, gv));
                        }
                    }
                }
            }
            for (tap, sums) in acc.iter().enumerate() {
                let dst = tp.add(tap * p + q0);
                for (v, &sum) in sums.iter().enumerate() {
                    _mm512_mask_storeu_ps(dst.wrapping_add(16 * v), masks[v], sum);
                }
            }
            q0 += 16 * TRAIN_VECS;
        }
        for tap in 0..T {
            let kk = kk0 + tap;
            let (ci, ky, kx) = (kk / (g.k * g.k), kk / g.k % g.k, kk % g.k);
            for oy in 0..g.oh {
                let src = tp.add(tap * p + oy * g.ow);
                let dst = dx.add((ci * g.hp + oy + ky) * g.wp + kx);
                let mut x = 0;
                while x < g.ow {
                    let mask = prefix_mask((g.ow - x).min(16));
                    let sum =
                        _mm512_add_ps(_mm512_maskz_loadu_ps(mask, dst.add(x)), _mm512_maskz_loadu_ps(mask, src.add(x)));
                    _mm512_mask_storeu_ps(dst.add(x), mask, sum);
                    x += 16;
                }
            }
        }
        T
    }

    /// 2×2 max-pool of an even `[c, h, w]` map with the argmax training
    /// records, sixteen windows per step: even and odd columns of the two
    /// input rows are split by permutes and compared as `(0,0), (0,1),
    /// (1,0), (1,1)` against a running best from `-inf` with the
    /// keep-first `>` (`_CMP_GT_OQ`: a NaN never wins), the index lanes
    /// following the same mask, exactly as [`crate::ops::maxpool2d_into`]
    /// scans a window.
    // SAFETY: caller must guarantee AVX-512F and even `h`, `w` (checked
    // below). `out` and `argmax` are sized to `c·oh·ow` before any raw
    // access; a step over outputs `ox..ox + r` (`r <= 16`) of row `oy`
    // reads input columns `2·ox .. 2·(ox + r)` of rows `2·oy` and
    // `2·oy + 1`, masked to those cells, and stores `r` lanes.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn maxpool2x2_argmax_into(
        input: &[f32],
        c: usize,
        h: usize,
        w: usize,
        out: &mut Vec<f32>,
        argmax: &mut Vec<usize>,
    ) {
        assert!(
            input.len() == c * h * w && h.is_multiple_of(2) && w.is_multiple_of(2),
            "maxpool2x2_argmax_into shape mismatch"
        );
        assert!(input.len() <= i32::MAX as usize, "maxpool2x2_argmax_into: index lanes are i32");
        let (oh, ow) = (h / 2, w / 2);
        out.clear();
        out.resize(c * oh * ow, 0.0);
        argmax.clear();
        argmax.resize(c * oh * ow, 0);
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        let odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
        let (ip, op, ap) = (input.as_ptr(), out.as_mut_ptr(), argmax.as_mut_ptr());
        for ch in 0..c {
            for oy in 0..oh {
                let mut ox = 0;
                while ox < ow {
                    let r = (ow - ox).min(16);
                    let (lo, hi) = (prefix_mask((2 * r).min(16)), prefix_mask((2 * r).saturating_sub(16)));
                    let first = ch * h * w + 2 * oy * w + 2 * ox;
                    let mut best = _mm512_set1_ps(f32::NEG_INFINITY);
                    let mut best_i = _mm512_add_epi32(_mm512_set1_epi32(first as i32), even);
                    for (dy, cols) in [(0, even), (0, odd), (1, even), (1, odd)] {
                        let row = ip.add(first + dy * w);
                        let (a, b) = (_mm512_maskz_loadu_ps(lo, row), _mm512_maskz_loadu_ps(hi, row.wrapping_add(16)));
                        let v = _mm512_permutex2var_ps(a, cols, b);
                        let gt = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, best);
                        let at = _mm512_add_epi32(_mm512_set1_epi32((first + dy * w) as i32), cols);
                        best = _mm512_mask_blend_ps(gt, best, v);
                        best_i = _mm512_mask_blend_epi32(gt, best_i, at);
                    }
                    let o = ch * oh * ow + oy * ow + ox;
                    _mm512_mask_storeu_ps(op.add(o), prefix_mask(r), best);
                    let (i_lo, i_hi) = (_mm512_castsi512_si256(best_i), _mm512_extracti64x4_epi64::<1>(best_i));
                    _mm512_mask_storeu_epi64(ap.add(o).cast(), prefix_mask(r) as u8, _mm512_cvtepu32_epi64(i_lo));
                    if r > 8 {
                        _mm512_mask_storeu_epi64(
                            ap.add(o + 8).cast(),
                            prefix_mask(r - 8) as u8,
                            _mm512_cvtepu32_epi64(i_hi),
                        );
                    }
                    ox += r;
                }
            }
        }
    }

    /// In-place [`activate`] over a buffer (ReLU and LeakyReLU).
    // SAFETY: caller must guarantee AVX-512F; full-width access only
    // while `i + 16 <= n`, the tail masked to the remaining lanes.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn activate_in_place(data: &mut [f32], act: BlockAct) {
        let n = data.len();
        let p = data.as_mut_ptr();
        let mut i = 0;
        while i + 16 <= n {
            _mm512_storeu_ps(p.add(i), activate(_mm512_loadu_ps(p.add(i)), act));
            i += 16;
        }
        if i < n {
            let mask = prefix_mask(n - i);
            _mm512_mask_storeu_ps(p.add(i), mask, activate(_mm512_maskz_loadu_ps(mask, p.add(i)), act));
        }
    }
}

// ---------------------------------------------------------------------------
// NEON kernels (aarch64).
//
// NEON is a baseline feature of aarch64, so no runtime detection or
// `target_feature` gating is needed and the kernels stay safe apart from
// the raw-pointer loads. Only the dominant kernel (matmul) is vectorised;
// the others delegate to scalar, which the dispatch table encodes.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon {
    use std::arch::aarch64::*;

    /// `out = A (m×k) · B (k×n)` with 4-lane tiles; per element the scalar
    /// ascending-`kk` skip-zero multiply + add order, so NEON stays
    /// bit-identical to the scalar reference (unlike the FMA-based AVX2
    /// path, which only promises the module-level ULP tolerance).
    pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut Vec<f32>) {
        debug_assert_eq!(a.len(), m * k, "matmul_into lhs size mismatch");
        debug_assert_eq!(b.len(), k * n, "matmul_into rhs size mismatch");
        out.clear();
        out.resize(m * n, 0.0);
        let bp = b.as_ptr();
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            let op = o_row.as_mut_ptr();
            let mut j = 0;
            while j + 16 <= n {
                // SAFETY: NEON is baseline on aarch64; the 4×4-lane loads
                // and stores cover columns `j..j+16` with `j + 16 <= n`
                // guaranteed by the loop guard, inside `b`'s row `kk` and
                // `o_row`.
                unsafe {
                    let mut acc0 = vdupq_n_f32(0.0);
                    let mut acc1 = vdupq_n_f32(0.0);
                    let mut acc2 = vdupq_n_f32(0.0);
                    let mut acc3 = vdupq_n_f32(0.0);
                    for (kk, &c) in a_row.iter().enumerate() {
                        if c == 0.0 {
                            continue;
                        }
                        let bq = bp.add(kk * n + j);
                        let vc = vdupq_n_f32(c);
                        // vmulq + vaddq, not vfmaq: the scalar reference
                        // rounds the product before the add.
                        acc0 = vaddq_f32(acc0, vmulq_f32(vc, vld1q_f32(bq)));
                        acc1 = vaddq_f32(acc1, vmulq_f32(vc, vld1q_f32(bq.add(4))));
                        acc2 = vaddq_f32(acc2, vmulq_f32(vc, vld1q_f32(bq.add(8))));
                        acc3 = vaddq_f32(acc3, vmulq_f32(vc, vld1q_f32(bq.add(12))));
                    }
                    vst1q_f32(op.add(j), acc0);
                    vst1q_f32(op.add(j + 4), acc1);
                    vst1q_f32(op.add(j + 8), acc2);
                    vst1q_f32(op.add(j + 12), acc3);
                }
                j += 16;
            }
            while j + 4 <= n {
                // SAFETY: NEON is baseline on aarch64; one 4-lane load and
                // store at columns `j..j+4` with `j + 4 <= n` guaranteed
                // by the loop guard.
                unsafe {
                    let mut acc = vdupq_n_f32(0.0);
                    for (kk, &c) in a_row.iter().enumerate() {
                        if c == 0.0 {
                            continue;
                        }
                        acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(c), vld1q_f32(bp.add(kk * n + j))));
                    }
                    vst1q_f32(op.add(j), acc);
                }
                j += 4;
            }
            if j < n {
                for (kk, &c) in a_row.iter().enumerate() {
                    if c == 0.0 {
                        continue;
                    }
                    let row = &b[kk * n + j..(kk + 1) * n];
                    for (o, &v) in o_row[j..].iter_mut().zip(row) {
                        *o += c * v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..len).map(f).collect()
    }

    /// Asserts the module-level equivalence contract against the scalar
    /// reference: bit-exact for non-SIMD backends, within `ULP_TOLERANCE`
    /// (or `ABS_TOLERANCE` near zero) per element for SIMD ones.
    #[track_caller]
    fn assert_within_contract(backend: KernelBackend, out: &[f32], reference: &[f32], what: &str) {
        assert_eq!(out.len(), reference.len(), "{} {what} length", backend.name());
        if !backend.is_simd() {
            assert_eq!(out, reference, "{} {what} must be bit-exact", backend.name());
            return;
        }
        for (i, (&got, &want)) in out.iter().zip(reference).enumerate() {
            let ulps = (got.to_bits() as i64 - want.to_bits() as i64).unsigned_abs();
            let close = got == want || (got - want).abs() <= ABS_TOLERANCE || ulps <= ULP_TOLERANCE;
            assert!(close, "{} {what} [{i}]: got {got}, want {want} ({ulps} ulps)", backend.name());
        }
    }

    /// Every supported backend must match the scalar reference within the
    /// documented tolerance on shapes covering all tile paths (odd rows,
    /// column tails, zero coefficients). The scalar backend itself is the
    /// reference; SIMD backends that re-associate with FMA get the ULP
    /// budget, NEON (same accumulation order) comes out bit-exact anyway.
    #[test]
    fn dispatch_matmul_matches_reference_within_tolerance() {
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (2, 4, 32), (3, 5, 37), (8, 144, 196), (5, 7, 70), (2, 9, 8)] {
            let mut a = seq(m * k, |v| (v as f32 * 0.37).sin());
            // Sprinkle exact zeros: the scalar reference skips them, SIMD
            // paths must still land within tolerance.
            for v in a.iter_mut().step_by(5) {
                *v = 0.0;
            }
            let b = seq(k * n, |v| (v as f32 * 0.11).cos());
            let mut reference = Vec::new();
            ops::matmul_into(&a, m, k, &b, n, &mut reference);
            for backend in KernelBackend::supported() {
                let mut out = vec![f32::NAN; 2];
                matmul_into_with(backend, &a, m, k, &b, n, &mut out);
                assert_within_contract(backend, &out, &reference, &format!("matmul {m}x{k}x{n}"));
            }
        }
    }

    /// The fused conv path (3×3/s1/p1 on AVX2) and the im2col fallback
    /// must both match the scalar conv within the matmul tolerance.
    #[test]
    fn dispatch_conv2d_matches_reference_within_tolerance() {
        let shapes = [
            // (c, m, h, w, kernel, stride, padding); first three take the
            // fused 3×3 path on AVX2 (w covers 16-tiles, 8-tails and
            // masked sub-8 tails), the last is the im2col fallback.
            (3usize, 8usize, 28usize, 28usize, 3usize, 1usize, 1usize),
            (8, 16, 14, 14, 3, 1, 1),
            (2, 5, 7, 19, 3, 1, 1),
            (4, 6, 12, 12, 3, 2, 1),
        ];
        for &(c, m, h, w, kernel, stride, padding) in &shapes {
            let spec = ConvSpec { in_channels: c, out_channels: m, kernel, stride, padding };
            let input = seq(c * h * w, |v| (v as f32 * 0.29).sin());
            let weight = seq(m * c * kernel * kernel, |v| (v as f32 * 0.17).cos() * 0.2);
            let bias = seq(m, |v| (v as f32 * 0.41).sin() * 0.1);
            let (oh, ow) = spec.out_size(h, w);
            let mut scratch = Vec::new();
            let mut reference = Vec::new();
            conv2d_into_with(KernelBackend::Scalar, &input, h, w, &spec, &weight, &bias, &mut scratch, &mut reference);
            // The scalar dispatch arm must agree bit-exactly with the
            // training-path conv (im2col + scalar matmul + bias).
            let mut cols = Vec::new();
            ops::im2col_into(&input, h, w, &spec, &mut cols);
            let mut train_ref = Vec::new();
            ops::matmul_into(&weight, m, c * kernel * kernel, &cols, oh * ow, &mut train_ref);
            for (ch, chunk) in train_ref.chunks_exact_mut(oh * ow).enumerate() {
                for v in chunk {
                    *v += bias[ch];
                }
            }
            assert_eq!(reference, train_ref, "scalar conv2d vs training path {c}ch {h}x{w}");
            for backend in KernelBackend::supported() {
                let mut out = vec![f32::NAN; 2];
                conv2d_into_with(backend, &input, h, w, &spec, &weight, &bias, &mut scratch, &mut out);
                assert_within_contract(backend, &out, &reference, &format!("conv2d {c}ch {h}x{w} k{kernel}s{stride}"));
            }
            // The block's epilogues are 1-Lipschitz, so the same contract
            // holds for the whole block against the scalar block.
            let pools: &[bool] = if oh.is_multiple_of(2) && ow.is_multiple_of(2) { &[false, true] } else { &[false] };
            for act in [BlockAct::Relu, BlockAct::LeakyRelu(0.1)] {
                for &pool in pools {
                    let scalar = KernelBackend::Scalar;
                    conv2d_block_into_with(
                        scalar,
                        &input,
                        h,
                        w,
                        &spec,
                        &weight,
                        &bias,
                        act,
                        pool,
                        &mut scratch,
                        &mut reference,
                    );
                    for backend in KernelBackend::supported() {
                        let mut out = vec![f32::NAN; 2];
                        conv2d_block_into_with(
                            backend,
                            &input,
                            h,
                            w,
                            &spec,
                            &weight,
                            &bias,
                            act,
                            pool,
                            &mut scratch,
                            &mut out,
                        );
                        assert_within_contract(
                            backend,
                            &out,
                            &reference,
                            &format!("block {c}ch {h}x{w} {act:?} pool={pool}"),
                        );
                    }
                }
            }
        }
    }

    /// Activations are element-wise: every backend must agree with the
    /// scalar loop by value on every length (vector body + scalar tail),
    /// including negative zeros and exact zeros.
    #[test]
    fn dispatch_activations_bit_identical_across_backends() {
        for len in [0usize, 1, 7, 8, 9, 40, 67] {
            let mut base = seq(len, |v| (v as f32 * 0.47).sin());
            if len > 3 {
                base[1] = 0.0;
                base[2] = -0.0;
                base[3] = -1.5;
            }
            let mut relu_ref = base.clone();
            relu_in_place_with(KernelBackend::Scalar, &mut relu_ref);
            let mut leaky_ref = base.clone();
            leaky_relu_in_place_with(KernelBackend::Scalar, &mut leaky_ref, 0.1);
            for backend in KernelBackend::supported() {
                let mut relu_out = base.clone();
                relu_in_place_with(backend, &mut relu_out);
                assert_eq!(relu_out, relu_ref, "{} relu len {len}", backend.name());
                let mut leaky_out = base.clone();
                leaky_relu_in_place_with(backend, &mut leaky_out, 0.1);
                assert_eq!(leaky_out, leaky_ref, "{} leaky_relu len {len}", backend.name());
            }
        }
    }

    #[test]
    fn dispatch_matvec_bit_identical_across_backends() {
        for &(m, k) in &[(1usize, 3usize), (8, 16), (17, 144), (3, 1)] {
            let a = seq(m * k, |v| (v as f32 * 0.23).sin());
            let x = seq(k, |v| (v as f32 * 0.71).cos());
            let mut reference = Vec::new();
            ops::matvec_into(&a, m, k, &x, &mut reference);
            for backend in KernelBackend::supported() {
                let mut out = vec![f32::NAN; 1];
                matvec_into_with(backend, &a, m, k, &x, &mut out);
                assert_eq!(out, reference, "{} matvec {}x{}", backend.name(), m, k);
            }
        }
    }

    #[test]
    fn dispatch_maxpool_bit_identical_across_backends() {
        // Includes -0.0 / +0.0 ties, which `max_ps` would get wrong; the
        // compare+blend implementation must keep the first of equal values.
        for &(c, h, w) in &[(1usize, 2usize, 2usize), (3, 4, 20), (2, 8, 8), (16, 28, 28)] {
            let mut input = seq(c * h * w, |v| (v as f32 * 0.53).sin());
            for v in input.iter_mut().step_by(7) {
                *v = -0.0;
            }
            for v in input.iter_mut().step_by(11) {
                *v = 0.0;
            }
            let mut reference = Vec::new();
            ops::maxpool2d_into(&input, c, h, w, 2, &mut reference, None);
            for backend in KernelBackend::supported() {
                let mut out = vec![f32::NAN; 1];
                maxpool2d_into_with(backend, &input, c, h, w, 2, &mut out);
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{} maxpool {}x{}x{}",
                    backend.name(),
                    c,
                    h,
                    w
                );
            }
        }
    }

    #[test]
    fn dispatch_gap_bit_identical_across_backends() {
        for &(c, h, w) in &[(1usize, 1usize, 1usize), (8, 14, 14), (17, 7, 7), (16, 3, 5)] {
            let input = seq(c * h * w, |v| (v as f32 * 0.31).sin());
            let mut reference = Vec::new();
            ops::global_avg_pool_into(&input, c, h, w, &mut reference);
            for backend in KernelBackend::supported() {
                let mut out = vec![f32::NAN; 1];
                global_avg_pool_into_with(backend, &input, c, h, w, &mut out);
                assert_eq!(out, reference, "{} gap {}x{}x{}", backend.name(), c, h, w);
            }
        }
    }

    #[test]
    fn active_backend_is_supported_and_named() {
        let active = KernelBackend::active();
        assert!(active.is_supported());
        assert!(["scalar", "avx2", "avx512", "neon"].contains(&active.name()));
        // The supported list always starts with the scalar reference.
        assert_eq!(KernelBackend::supported()[0], KernelBackend::Scalar);
        assert!(KernelBackend::Scalar.is_supported());
        assert!(!KernelBackend::Scalar.is_simd());
    }

    #[test]
    fn detect_matches_arch_capabilities() {
        let detected = KernelBackend::detect();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                assert_eq!(detected, KernelBackend::Avx512);
            } else {
                assert_eq!(detected, KernelBackend::Avx2);
            }
        }
        #[cfg(target_arch = "aarch64")]
        assert_eq!(detected, KernelBackend::Neon);
        assert!(detected.is_supported());
    }
}
