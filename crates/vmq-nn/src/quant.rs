//! Int8 post-training quantization of trained [`Sequential`] networks.
//!
//! The scheme is the standard symmetric one production inference stacks
//! use:
//!
//! * **Weights** are quantized per output channel: each row of a conv /
//!   dense weight matrix gets its own scale `s_w = max|w| / 127` and is
//!   rounded to `i8` in `[-127, 127]` (the `-128` code is unused so the
//!   range stays symmetric).
//! * **Activations** are quantized per layer with a scale calibrated from
//!   representative inputs (the pipeline's existing calibration prefix):
//!   `s_x = max|x| / 127` over every input the layer saw during
//!   [`QuantizedSequential::quantize`].
//! * **Accumulation is exact**: `i8 × i8` products are summed in `i32`,
//!   which cannot overflow for any layer shape this crate builds (see the
//!   `accumulator_headroom` test — even a 4096-long worst-case dot product
//!   stays ~8× under `i32::MAX`), and integer addition is associative, so
//!   the result is identical for *any* loop order, SIMD width, batch size
//!   or worker split. The int8 path therefore needs no ULP-tolerance
//!   story: it is deterministic and bit-stable by construction, just
//!   *different* from the f32 reference (that difference is what the
//!   planner's per-backend recall calibration prices).
//! * **Requantize / dequantize**: each output element is
//!   `acc · s_w[o] · s_x + bias[o]`, returning to f32 between layers —
//!   pools, activations and heads run in f32 exactly like the reference
//!   net, so only the matmul-shaped work changes representation.
//!
//! The int8 GEMM dispatches like [`crate::kernels`]: an AVX-512 kernel
//! (32 codes per `pmaddwd` step) when `avx512bw` is available, an AVX2
//! kernel otherwise, a scalar loop as the portable floor — all exact, with
//! `VMQ_FORCE_SCALAR=1` pinning scalar. Every backend produces identical
//! `i32` accumulators.

use crate::kernels::KernelBackend;
use crate::layer::{Act, Activation, Conv2d, Dense, Flatten, GlobalAvgPool, MaxPool2d};
use crate::net::Sequential;
use crate::ops::ConvSpec;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Largest magnitude an i8 code may take (symmetric range, `-128` unused).
pub const Q_MAX: f32 = 127.0;

/// One quantized weight matrix with its per-channel scales and f32 bias.
#[derive(Debug, Clone)]
struct QuantLinear {
    /// `[out_dim, k]` row-major i8 weights.
    weight_q: Vec<i8>,
    /// Per-output-channel weight scale (`max|w_row| / 127`).
    w_scale: Vec<f32>,
    /// f32 bias, added after dequantization.
    bias: Vec<f32>,
    out_dim: usize,
    k: usize,
    /// Calibrated activation scale for this layer's input.
    x_scale: f32,
    /// Precomputed `1 / x_scale` for the quantize step.
    inv_x_scale: f32,
}

impl QuantLinear {
    fn new(weight: &Tensor, bias: &Tensor, act_max_abs: f32) -> QuantLinear {
        let (out_dim, k) = (weight.shape()[0], weight.shape()[1]);
        let wd = weight.data();
        let mut weight_q = vec![0i8; out_dim * k];
        let mut w_scale = vec![1.0f32; out_dim];
        for o in 0..out_dim {
            let row = &wd[o * k..(o + 1) * k];
            let max = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = if max > 0.0 { max / Q_MAX } else { 1.0 };
            w_scale[o] = scale;
            for (q, &v) in weight_q[o * k..(o + 1) * k].iter_mut().zip(row) {
                *q = (v / scale).round().clamp(-Q_MAX, Q_MAX) as i8;
            }
        }
        let x_scale = if act_max_abs > 0.0 { act_max_abs / Q_MAX } else { 1.0 };
        QuantLinear { weight_q, w_scale, bias: bias.data().to_vec(), out_dim, k, x_scale, inv_x_scale: 1.0 / x_scale }
    }

    /// Dequantizes `acc` (`[out_dim, n]`) into `out` with bias.
    fn dequantize_into(&self, acc: &[i32], n: usize, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.out_dim * n, 0.0);
        for o in 0..self.out_dim {
            let s = self.w_scale[o] * self.x_scale;
            let b = self.bias[o];
            for (dst, &a) in out[o * n..(o + 1) * n].iter_mut().zip(&acc[o * n..(o + 1) * n]) {
                *dst = a as f32 * s + b;
            }
        }
    }
}

/// One layer of a quantized network.
#[derive(Debug, Clone)]
enum QLayer {
    Conv { spec: ConvSpec, lin: QuantLinear },
    Dense { lin: QuantLinear },
    MaxPool { size: usize },
    GlobalAvgPool,
    Act(Act),
    Flatten,
}

/// An int8-quantized twin of a trained [`Sequential`] network.
///
/// Built once from the trained f32 net plus calibration inputs; inference
/// then runs conv / dense layers in int8 with exact i32 accumulation and
/// everything else in f32, through the same [`Workspace`] protocol as the
/// reference net (so it shards across worker threads identically).
#[derive(Debug, Clone)]
pub struct QuantizedSequential {
    layers: Vec<QLayer>,
}

impl QuantizedSequential {
    /// Quantizes a trained network, calibrating each conv / dense layer's
    /// activation scale as the max-abs input it sees over `calib`.
    ///
    /// Calibration runs the *f32* layers (the standard post-training
    /// approximation: later layers are calibrated on exact inputs rather
    /// than the quantized net's slightly-perturbed ones). An empty `calib`
    /// falls back to unit activation scales — legal but poorly scaled, so
    /// callers should always pass a representative prefix.
    ///
    /// # Panics
    /// If the network contains a layer type this module cannot quantize.
    pub fn quantize(net: &Sequential, calib: &[Tensor]) -> QuantizedSequential {
        let layers = net.layers();
        let mut max_abs = vec![0.0f32; layers.len()];
        let mut ws = Workspace::new();
        for input in calib {
            ws.load(input);
            for (i, layer) in layers.iter().enumerate() {
                let any = layer.as_any();
                if any.is::<Conv2d>() || any.is::<Dense>() {
                    max_abs[i] = ws.data().iter().fold(max_abs[i], |m, &v| m.max(v.abs()));
                }
                layer.infer(&mut ws);
            }
        }
        let qlayers = layers
            .iter()
            .zip(&max_abs)
            .map(|(layer, &act_max)| {
                let any = layer.as_any();
                if let Some(conv) = any.downcast_ref::<Conv2d>() {
                    QLayer::Conv { spec: *conv.spec(), lin: QuantLinear::new(conv.weight(), conv.bias(), act_max) }
                } else if let Some(dense) = any.downcast_ref::<Dense>() {
                    QLayer::Dense { lin: QuantLinear::new(dense.weight(), dense.bias(), act_max) }
                } else if let Some(pool) = any.downcast_ref::<MaxPool2d>() {
                    QLayer::MaxPool { size: pool.size() }
                } else if any.is::<GlobalAvgPool>() {
                    QLayer::GlobalAvgPool
                } else if let Some(act) = any.downcast_ref::<Activation>() {
                    QLayer::Act(act.act())
                } else if any.is::<Flatten>() {
                    QLayer::Flatten
                } else {
                    panic!("cannot quantize layer type {}", layer.name());
                }
            })
            .collect();
        QuantizedSequential { layers: qlayers }
    }

    /// Quantized inference over the activation already loaded into `ws`,
    /// mirroring [`Sequential::infer_ws`]: `&self` only, allocation-free
    /// in steady state, output left in the workspace.
    pub fn infer_ws(&self, ws: &mut Workspace) {
        for layer in &self.layers {
            match layer {
                QLayer::Conv { spec, lin } => {
                    debug_assert_eq!(ws.shape().len(), 3, "quantized Conv2d expects CHW input");
                    let (h, w) = (ws.shape()[1], ws.shape()[2]);
                    let (oh, ow) = spec.out_size(h, w);
                    let n = oh * ow;
                    {
                        let (input, out, q_act, q_cols, q_acc) = ws.split_quant();
                        quantize_i8(input, lin.inv_x_scale, q_act);
                        im2row_i8(q_act, h, w, spec, q_cols);
                        i8_gemm(&lin.weight_q, lin.out_dim, lin.k, q_cols, n, q_acc);
                        lin.dequantize_into(q_acc, n, out);
                    }
                    ws.commit(&[spec.out_channels, oh, ow]);
                }
                QLayer::Dense { lin } => {
                    debug_assert_eq!(ws.data().len(), lin.k, "quantized Dense input length mismatch");
                    {
                        let (input, out, q_act, _q_cols, q_acc) = ws.split_quant();
                        quantize_i8(input, lin.inv_x_scale, q_act);
                        i8_gemm(&lin.weight_q, lin.out_dim, lin.k, q_act, 1, q_acc);
                        lin.dequantize_into(q_acc, 1, out);
                    }
                    ws.commit(&[lin.out_dim]);
                }
                QLayer::MaxPool { size } => {
                    let (c, h, w) = (ws.shape()[0], ws.shape()[1], ws.shape()[2]);
                    {
                        let (input, out, cols) = ws.split();
                        let _ = cols;
                        crate::kernels::maxpool2d_into(input, c, h, w, *size, out);
                    }
                    ws.commit(&[c, h / size, w / size]);
                }
                QLayer::GlobalAvgPool => {
                    let (c, h, w) = (ws.shape()[0], ws.shape()[1], ws.shape()[2]);
                    {
                        let (input, out, cols) = ws.split();
                        let _ = cols;
                        crate::kernels::global_avg_pool_into(input, c, h, w, out);
                    }
                    ws.commit(&[c]);
                }
                QLayer::Act(act) => {
                    act.apply_slice(ws.data_mut());
                }
                QLayer::Flatten => {
                    ws.set_shape(&[ws.data().len()]);
                }
            }
        }
    }

    /// Convenience wrapper: loads `input`, runs quantized inference and
    /// copies the output out as a tensor.
    pub fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        ws.load(input);
        self.infer_ws(ws);
        ws.output()
    }
}

/// Quantizes an f32 slice to symmetric i8 codes: `round(x · inv_scale)`
/// clamped to `[-127, 127]`.
pub fn quantize_i8(src: &[f32], inv_scale: f32, out: &mut Vec<i8>) {
    out.clear();
    out.extend(src.iter().map(|&x| (x * inv_scale).round().clamp(-Q_MAX, Q_MAX) as i8));
}

/// Unfolds a quantized `[C, H, W]` input into patch-major (im2row) layout:
/// `out[p·K + r]` holds kernel element `r = ch·k² + ky·k + kx` of output
/// pixel `p`, with zero padding. Patch-major puts each output pixel's
/// receptive field contiguous in memory, which is what the int8 GEMM's
/// dot-product kernels want.
pub fn im2row_i8(input: &[i8], h: usize, w: usize, spec: &ConvSpec, out: &mut Vec<i8>) {
    let c = spec.in_channels;
    debug_assert_eq!(input.len(), c * h * w, "im2row_i8 input size mismatch");
    let k = spec.kernel;
    let (oh, ow) = spec.out_size(h, w);
    let kdim = c * k * k;
    out.clear();
    out.resize(oh * ow * kdim, 0);
    for oy in 0..oh {
        for ox in 0..ow {
            let patch = &mut out[(oy * ow + ox) * kdim..(oy * ow + ox + 1) * kdim];
            for ch in 0..c {
                for ky in 0..k {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let row = &input[ch * h * w + iy as usize * w..][..w];
                    for kx in 0..k {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        patch[ch * k * k + ky * k + kx] = row[ix as usize];
                    }
                }
            }
        }
    }
}

/// `out[o·n + j] = Σ_r w[o·k + r] · xt[j·k + r]` over i8 operands with
/// exact i32 accumulation, through the process-wide active backend.
/// Integer accumulation is exact, so every backend returns identical
/// results (unlike the f32 kernels there is nothing to tolerate).
pub fn i8_gemm(w: &[i8], m: usize, k: usize, xt: &[i8], n: usize, out: &mut Vec<i32>) {
    i8_gemm_with(KernelBackend::active(), w, m, k, xt, n, out);
}

/// [`i8_gemm`] with an explicit backend (for benches and parity tests).
#[allow(unsafe_code)]
pub fn i8_gemm_with(backend: KernelBackend, w: &[i8], m: usize, k: usize, xt: &[i8], n: usize, out: &mut Vec<i32>) {
    debug_assert_eq!(w.len(), m * k, "i8_gemm weight size mismatch");
    debug_assert_eq!(xt.len(), n * k, "i8_gemm rhs size mismatch");
    out.clear();
    out.resize(m * n, 0);
    match backend {
        // AVX-512 widens the same pmaddwd scheme to 32 codes per step;
        // integer accumulation stays exact, so the i32 results are
        // identical across all backends. Falls back to the AVX2 dot when
        // the host lacks AVX512BW (zmm pmaddwd lives there).
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 if backend.is_supported() && std::arch::is_x86_feature_detected!("avx512bw") => {
            for o in 0..m {
                let w_row = &w[o * k..(o + 1) * k];
                let o_row = &mut out[o * n..(o + 1) * n];
                for (j, dst) in o_row.iter_mut().enumerate() {
                    // SAFETY: the arm guard confirmed AVX-512F and
                    // AVX512BW at runtime, satisfying the callee's
                    // `target_feature` contract; both rows are `k` codes.
                    *dst = unsafe { avx512::dot_i8(w_row, &xt[j * k..(j + 1) * k]) };
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 | KernelBackend::Avx512 if backend.is_supported() => {
            for o in 0..m {
                let w_row = &w[o * k..(o + 1) * k];
                let o_row = &mut out[o * n..(o + 1) * n];
                for (j, dst) in o_row.iter_mut().enumerate() {
                    // SAFETY: the arm guard confirmed AVX2 at runtime (the
                    // callee's `target_feature` requirement); both rows
                    // are `k` codes.
                    *dst = unsafe { avx2::dot_i8(w_row, &xt[j * k..(j + 1) * k]) };
                }
            }
        }
        _ => {
            for o in 0..m {
                let w_row = &w[o * k..(o + 1) * k];
                let o_row = &mut out[o * n..(o + 1) * n];
                for (j, dst) in o_row.iter_mut().enumerate() {
                    *dst = dot_i8_scalar(w_row, &xt[j * k..(j + 1) * k]);
                }
            }
        }
    }
}

fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;

    // Exactness: codes are in [-127, 127], so each i16 product is at most
    // 16129 and `pmaddwd`'s pairwise i32 sums cannot overflow; the i32
    // lane accumulators are exact integers throughout.
    //
    // SAFETY: caller must guarantee AVX2 (dispatch checks
    // `is_supported()`); loads stay inside `a`/`b` — the vector loop runs
    // only while 16 full lanes remain, with a scalar tail.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= n {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(ap.add(i) as *const __m128i));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            i += 16;
        }
        let lo = _mm256_castsi256_si128(acc);
        let hi = _mm256_extracti128_si256::<1>(acc);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b01_00_11_10>(s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_00_01>(s));
        let mut sum = _mm_cvtsi128_si32(s);
        while i < n {
            sum += *ap.add(i) as i32 * *bp.add(i) as i32;
            i += 1;
        }
        sum
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use std::arch::x86_64::*;

    // Exactness: identical argument to the AVX2 dot — products of codes in
    // [-127, 127] cannot overflow `pmaddwd`'s pairwise i32 sums, so the
    // accumulators are exact and every backend returns the same i32.
    //
    // SAFETY: caller must guarantee AVX-512F+BW (the dispatch arm checks
    // both); loads stay inside `a`/`b` — the vector loop runs only while
    // 32 full lanes remain, with a scalar tail.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 32 <= n {
            let va = _mm512_cvtepi8_epi16(_mm256_loadu_si256(ap.add(i) as *const __m256i));
            let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(bp.add(i) as *const __m256i));
            acc = _mm512_add_epi32(acc, _mm512_madd_epi16(va, vb));
            i += 32;
        }
        let mut sum = _mm512_reduce_add_epi32(acc);
        while i < n {
            sum += *ap.add(i) as i32 * *bp.add(i) as i32;
            i += 1;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Act, Activation, Conv2d, Dense, Flatten, GlobalAvgPool, MaxPool2d};

    #[test]
    fn quantize_dequantize_round_trip_error_is_bounded() {
        // Symmetric per-channel quantization guarantees per-element error
        // of at most half a quantization step: |w − q·s| ≤ s/2 with
        // s = max|row| / 127.
        let weight = Tensor::from_vec((0..4 * 33).map(|v| (v as f32 * 0.377).sin() * 2.5).collect(), vec![4, 33]);
        let bias = Tensor::zeros(vec![4]);
        let lin = QuantLinear::new(&weight, &bias, 1.0);
        for o in 0..4 {
            let row = &weight.data()[o * 33..(o + 1) * 33];
            let max = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let step = max / Q_MAX;
            assert!((lin.w_scale[o] - step).abs() <= f32::EPSILON * max, "scale should be max/127");
            for (r, (&w, &q)) in row.iter().zip(&lin.weight_q[o * 33..(o + 1) * 33]).enumerate() {
                let err = (w - q as f32 * lin.w_scale[o]).abs();
                assert!(err <= 0.5 * lin.w_scale[o] * 1.0001, "row {o} elem {r}: err {err} > step/2 {}", step / 2.0);
            }
        }
    }

    #[test]
    fn zero_rows_and_empty_calibration_use_unit_scales() {
        let weight = Tensor::zeros(vec![2, 5]);
        let bias = Tensor::zeros(vec![2]);
        let lin = QuantLinear::new(&weight, &bias, 0.0);
        assert_eq!(lin.w_scale, vec![1.0, 1.0]);
        assert_eq!(lin.x_scale, 1.0);
        assert!(lin.weight_q.iter().all(|&q| q == 0));
    }

    #[test]
    fn accumulator_headroom_on_largest_shapes() {
        // The deepest dot product any vmq network performs is well under
        // 4096 elements (conv K = in_ch·k² ≤ 144; the widest dense flatten
        // is a few thousand). Even at 4096 the worst-case |acc| is
        // 4096 · 127² ≈ 6.6e7 — ~32× under i32::MAX — so i32 accumulation
        // can never overflow. Verify against an i64 reference on the
        // adversarial all-max input.
        let k = 4096usize;
        let a: Vec<i8> = (0..k).map(|i| if i % 2 == 0 { 127 } else { -127 }).collect();
        let b: Vec<i8> = (0..k).map(|i| if i % 3 == 0 { -127 } else { 127 }).collect();
        let exact: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
        assert!(exact.unsigned_abs() < i32::MAX as u64, "worst case must fit i32");
        let mut out = Vec::new();
        for backend in KernelBackend::supported() {
            i8_gemm_with(backend, &a, 1, k, &b, 1, &mut out);
            assert_eq!(out[0] as i64, exact, "backend {}", backend.name());
        }
    }

    #[test]
    fn i8_gemm_backends_agree_exactly() {
        let m = 5;
        let k = 37;
        let n = 11;
        let w: Vec<i8> = (0..m * k).map(|v| ((v * 37 + 11) % 255) as i8).collect();
        let xt: Vec<i8> = (0..n * k).map(|v| ((v * 91 + 5) % 251) as i8).collect();
        let mut reference = Vec::new();
        i8_gemm_with(KernelBackend::Scalar, &w, m, k, &xt, n, &mut reference);
        for backend in KernelBackend::supported() {
            let mut out = Vec::new();
            i8_gemm_with(backend, &w, m, k, &xt, n, &mut out);
            assert_eq!(out, reference, "backend {}", backend.name());
        }
    }

    #[test]
    fn im2row_matches_im2col_transposed() {
        let spec = ConvSpec { in_channels: 2, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
        let input_f: Vec<f32> = (0..2 * 4 * 4).map(|v| ((v % 13) - 6) as f32).collect();
        let input_q: Vec<i8> = input_f.iter().map(|&v| v as i8).collect();
        let mut cols = Vec::new();
        crate::ops::im2col_into(&input_f, 4, 4, &spec, &mut cols);
        let mut rows = Vec::new();
        im2row_i8(&input_q, 4, 4, &spec, &mut rows);
        let kdim = 2 * 9;
        let n = 16;
        for r in 0..kdim {
            for j in 0..n {
                assert_eq!(rows[j * kdim + r] as f32, cols[r * n + j], "element ({r},{j})");
            }
        }
    }

    #[test]
    fn quantized_net_tracks_f32_reference_closely() {
        // End-to-end: a conv net with the trunk's layer mix, quantized on a
        // calibration set, must stay close to the f32 net on held-out
        // inputs (int8 with per-channel scales is typically ≲1% off).
        let net = Sequential::new(vec![
            Box::new(Conv2d::same(2, 8, 3)),
            Box::new(Activation::new(Act::LeakyRelu(0.1))),
            Box::new(MaxPool2d::new(2)),
            Box::new(Conv2d::same(8, 8, 5)),
            Box::new(Activation::new(Act::Relu)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(8, 3, 7)),
        ]);
        let calib: Vec<Tensor> = (0..4)
            .map(|s| {
                Tensor::from_vec((0..2 * 8 * 8).map(|v| ((v + s * 57) as f32 * 0.173).sin()).collect(), vec![2, 8, 8])
            })
            .collect();
        let qnet = QuantizedSequential::quantize(&net, &calib);
        assert_eq!(qnet.layers.len(), 8);
        let mut ws = Workspace::new();
        for s in 10..14 {
            let x =
                Tensor::from_vec((0..2 * 8 * 8).map(|v| ((v + s * 31) as f32 * 0.211).sin()).collect(), vec![2, 8, 8]);
            let reference = net.infer(&x, &mut ws);
            let quantized = qnet.infer(&x, &mut ws);
            assert_eq!(quantized.shape(), reference.shape());
            let ref_scale = reference.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-3);
            for (q, r) in quantized.data().iter().zip(reference.data()) {
                assert!(
                    (q - r).abs() <= 0.1 * ref_scale,
                    "quantized {q} strays from reference {r} (scale {ref_scale})"
                );
            }
        }
    }

    #[test]
    fn quantized_inference_is_deterministic_across_workspaces() {
        // Exact integer accumulation: two fresh workspaces (and thus any
        // batch/worker split) produce bitwise identical outputs.
        let net = Sequential::new(vec![
            Box::new(Conv2d::same(1, 4, 11)),
            Box::new(Activation::new(Act::Relu)),
            Box::new(GlobalAvgPool::new()),
        ]);
        let calib = vec![Tensor::from_vec((0..36).map(|v| (v as f32 * 0.37).cos()).collect(), vec![1, 6, 6])];
        let qnet = QuantizedSequential::quantize(&net, &calib);
        let x = Tensor::from_vec((0..36).map(|v| (v as f32 * 0.59).sin()).collect(), vec![1, 6, 6]);
        let a = qnet.infer(&x, &mut Workspace::new());
        let mut ws = Workspace::new();
        let _warm = qnet.infer(&calib[0], &mut ws);
        let b = qnet.infer(&x, &mut ws);
        assert_eq!(
            a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
