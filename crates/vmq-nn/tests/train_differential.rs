//! Differential tests of the training kernels (ROADMAP 13) and of the
//! remaining SIMD tail paths (ROADMAP 4e).
//!
//! [`vmq_nn::grad`] promises an arithmetic order, not just a value: the one
//! the im2col → matmul / a·bᵀ / aᵀ·b → col2im composition summed in. That
//! composition — the allocating kernels training ran on before the direct
//! family — lives on below as the naive reference, and every direct kernel,
//! on every backend the host runs (`*_with`: the AVX-512 twins and the
//! portable code), must equal it by `to_bits` for any (channels, size,
//! kernel, stride, padding), with exact-zero weights (the skip rule), `±0.0`
//! / NaN / `±inf` gradients, non-zero gradients to accumulate onto, and
//! scratch buffers holding a previous larger shape's leftovers. (Where both
//! sides are NaN the payload is not compared: which of two NaN operands an
//! addition returns is the compiler's operand order, not part of the
//! contract.)
//!
//! The second part holds `matmul_into`, `matvec_into` and
//! `global_avg_pool_into` on every SIMD backend to the scalar reference over
//! the same shape ranges, so each vector-tail path is hit.
//!
//! The third part holds the epoch loop, [`vmq_nn::train::train`], to the
//! serial loop it replaced: every sample of a batch added straight into one
//! gradient buffer, then an Adam step. At every width the epoch loop must train
//! the same parameter bits and epoch-loss bits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmq_nn::grad::{conv2d_backward_input_into_with, conv2d_backward_params_into_with, conv2d_forward_into_with};
use vmq_nn::kernels::{
    global_avg_pool_into_with, matmul_into_with, matvec_into_with, maxpool2d_argmax_into_with, KernelBackend,
    ABS_TOLERANCE, ULP_TOLERANCE,
};
use vmq_nn::layer::{Act, Activation, Conv2d, Dense, Flatten, Layer, MaxPool2d};
use vmq_nn::loss::mse_loss;
use vmq_nn::ops::{self, ConvSpec};
use vmq_nn::optim::{Adam, Optimizer};
use vmq_nn::train::{sample_order, train, Epochs};
use vmq_nn::{Sequential, Tape, Tensor, Workspace};

// ---------------------------------------------------------------------------
// The naive reference: im2col, three matmuls, col2im.
// ---------------------------------------------------------------------------

/// `[c·k·k, oh·ow]` column matrix, zero where a tap falls into the padding.
fn im2col(input: &[f32], h: usize, w: usize, spec: &ConvSpec) -> Vec<f32> {
    let (oh, ow) = spec.out_size(h, w);
    let (k, cols) = (spec.kernel, oh * ow);
    let mut out = vec![0.0f32; spec.in_channels * k * k * cols];
    for_each_tap_cell(h, w, spec, |row, col, cell| out[row * cols + col] = input[cell]);
    out
}

/// Adjoint of [`im2col`]: folds the column matrix back, accumulating overlaps.
fn col2im(cols_t: &[f32], h: usize, w: usize, spec: &ConvSpec) -> Vec<f32> {
    let (oh, ow) = spec.out_size(h, w);
    let cols = oh * ow;
    let mut out = vec![0.0f32; spec.in_channels * h * w];
    for_each_tap_cell(h, w, spec, |row, col, cell| out[cell] += cols_t[row * cols + col]);
    out
}

/// Visits `(column-matrix row, column, input cell)` for every in-bounds tap,
/// rows `(ch, ky, kx)` ascending, columns `(oy, ox)` ascending within a row.
fn for_each_tap_cell(h: usize, w: usize, spec: &ConvSpec, mut visit: impl FnMut(usize, usize, usize)) {
    let (oh, ow) = spec.out_size(h, w);
    let k = spec.kernel;
    for ch in 0..spec.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        visit(ch * k * k + ky * k + kx, oy * ow + ox, ch * h * w + iy as usize * w + ix as usize);
                    }
                }
            }
        }
    }
}

/// `A (m×k) · B (k×n)`, i-k-j, zero coefficients skipped.
fn matmul(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += aik * b[kk * n + j];
            }
        }
    }
    out
}

/// `Aᵀ · B` for `A (k×m)`, `B (k×n)`: k outermost, zero coefficients skipped.
fn matmul_at_b(a: &[f32], k: usize, m: usize, b: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for kk in 0..k {
        for i in 0..m {
            let aki = a[kk * m + i];
            if aki == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += aki * b[kk * n + j];
            }
        }
    }
    out
}

/// `A · Bᵀ` for `A (m×k)`, `B (n×k)`: one sequential dot product per cell.
fn matmul_a_bt(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[j * k + kk];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

struct Reference {
    out: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    grad_input: Vec<f32>,
}

/// Forward and backward of one convolution as training used to run them.
fn reference(input: &[f32], h: usize, w: usize, spec: &ConvSpec, weight: &[f32], bias: &[f32], g: &[f32]) -> Reference {
    let (oh, ow) = spec.out_size(h, w);
    let (m, ckk, p) = (spec.out_channels, spec.in_channels * spec.kernel * spec.kernel, oh * ow);
    let cols = im2col(input, h, w, spec);
    let mut out = matmul(weight, m, ckk, &cols, p);
    for (co, &b) in bias.iter().enumerate() {
        for v in &mut out[co * p..(co + 1) * p] {
            *v += b;
        }
    }
    let grad_weight = matmul_a_bt(g, m, p, &cols, ckk);
    let grad_bias = (0..m).map(|co| g[co * p..(co + 1) * p].iter().sum()).collect();
    let grad_input = col2im(&matmul_at_b(weight, m, ckk, g, p), h, w, spec);
    Reference { out, grad_weight, grad_bias, grad_input }
}

// ---------------------------------------------------------------------------
// Direct kernels vs the reference.
// ---------------------------------------------------------------------------

/// Values in `±scale` with exact `0.0` mixed in (one in five).
fn values_with_zeros(len: usize, scale: f32, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| if rng.gen_range(0..5u32) == 0 { 0.0 } else { rng.gen_range(-1.0..1.0f32) * scale }).collect()
}

/// Gradient values with `±0.0` and, when `wild`, NaN and `±inf` mixed in.
fn gradient_values(len: usize, wild: bool, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.gen_range(0..40u32) {
            0 | 1 => 0.0,
            2 | 3 => -0.0,
            4 if wild => f32::NAN,
            5 if wild => f32::INFINITY,
            6 if wild => f32::NEG_INFINITY,
            _ => rng.gen_range(-1.0..1.0f32),
        })
        .collect()
}

#[track_caller]
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()), "{what} [{i}]: got {g:?}, want {w:?}");
    }
}

/// Scratch that a previous, larger call left behind.
fn stale(len: usize) -> Vec<f32> {
    vec![f32::NAN; len]
}

/// Every backend this host runs. Each takes its own path through the
/// training kernels (AVX-512 its 512-bit twins, the others the portable
/// reference). The first call names them and the skipped ones on stderr,
/// written past the test harness's capture so that a CI log shows which
/// paths a run covered.
fn training_backends() -> Vec<KernelBackend> {
    static NOTE: std::sync::Once = std::sync::Once::new();
    let supported = KernelBackend::supported();
    NOTE.call_once(|| {
        let names = |backends: &[KernelBackend]| backends.iter().map(|b| b.name()).collect::<Vec<_>>().join(", ");
        let skipped: Vec<_> = KernelBackend::ALL.into_iter().filter(|b| !b.is_supported()).collect();
        let note = format!(
            "train_differential: training kernels checked on [{}] (detected {}); not supported here, skipped: [{}]\n",
            names(&supported),
            KernelBackend::detect().name(),
            names(&skipped)
        );
        let _ = std::io::Write::write_all(&mut std::io::stderr(), note.as_bytes());
    });
    supported
}

/// One convolution — `shape = [c, m, h, w]`, `conv = (kernel, stride,
/// padding)` — through the direct kernels on every supported backend and
/// through the reference.
fn check_conv(shape: [usize; 4], conv: (usize, usize, usize), wild: bool, seed: u64) {
    let [c, m, h, w] = shape;
    let (kernel, stride, padding) = conv;
    let spec = ConvSpec { in_channels: c, out_channels: m, kernel, stride, padding };
    let (oh, ow) = spec.out_size(h, w);
    let ckk = c * kernel * kernel;
    let mut rng = StdRng::seed_from_u64(seed);
    // A wild case feeds NaN / `±inf` into the input too, where a skipped
    // zero weight and a multiplied one differ.
    let input =
        if wild { gradient_values(c * h * w, true, &mut rng) } else { values_with_zeros(c * h * w, 1.0, &mut rng) };
    let weight = values_with_zeros(m * ckk, 0.5, &mut rng);
    let bias = values_with_zeros(m, 0.2, &mut rng);
    let g = gradient_values(m * oh * ow, wild, &mut rng);
    let what = format!("{c}->{m} {h}x{w} k{kernel} s{stride} p{padding} wild={wild} seed={seed}");
    let want = reference(&input, h, w, &spec, &weight, &bias, &g);

    // Gradients accumulate onto whatever the batch has gathered so far.
    let dw0 = gradient_values(m * ckk, false, &mut rng);
    let db0 = gradient_values(m, false, &mut rng);
    let want_dw: Vec<f32> = dw0.iter().zip(&want.grad_weight).map(|(a, b)| a + b).collect();
    let want_db: Vec<f32> = db0.iter().zip(&want.grad_bias).map(|(a, b)| a + b).collect();
    let big = (c.max(m) + 1) * (h + 2 * padding + 2) * (w + 2 * padding + 2) * 5 + 64;
    for backend in training_backends() {
        let what = format!("{} {what}", backend.name());
        let (mut xpad, mut scratch, mut out) = (stale(big), stale(big), stale(big));
        conv2d_forward_into_with(backend, &input, h, w, &spec, &weight, &bias, &mut xpad, &mut scratch, &mut out);
        assert_same_bits(&out, &want.out, &format!("{what}: forward"));

        let (mut dw, mut db) = (dw0.clone(), db0.clone());
        conv2d_backward_params_into_with(backend, &xpad, h, w, &spec, &g, &mut scratch, &mut dw, &mut db);
        assert_same_bits(&dw, &want_dw, &format!("{what}: dW"));
        assert_same_bits(&db, &want_db, &format!("{what}: db"));

        let mut dx = stale(big);
        conv2d_backward_input_into_with(backend, &weight, h, w, &spec, &g, &mut scratch, &mut dx);
        assert_same_bits(&dx, &want.grad_input, &format!("{what}: dX"));
    }
}

/// The shapes filter training runs: the IC / OD trunks and branch (3×3,
/// pad 1), the OD grid head (1×1) and the OD-COF branch of Table I (1×1 with
/// pad 1, 3×3, 1×1, 1×1 with pad 3), plus a strided and an even kernel.
#[test]
fn filter_shapes_match_the_im2col_reference_bit_for_bit() {
    for (i, &(shape, conv)) in [
        ([3usize, 8usize, 56usize, 56usize], (3usize, 1usize, 1usize)),
        ([8, 16, 28, 28], (3, 1, 1)),
        ([16, 16, 14, 14], (3, 1, 1)),
        ([3, 6, 28, 28], (3, 1, 1)),
        ([6, 12, 14, 14], (3, 1, 1)),
        ([16, 2, 14, 14], (1, 1, 0)),
        ([16, 16, 7, 7], (1, 1, 1)),
        ([16, 8, 9, 9], (3, 1, 1)),
        ([8, 16, 9, 9], (1, 1, 0)),
        ([16, 16, 9, 9], (1, 1, 3)),
        ([1, 3, 8, 8], (3, 2, 1)),
        ([2, 5, 9, 7], (2, 2, 0)),
        ([2, 3, 4, 4], (5, 1, 2)),
    ]
    .iter()
    .enumerate()
    {
        check_conv(shape, conv, false, i as u64);
        check_conv(shape, conv, true, 100 + i as u64);
    }
}

/// An output gradient of `-0.0` everywhere onto `-0.0` accumulators: dW
/// sums from +0.0, so its accumulators turn `+0.0`, and db from −0.0 (as
/// `Iterator::sum` does), so its accumulators stay `-0.0`. Eight channels
/// (the AVX-512 kernel's paired lanes) and sixteen.
#[test]
fn an_all_negative_zero_gradient_keeps_each_sums_start() {
    for m in [8, 16] {
        let spec = ConvSpec { in_channels: 2, out_channels: m, kernel: 3, stride: 1, padding: 1 };
        let ckk = 2 * 9;
        let input: Vec<f32> = (0..2 * 25).map(|v| v as f32 - 20.0).collect();
        let g = vec![-0.0f32; m * 25];
        for backend in training_backends() {
            let (mut xpad, mut scratch, mut out) = (Vec::new(), Vec::new(), Vec::new());
            conv2d_forward_into_with(
                backend,
                &input,
                5,
                5,
                &spec,
                &vec![0.5; m * ckk],
                &vec![0.0; m],
                &mut xpad,
                &mut scratch,
                &mut out,
            );
            let (mut dw, mut db) = (vec![-0.0f32; m * ckk], vec![-0.0f32; m]);
            conv2d_backward_params_into_with(backend, &xpad, 5, 5, &spec, &g, &mut scratch, &mut dw, &mut db);
            assert_same_bits(&dw, &vec![0.0; m * ckk], &format!("{} {m} channels: dW", backend.name()));
            assert_same_bits(&db, &vec![-0.0; m], &format!("{} {m} channels: db", backend.name()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any channel counts (1–17: full lane groups and their tails), any
    /// height and width (1–35), kernels 1–3, strides 1–2, paddings 0–2.
    #[test]
    fn any_shape_matches_the_im2col_reference_bit_for_bit(
        (c, m) in (1usize..=17, 1usize..=17),
        (h, w) in (1usize..=35, 1usize..=35),
        (kernel, stride, padding) in (1usize..=3, 1usize..=2, 0usize..=2),
        wild in 0usize..3,
        seed in 0u64..1 << 32,
    ) {
        if h + 2 * padding >= kernel && w + 2 * padding >= kernel {
            check_conv([c, m, h, w], (kernel, stride, padding), wild == 0, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Training's max-pool keeps the scalar window scan on every backend:
    /// the pooled bits and the argmax the backward pass routes through, for
    /// any channel count and even map (full 16-window steps and their
    /// tails), with ties, `±0.0`, NaN and `-inf` cells.
    #[test]
    fn maxpool_argmax_matches_the_scalar_scan_on_every_backend(
        (c, oh, ow) in (1usize..=17, 1usize..=18, 1usize..=35),
        seed in 0u64..1 << 32,
    ) {
        let (h, w) = (2 * oh, 2 * ow);
        let mut rng = StdRng::seed_from_u64(seed);
        let input: Vec<f32> = (0..c * h * w)
            .map(|_| match rng.gen_range(0..12u32) {
                0 => f32::NAN,
                1 => f32::NEG_INFINITY,
                2 => -0.0,
                3 => 0.0,
                v => (v % 4) as f32 - 1.5,
            })
            .collect();
        let (mut want, mut want_idx) = (Vec::new(), Vec::new());
        ops::maxpool2d_into(&input, c, h, w, 2, &mut want, Some(&mut want_idx));
        for backend in training_backends() {
            let (mut got, mut got_idx) = (stale(3), vec![usize::MAX; 5]);
            maxpool2d_argmax_into_with(backend, &input, c, h, w, 2, &mut got, &mut got_idx);
            assert_same_bits(&got, &want, &format!("{} maxpool {c}x{h}x{w}", backend.name()));
            prop_assert_eq!(&got_idx, &want_idx, "{} maxpool argmax {}x{}x{}", backend.name(), c, h, w);
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD tail paths of matmul / matvec / GAP vs the scalar reference (4e).
// ---------------------------------------------------------------------------

/// The equivalence contract of `vmq_nn::kernels` for matmul-shaped kernels.
#[track_caller]
fn assert_within_contract(backend: KernelBackend, got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{} {what}: length", backend.name());
    if !backend.is_simd() {
        assert_same_bits(got, want, &format!("{} {what}", backend.name()));
        return;
    }
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let ulps = (g.to_bits() as i64 - w.to_bits() as i64).unsigned_abs();
        let close = g == w || (g - w).abs() <= ABS_TOLERANCE || ulps <= ULP_TOLERANCE;
        assert!(close, "{} {what} [{i}]: got {g}, want {w} ({ulps} ulps)", backend.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Row quads and the odd rows after them (m 1–17), every column-vector
    /// tail (n 1–35), any depth, zero coefficients included.
    #[test]
    fn matmul_tails_match_the_scalar_reference_on_every_backend(
        (m, k, n) in (1usize..=17, 1usize..=35, 1usize..=35),
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = values_with_zeros(m * k, 1.0, &mut rng);
        let b = values_with_zeros(k * n, 1.0, &mut rng);
        let mut want = Vec::new();
        ops::matmul_into(&a, m, k, &b, n, &mut want);
        prop_assert_eq!(&want, &matmul(&a, m, k, &b, n));
        for backend in KernelBackend::supported() {
            let mut got = stale(3);
            matmul_into_with(backend, &a, m, k, &b, n, &mut got);
            assert_within_contract(backend, &got, &want, &format!("matmul {m}x{k}x{n}"));
        }
    }

    /// Matvec keeps the scalar dot-product order on every backend: any row
    /// count, any row length (vector body, tail, shorter than one vector).
    #[test]
    fn matvec_tails_match_the_scalar_reference_bit_for_bit_on_every_backend(
        (m, k) in (1usize..=17, 1usize..=70),
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = values_with_zeros(m * k, 1.0, &mut rng);
        let x = values_with_zeros(k, 1.0, &mut rng);
        let mut want = Vec::new();
        ops::matvec_into(&a, m, k, &x, &mut want);
        for backend in KernelBackend::supported() {
            let mut got = stale(3);
            matvec_into_with(backend, &a, m, k, &x, &mut got);
            assert_same_bits(&got, &want, &format!("{} matvec {m}x{k}", backend.name()));
        }
    }

    /// Global average pooling keeps the sequential per-channel sum on every
    /// backend: any channel count (lane groups and tails), any map size.
    #[test]
    fn gap_tails_match_the_scalar_reference_bit_for_bit_on_every_backend(
        (c, h, w) in (1usize..=17, 1usize..=35, 1usize..=35),
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = values_with_zeros(c * h * w, 1.0, &mut rng);
        let mut want = Vec::new();
        ops::global_avg_pool_into(&input, c, h, w, &mut want);
        for backend in KernelBackend::supported() {
            let mut got = stale(3);
            global_avg_pool_into_with(backend, &input, c, h, w, &mut got);
            assert_same_bits(&got, &want, &format!("{} gap {c}x{h}x{w}", backend.name()));
        }
    }
}

// ---------------------------------------------------------------------------
// The data-parallel epoch loop vs the serial loop it replaced.
// ---------------------------------------------------------------------------

/// Input side, output width and learning rate of the epoch-loop cases.
const SIDE: usize = 4;
const OUTPUTS: usize = 3;
const LR: f32 = 0.05;

/// conv → activation → 2×2 max-pool → flatten → dense, seeded. A positive
/// `zero_every` sets every `zero_every`-th weight to exactly zero (the
/// kernels skip zero weights, which must not change what the slots sum to).
fn small_net(channels: usize, kernel: usize, act: Act, zero_every: usize, seed: u64) -> Sequential {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(2, channels, kernel, 1, kernel / 2, seed)),
        Box::new(Activation::new(act)),
        Box::new(MaxPool2d::new(2)),
        Box::new(Flatten::new()),
        Box::new(Dense::new(channels * SIDE * SIDE / 4, OUTPUTS, seed + 1)),
    ];
    let mut net = Sequential::new(layers);
    if zero_every > 0 {
        for p in net.parameters_mut() {
            p.value.data_mut().iter_mut().step_by(zero_every).for_each(|w| *w = 0.0);
        }
    }
    net
}

/// `(input, target)` pairs with `±0.0` mixed into both.
fn samples(n: usize, seed: u64) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (gradient_values(2 * SIDE * SIDE, false, &mut rng), gradient_values(OUTPUTS, false, &mut rng)))
        .collect()
}

/// One sample's forward pass and loss: `(loss, d loss / d output)`.
fn sample_loss(net: &Sequential, ws: &mut Workspace, tape: &mut Tape, (x, y): &(Vec<f32>, Vec<f32>)) -> (f32, Tensor) {
    ws.load_slice(x, &[2, SIDE, SIDE]);
    net.forward_ws(ws, tape);
    mse_loss(&ws.output(), &Tensor::from_vec(y.clone(), vec![OUTPUTS]))
}

/// The serial loop: per batch, one gradient buffer every sample's backward
/// pass adds into, copied into the parameters for one Adam step. Returns
/// the epoch-loss bits.
fn serial_reference(net: &mut Sequential, data: &[(Vec<f32>, Vec<f32>)], plan: Epochs) -> Vec<u32> {
    let grad_len: usize = net.parameters().iter().map(|p| p.len()).sum();
    let (mut ws, mut tape, mut opt) = (Workspace::new(), Tape::default(), Adam::new(LR));
    let mut rng = vmq_nn::init::seeded_rng(plan.seed);
    let mut losses = Vec::new();
    for _ in 0..plan.epochs {
        let order = sample_order(data.len(), &mut rng);
        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(plan.batch_size.max(1)) {
            let mut grad = vec![0.0f32; grad_len];
            for &i in batch {
                let (loss, d_out) = sample_loss(net, &mut ws, &mut tape, &data[i]);
                epoch_loss += loss as f64;
                ws.load(&d_out.scale(1.0 / batch.len() as f32));
                net.backward_ws(&mut ws, &mut tape, &mut grad, false);
            }
            let mut params = net.parameters_mut();
            let mut rest = &grad[..];
            for p in params.iter_mut() {
                let (own, after) = rest.split_at(p.len());
                p.grad.data_mut().copy_from_slice(own);
                rest = after;
            }
            opt.step(&mut params);
        }
        losses.push(((epoch_loss / data.len() as f64) as f32).to_bits());
    }
    losses
}

fn param_bits(net: &Sequential) -> Vec<u32> {
    net.parameters().iter().flat_map(|p| p.value.data()).map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sample count (1–40) and batch size (1–9, so ragged last batches
    /// and batches wider than the data), ReLU / LeakyReLU / Sigmoid, 1×1 and
    /// 3×3 kernels, with and without exact-zero weights: widths 1–4 all
    /// train the serial loop's bits.
    #[test]
    fn epoch_loop_trains_the_serial_loops_bits_at_every_width(
        (n, batch_size) in (1usize..=40, 1usize..=9),
        (channels, kernel3, act, zero_every) in (1usize..=4, 0usize..2, 0usize..3, 0usize..4),
        seed in 0u64..1 << 32,
    ) {
        let act = [Act::Relu, Act::LeakyRelu(0.1), Act::Sigmoid][act];
        let kernel = 1 + 2 * kernel3;
        let data = samples(n, seed);
        let plan = Epochs { samples: n, epochs: 2, batch_size, seed: seed ^ 0x5EED };
        let mut reference = small_net(channels, kernel, act, zero_every, seed);
        let want_losses = serial_reference(&mut reference, &data, plan);
        let want = param_bits(&reference);
        for width in 1..=4 {
            let mut net = small_net(channels, kernel, act, zero_every, seed);
            let history = train(&mut net, plan, Adam::new(LR), width, |net, s| {
                let (loss, d_out) = sample_loss(net, s.ws, s.tape, &data[s.index]);
                s.ws.load(&d_out.scale(s.scale));
                net.backward_ws(s.ws, s.tape, s.grad, false);
                loss
            });
            let losses: Vec<u32> = history.iter().map(|e| e.mean_loss.to_bits()).collect();
            prop_assert_eq!(&losses, &want_losses, "epoch losses at width {}", width);
            prop_assert!(param_bits(&net) == want, "parameter bits at width {}", width);
        }
    }
}

/// A schedule's batch size of 0 trains as batch size 1 instead of panicking.
#[test]
fn zero_batch_size_trains_like_batch_size_one() {
    let data = samples(7, 3);
    let run = |batch_size| {
        let mut net = small_net(2, 3, Act::Relu, 0, 9);
        let plan = Epochs { samples: data.len(), epochs: 2, batch_size, seed: 5 };
        let history = train(&mut net, plan, Adam::new(LR), 2, |net, s| {
            let (loss, d_out) = sample_loss(net, s.ws, s.tape, &data[s.index]);
            s.ws.load(&d_out.scale(s.scale));
            net.backward_ws(s.ws, s.tape, s.grad, false);
            loss
        });
        (param_bits(&net), history.iter().map(|e| e.mean_loss.to_bits()).collect::<Vec<_>>())
    };
    assert_eq!(run(0), run(1));
}
