//! Scalar reference kernels: matrix multiplication, im2col and pooling, all
//! writing into caller-owned buffers that keep their capacity across calls.
//!
//! These are the bit-exact reference the runtime-dispatched SIMD variants in
//! [`crate::kernels`] are held to, what inference runs on under
//! `VMQ_FORCE_SCALAR=1` and — next to the convolutions of [`crate::grad`] —
//! what training runs on. No unsafe code is used here.

/// `out = A (m×k) * B (k×n)`, all operands flat row-major slices. Every
/// output element accumulates `a[i][kk] * b[kk][j]` in ascending-`kk` order
/// from +0.0, mul then add, with zero coefficients skipped. The 2×4 register
/// blocking below — two output rows sharing each streamed quad
/// of `B` rows — only changes memory traffic, never the per-element
/// addition sequence.
pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(a.len(), m * k, "matmul_into lhs size mismatch");
    debug_assert_eq!(b.len(), k * n, "matmul_into rhs size mismatch");
    out.clear();
    out.resize(m * n, 0.0);
    let mut i = 0;
    // 2×4 micro-kernel: two output rows share each streamed quad of B rows,
    // quartering the read-modify-write passes over the output and halving
    // the B traffic relative to the naive i-k-j loop.
    while i + 2 <= m {
        let (head, tail) = out.split_at_mut((i + 1) * n);
        let o0 = &mut head[i * n..];
        let o1 = &mut tail[..n];
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let mut kk = 0;
        while kk + 4 <= k {
            let c0 = [a0[kk], a0[kk + 1], a0[kk + 2], a0[kk + 3]];
            let c1 = [a1[kk], a1[kk + 1], a1[kk + 2], a1[kk + 3]];
            if c0.iter().chain(&c1).all(|&c| c != 0.0) {
                let b0 = &b[kk * n..(kk + 1) * n];
                let b1 = &b[(kk + 1) * n..(kk + 2) * n];
                let b2 = &b[(kk + 2) * n..(kk + 3) * n];
                let b3 = &b[(kk + 3) * n..(kk + 4) * n];
                for (((((o0, o1), &v0), &v1), &v2), &v3) in
                    o0.iter_mut().zip(o1.iter_mut()).zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    // Sequential += in ascending-kk order per output element:
                    // the exact rounding sequence of four separate passes.
                    let mut x = *o0;
                    x += c0[0] * v0;
                    x += c0[1] * v1;
                    x += c0[2] * v2;
                    x += c0[3] * v3;
                    *o0 = x;
                    let mut y = *o1;
                    y += c1[0] * v0;
                    y += c1[1] * v1;
                    y += c1[2] * v2;
                    y += c1[3] * v3;
                    *o1 = y;
                }
            } else {
                // A zero coefficient in the quad: fall back to the skipping
                // per-kk passes (`-0.0 + 0.0 * b` would round a -0.0
                // accumulator to +0.0, so zeros are skipped, not multiplied).
                for dk in kk..kk + 4 {
                    let b_row = &b[dk * n..(dk + 1) * n];
                    accumulate_row(o0, a0[dk], b_row);
                    accumulate_row(o1, a1[dk], b_row);
                }
            }
            kk += 4;
        }
        for dk in kk..k {
            let b_row = &b[dk * n..(dk + 1) * n];
            accumulate_row(o0, a0[dk], b_row);
            accumulate_row(o1, a1[dk], b_row);
        }
        i += 2;
    }
    // Odd trailing row: plain skip-zero passes.
    if i < m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            accumulate_row(o_row, aik, &b[kk * n..(kk + 1) * n]);
        }
    }
}

/// One `o += coeff * b_row` pass, skipping zero coefficients.
#[inline]
fn accumulate_row(o_row: &mut [f32], coeff: f32, b_row: &[f32]) {
    if coeff == 0.0 {
        return;
    }
    for (o, &bv) in o_row.iter_mut().zip(b_row) {
        *o += coeff * bv;
    }
}

/// Matrix–vector product `out = A (m×k) * x (k)`: one sequential
/// ascending-`k` dot product per row.
pub fn matvec_into(a: &[f32], m: usize, k: usize, x: &[f32], out: &mut Vec<f32>) {
    debug_assert_eq!(a.len(), m * k, "matvec_into size mismatch");
    debug_assert_eq!(x.len(), k, "matvec_into dimension mismatch");
    out.clear();
    out.extend((0..m).map(|i| a[i * k..(i + 1) * k].iter().zip(x).map(|(a, b)| a * b).sum::<f32>()));
}

/// Parameters describing a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels.
    pub out_channels: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvSpec {
    /// Output spatial size for an input of `h × w`.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// True for the 3×3 / stride-1 / pad-1 shape every filter trunk and
    /// branch convolution uses ([`crate::layer::Conv2d::same`]) — the one
    /// the direct (im2col-free) kernels and the conv block cover.
    pub fn is_3x3_same(&self) -> bool {
        (self.kernel, self.stride, self.padding) == (3, 1, 1)
    }
}

/// Unfolds an input `[C, H, W]` into a `[C*k*k, OH*OW]` column matrix
/// (zero where a tap falls into the padding). The stride-1 fast path writes
/// each in-bounds row span with one slice copy instead of a branchy
/// per-element loop.
pub fn im2col_into(input: &[f32], h: usize, w: usize, spec: &ConvSpec, out: &mut Vec<f32>) {
    let c = spec.in_channels;
    debug_assert_eq!(input.len(), c * h * w, "im2col_into input size mismatch");
    let (oh, ow) = spec.out_size(h, w);
    let k = spec.kernel;
    let rows = c * k * k;
    let cols = oh * ow;
    out.clear();
    out.resize(rows * cols, 0.0);
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = ch * k * k + ky * k + kx;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                if spec.stride == 1 {
                    // Stride 1: for a fixed (ky, kx) the in-bounds ox range
                    // is contiguous and maps to a contiguous input span.
                    // (Saturating: a kernel column entirely past the padded
                    // row — kx > w + padding — has no valid ox at all.)
                    let ox_lo = spec.padding.saturating_sub(kx);
                    let ox_hi = (w + spec.padding).saturating_sub(kx).min(ow);
                    if ox_lo >= ox_hi {
                        continue;
                    }
                    for oy in 0..oh {
                        let iy = (oy + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let ix_lo = ox_lo + kx - spec.padding;
                        let src = &input[ch * h * w + iy as usize * w + ix_lo..][..ox_hi - ox_lo];
                        out_row[oy * ow + ox_lo..oy * ow + ox_hi].copy_from_slice(src);
                    }
                } else {
                    for oy in 0..oh {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out_row[oy * ow + ox] = input[ch * h * w + iy * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Square, non-overlapping max pooling (window == stride) of a `[c, h, w]`
/// map; training's `argmax` records the flat input index of each pooled
/// value. A window is scanned row-major with a strict `>` from `-inf`, the
/// argmax starting at its first cell — so a window with nothing above `-inf`
/// (all NaN, or all `-inf`) still routes its gradient into itself.
pub fn maxpool2d_into(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    size: usize,
    out: &mut Vec<f32>,
    mut argmax: Option<&mut Vec<usize>>,
) {
    debug_assert_eq!(input.len(), c * h * w, "maxpool2d_into input size mismatch");
    assert!(
        h.is_multiple_of(size) && w.is_multiple_of(size),
        "maxpool2d requires divisible spatial dims ({}x{} by {})",
        h,
        w,
        size
    );
    let (oh, ow) = (h / size, w / size);
    out.clear();
    out.resize(c * oh * ow, 0.0);
    if let Some(idx) = argmax.as_deref_mut() {
        idx.clear();
        idx.resize(c * oh * ow, 0);
    }
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = ch * h * w + oy * size * w + ox * size;
                for dy in 0..size {
                    for dx in 0..size {
                        let i = ch * h * w + (oy * size + dy) * w + ox * size + dx;
                        if input[i] > best {
                            best = input[i];
                            best_i = i;
                        }
                    }
                }
                let o = ch * oh * ow + oy * ow + ox;
                out[o] = best;
                if let Some(idx) = argmax.as_deref_mut() {
                    idx[o] = best_i;
                }
            }
        }
    }
}

/// Global average pooling of a `[c, h, w]` map into `c` values: one
/// sequential per-channel sum, then the division by `h * w`.
pub fn global_avg_pool_into(input: &[f32], c: usize, h: usize, w: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(input.len(), c * h * w, "global_avg_pool_into input size mismatch");
    let area = (h * w) as f32;
    out.clear();
    out.extend((0..c).map(|ch| input[ch * h * w..(ch + 1) * h * w].iter().sum::<f32>() / area));
}

/// Numerically stable softmax over a flat vector.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = x.iter().map(|&v| (v - m).exp()).collect();
    let s: f32 = exps.iter().sum();
    exps.iter().map(|&v| v / s).collect()
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad::{conv2d_forward_into, global_avg_pool_backward_into, maxpool2d_backward_into};

    /// Convolution output through the training kernel (scratch discarded).
    fn conv(input: &[f32], h: usize, w: usize, spec: &ConvSpec, weight: &[f32], bias: &[f32]) -> Vec<f32> {
        let (mut xpad, mut scratch, mut out) = (Vec::new(), Vec::new(), Vec::new());
        conv2d_forward_into(input, h, w, spec, weight, bias, &mut xpad, &mut scratch, &mut out);
        out
    }

    #[test]
    fn matmul_small() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut c = vec![99.0; 1]; // stale content must be cleared
        matmul_into(&a, 2, 3, &b, 2, &mut c);
        assert_eq!(c, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let (mut y, mut as_matmul) = (Vec::new(), Vec::new());
        matvec_into(&a, 2, 2, &[5.0, 6.0], &mut y);
        matmul_into(&a, 2, 2, &[5.0, 6.0], 1, &mut as_matmul);
        assert_eq!(y, [17.0, 39.0]);
        assert_eq!(y, as_matmul);
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let spec = ConvSpec { in_channels: 1, out_channels: 1, kernel: 1, stride: 1, padding: 0 };
        let input: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        assert_eq!(conv(&input, 3, 3, &spec, &[1.0], &[0.0]), input);
    }

    #[test]
    fn conv_known_values() {
        // 2x2 average-ish kernel on a 3x3 input, no padding.
        let spec = ConvSpec { in_channels: 1, out_channels: 1, kernel: 2, stride: 1, padding: 0 };
        let input = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        assert_eq!(spec.out_size(3, 3), (2, 2));
        assert_eq!(conv(&input, 3, 3, &spec, &[1.0; 4], &[0.0]), [12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv_padding_preserves_size() {
        let spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let out = conv(&[1.0; 2 * 5 * 5], 5, 5, &spec, &[0.1; 3 * 2 * 9], &[0.0; 3]);
        assert_eq!(out.len(), 3 * 5 * 5);
        // centre cell sees all 18 inputs => 1.8
        assert!((out[2 * 5 + 2] - 1.8).abs() < 1e-5);
        // corner cell sees 8 inputs => 0.8
        assert!((out[0] - 0.8).abs() < 1e-5);
    }

    #[test]
    fn maxpool_forward_backward() {
        let input: Vec<f32> = (1..=16).map(|v| v as f32).collect();
        let (mut out, mut idx, mut grad_in) = (Vec::new(), Vec::new(), Vec::new());
        maxpool2d_into(&input, 1, 4, 4, 2, &mut out, Some(&mut idx));
        assert_eq!(out, [6.0, 8.0, 14.0, 16.0]);
        maxpool2d_backward_into(&[1.0, 2.0, 3.0, 4.0], &idx, input.len(), &mut grad_in);
        assert_eq!(grad_in[5], 1.0);
        assert_eq!(grad_in[7], 2.0);
        assert_eq!(grad_in[13], 3.0);
        assert_eq!(grad_in[15], 4.0);
        assert_eq!(grad_in.iter().sum::<f32>(), 10.0);
    }

    #[test]
    fn maxpool_argmax_stays_inside_a_window_with_nothing_above_neg_infinity() {
        // Channel 0 is ordinary; channel 1 is NaN-poisoned except for one
        // all-`-inf` window. No comparison against `-inf` succeeds there, and
        // the gradient of those windows must still land in channel 1, in the
        // window's own first cell — not in cell 0 of channel 0.
        let mut input: Vec<f32> = (0..16).map(|v| v as f32).collect();
        input.extend([f32::NAN; 16]);
        for i in [16 + 10, 16 + 11, 16 + 14, 16 + 15] {
            input[i] = f32::NEG_INFINITY;
        }
        let (mut out, mut idx, mut grad_in) = (Vec::new(), Vec::new(), Vec::new());
        maxpool2d_into(&input, 2, 4, 4, 2, &mut out, Some(&mut idx));
        assert_eq!(&out[..4], [5.0, 7.0, 13.0, 15.0]);
        assert!(out[4..].iter().all(|&v| v == f32::NEG_INFINITY), "pooled values are unchanged by the fix");
        assert_eq!(&idx[4..], [16, 16 + 2, 16 + 8, 16 + 10]);
        maxpool2d_backward_into(&[1.0; 8], &idx, input.len(), &mut grad_in);
        assert_eq!(grad_in[0], 0.0, "channel 0 receives only its own windows' gradient");
        assert_eq!(grad_in[..16].iter().sum::<f32>(), 4.0);
        assert_eq!(grad_in[16..].iter().sum::<f32>(), 4.0);
        // Without the argmax it pools identically.
        let mut values_only = Vec::new();
        maxpool2d_into(&input, 2, 4, 4, 2, &mut values_only, None);
        assert_eq!(values_only, out);
    }

    #[test]
    fn gap_forward_backward() {
        let input = [1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0];
        let (mut out, mut grad) = (Vec::new(), Vec::new());
        global_avg_pool_into(&input, 2, 2, 2, &mut out);
        assert_eq!(out, [2.5, 10.0]);
        global_avg_pool_backward_into(&[4.0, 8.0], 2, 2, &mut grad);
        assert_eq!(grad, [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn im2col_into_handles_kernels_wider_than_the_padded_row() {
        // kernel 8 on a 4-wide input with padding 2 is a valid spec
        // (output 1×1) whose rightmost kernel columns lie entirely past the
        // padded row: the fast path's span arithmetic must saturate, not
        // underflow. With one output cell, column `(ky, kx)` is the input
        // cell `(ky - 2, kx - 2)` or the padding's zero.
        let spec = ConvSpec { in_channels: 1, out_channels: 1, kernel: 8, stride: 1, padding: 2 };
        let input: Vec<f32> = (0..16).map(|v| v as f32 + 1.0).collect();
        let mut cols = vec![7.0; 3]; // stale content must be cleared
        im2col_into(&input, 4, 4, &spec, &mut cols);
        let expected: Vec<f32> = (0..64)
            .map(|kk| match (kk / 8, kk % 8) {
                (ky @ 2..6, kx @ 2..6) => input[(ky - 2) * 4 + kx - 2],
                _ => 0.0,
            })
            .collect();
        assert_eq!(cols, expected);
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn sigmoid_bounds() {
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
    }
}
