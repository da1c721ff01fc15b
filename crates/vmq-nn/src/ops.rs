//! Numeric kernels: matrix multiplication, im2col convolution and pooling.
//!
//! These are the hot loops of filter training and inference. They are written
//! with a cache-friendly `i-k-j` loop order and flat slices so the compiler
//! can vectorise them; no unsafe code is used here. The scalar `_into`
//! kernels below are the bit-exact reference the runtime-dispatched SIMD
//! variants in [`crate::kernels`] are held to.

use crate::tensor::Tensor;

/// `C = A (m×k) * B (k×n)`, row-major, returning an `[m, n]` tensor.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.shape().len(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimension mismatch: {} vs {}", k, k2);
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let a_row = &ad[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
    Tensor::from_vec(out, vec![m, n])
}

/// `C = Aᵀ (k×m)ᵀ * B (k×n)` computed without materialising the transpose.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2);
    assert_eq!(b.shape().len(), 2);
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_at_b inner dimension mismatch");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for kk in 0..k {
        let a_row = &ad[kk * m..(kk + 1) * m];
        let b_row = &bd[kk * n..(kk + 1) * n];
        for (i, &aki) in a_row.iter().enumerate() {
            if aki == 0.0 {
                continue;
            }
            let o_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += aki * bv;
            }
        }
    }
    Tensor::from_vec(out, vec![m, n])
}

/// `C = A (m×k) * Bᵀ (n×k)ᵀ` computed without materialising the transpose.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2);
    assert_eq!(b.shape().len(), 2);
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_a_bt inner dimension mismatch");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let a_row = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, vec![m, n])
}

/// Matrix–vector product `y = A (m×k) * x (k)`.
pub fn matvec(a: &Tensor, x: &[f32]) -> Vec<f32> {
    assert_eq!(a.shape().len(), 2);
    let (m, k) = (a.shape()[0], a.shape()[1]);
    assert_eq!(x.len(), k, "matvec dimension mismatch");
    let ad = a.data();
    (0..m).map(|i| ad[i * k..(i + 1) * k].iter().zip(x).map(|(a, b)| a * b).sum()).collect()
}

// ---------------------------------------------------------------------------
// Allocation-free inference kernels
//
// The `_into` variants below are the inference twins of the functions above:
// identical loop structure and accumulation order (so outputs are
// bit-identical to the allocating path — the pipeline's parity pins depend
// on that), but writing into caller-owned buffers that keep their capacity
// across calls. They are what [`crate::workspace::Workspace`]-based layer
// inference runs on.
// ---------------------------------------------------------------------------

/// [`matmul`] writing into a caller-owned buffer: `out = A (m×k) * B (k×n)`,
/// all operands flat row-major slices. Bit-identical to [`matmul`]: every
/// output element accumulates `a[i][kk] * b[kk][j]` in ascending-`kk` order
/// with zero coefficients skipped, exactly like the allocating kernel. The
/// 2×4 register blocking below — two output rows sharing each streamed quad
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
    // Odd trailing row: the plain skip-zero passes of `matmul`.
    if i < m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            accumulate_row(o_row, aik, &b[kk * n..(kk + 1) * n]);
        }
    }
}

/// One `o += coeff * b_row` pass, skipping zero coefficients (matching
/// [`matmul`]'s skip-zero semantics exactly).
#[inline]
fn accumulate_row(o_row: &mut [f32], coeff: f32, b_row: &[f32]) {
    if coeff == 0.0 {
        return;
    }
    for (o, &bv) in o_row.iter_mut().zip(b_row) {
        *o += coeff * bv;
    }
}

/// [`matvec`] writing into a caller-owned buffer. Bit-identical to
/// [`matvec`]: same per-row dot-product accumulation order.
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

/// Unfolds an input `[C, H, W]` into a `[C*k*k, OH*OW]` matrix (im2col).
pub fn im2col(input: &Tensor, spec: &ConvSpec) -> Tensor {
    assert_eq!(input.shape().len(), 3, "im2col expects CHW input");
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    assert_eq!(c, spec.in_channels, "im2col channel mismatch");
    let (oh, ow) = spec.out_size(h, w);
    let k = spec.kernel;
    let rows = c * k * k;
    let cols = oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    let data = input.data();
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = ch * k * k + ky * k + kx;
                let out_row = &mut out[row * cols..(row + 1) * cols];
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
                        out_row[oy * ow + ox] = data[ch * h * w + iy * w + ix as usize];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, vec![rows, cols])
}

/// [`im2col`] writing into a caller-owned buffer. Bit-identical to
/// [`im2col`]: the buffer is zero-filled and the same cells receive the
/// same values — the stride-1 fast path below just writes each in-bounds
/// row span with one slice copy instead of a branchy per-element loop.
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

/// Folds a `[C*k*k, OH*OW]` column matrix back into a `[C, H, W]` tensor,
/// accumulating overlapping contributions (the adjoint of [`im2col`]).
pub fn col2im(cols_t: &Tensor, spec: &ConvSpec, h: usize, w: usize) -> Tensor {
    let c = spec.in_channels;
    let k = spec.kernel;
    let (oh, ow) = spec.out_size(h, w);
    let cols = oh * ow;
    assert_eq!(cols_t.shape(), &[c * k * k, cols], "col2im shape mismatch");
    let mut out = Tensor::zeros(vec![c, h, w]);
    let src = cols_t.data();
    let dst = out.data_mut();
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = ch * k * k + ky * k + kx;
                let src_row = &src[row * cols..(row + 1) * cols];
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
                        dst[ch * h * w + iy * w + ix as usize] += src_row[oy * ow + ox];
                    }
                }
            }
        }
    }
    out
}

/// 2-D convolution via im2col + matmul.
///
/// `input` is `[C_in, H, W]`, `weight` is `[C_out, C_in*k*k]`, `bias` is
/// `[C_out]`; the result is `[C_out, OH, OW]`. The column matrix is also
/// returned so the backward pass can reuse it.
pub fn conv2d_forward(input: &Tensor, weight: &Tensor, bias: &[f32], spec: &ConvSpec) -> (Tensor, Tensor) {
    let (h, w) = (input.shape()[1], input.shape()[2]);
    let (oh, ow) = spec.out_size(h, w);
    let cols = im2col(input, spec);
    let mut out = matmul(weight, &cols); // [C_out, OH*OW]
    let od = out.data_mut();
    for (co, &b) in bias.iter().enumerate() {
        for v in &mut od[co * oh * ow..(co + 1) * oh * ow] {
            *v += b;
        }
    }
    (out.reshape(vec![spec.out_channels, oh, ow]), cols)
}

/// Backward pass of [`conv2d_forward`].
///
/// Returns `(grad_input, grad_weight, grad_bias)` given the upstream gradient
/// `grad_out` (`[C_out, OH, OW]`) and the cached column matrix.
pub fn conv2d_backward(
    grad_out: &Tensor,
    weight: &Tensor,
    cols: &Tensor,
    spec: &ConvSpec,
    in_h: usize,
    in_w: usize,
) -> (Tensor, Tensor, Vec<f32>) {
    let (co, oh, ow) = (grad_out.shape()[0], grad_out.shape()[1], grad_out.shape()[2]);
    assert_eq!(co, spec.out_channels);
    let g2 = grad_out.reshape(vec![co, oh * ow]);
    // grad_weight = grad_out (co × ohow) * colsᵀ (ohow × ckk)
    let grad_weight = matmul_a_bt(&g2, cols);
    // grad_bias = row sums of grad_out
    let gd = g2.data();
    let grad_bias: Vec<f32> = (0..co).map(|c| gd[c * oh * ow..(c + 1) * oh * ow].iter().sum()).collect();
    // grad_cols = weightᵀ (ckk × co) * grad_out (co × ohow)
    let grad_cols = matmul_at_b(weight, &g2);
    let grad_input = col2im(&grad_cols, spec, in_h, in_w);
    (grad_input, grad_weight, grad_bias)
}

/// 2×2 (or general square) max pooling over a `CHW` tensor.
///
/// Returns the pooled tensor and the flat argmax indices used for backward.
pub fn maxpool2d_forward(input: &Tensor, size: usize) -> (Tensor, Vec<usize>) {
    assert_eq!(input.shape().len(), 3);
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    assert!(
        h.is_multiple_of(size) && w.is_multiple_of(size),
        "maxpool2d requires divisible spatial dims ({}x{} by {})",
        h,
        w,
        size
    );
    let (oh, ow) = (h / size, w / size);
    let mut out = Tensor::zeros(vec![c, oh, ow]);
    let mut idx = vec![0usize; c * oh * ow];
    let data = input.data();
    let od = out.data_mut();
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0usize;
                for dy in 0..size {
                    for dx in 0..size {
                        let i = ch * h * w + (oy * size + dy) * w + ox * size + dx;
                        if data[i] > best {
                            best = data[i];
                            best_i = i;
                        }
                    }
                }
                let o = ch * oh * ow + oy * ow + ox;
                od[o] = best;
                idx[o] = best_i;
            }
        }
    }
    (out, idx)
}

/// Inference-only [`maxpool2d_forward`]: writes the pooled values into a
/// caller-owned buffer and skips the argmax bookkeeping (only backward needs
/// it). Bit-identical pooled values — same scan order, same `>` comparison.
pub fn maxpool2d_into(input: &[f32], c: usize, h: usize, w: usize, size: usize, out: &mut Vec<f32>) {
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
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for dy in 0..size {
                    for dx in 0..size {
                        let i = ch * h * w + (oy * size + dy) * w + ox * size + dx;
                        if input[i] > best {
                            best = input[i];
                        }
                    }
                }
                out[ch * oh * ow + oy * ow + ox] = best;
            }
        }
    }
}

/// Backward pass of [`maxpool2d_forward`].
pub fn maxpool2d_backward(grad_out: &Tensor, idx: &[usize], in_shape: &[usize]) -> Tensor {
    let mut grad_in = Tensor::zeros(in_shape.to_vec());
    let gi = grad_in.data_mut();
    for (o, &i) in idx.iter().enumerate() {
        gi[i] += grad_out.data()[o];
    }
    grad_in
}

/// Global average pooling of a `[C, H, W]` tensor into a `[C]` vector.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    assert_eq!(input.shape().len(), 3);
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let area = (h * w) as f32;
    let data = input.data();
    let out: Vec<f32> = (0..c).map(|ch| data[ch * h * w..(ch + 1) * h * w].iter().sum::<f32>() / area).collect();
    Tensor::from_vec(out, vec![c])
}

/// [`global_avg_pool`] writing into a caller-owned buffer. Bit-identical:
/// same per-channel sum and division.
pub fn global_avg_pool_into(input: &[f32], c: usize, h: usize, w: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(input.len(), c * h * w, "global_avg_pool_into input size mismatch");
    let area = (h * w) as f32;
    out.clear();
    out.extend((0..c).map(|ch| input[ch * h * w..(ch + 1) * h * w].iter().sum::<f32>() / area));
}

/// Backward pass of [`global_avg_pool`]: spreads each channel gradient evenly.
pub fn global_avg_pool_backward(grad_out: &Tensor, in_shape: &[usize]) -> Tensor {
    let (c, h, w) = (in_shape[0], in_shape[1], in_shape[2]);
    let area = (h * w) as f32;
    let mut grad_in = Tensor::zeros(vec![c, h, w]);
    let gi = grad_in.data_mut();
    for ch in 0..c {
        let g = grad_out.data()[ch] / area;
        for v in &mut gi[ch * h * w..(ch + 1) * h * w] {
            *v = g;
        }
    }
    grad_in
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

    fn t(v: Vec<f32>, s: Vec<usize>) -> Tensor {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn matmul_small() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let b = t(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], vec![3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transposed_variants_agree() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let b = t(vec![1.0, 0.5, -1.0, 2.0, 0.0, 3.0], vec![3, 2]);
        let reference = matmul(&a, &b);
        // A^T has shape [3,2]; matmul_at_b(Aᵀ-storage, B) should equal A*B when
        // we pass A stored transposed.
        let a_t = t(vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0], vec![3, 2]);
        let via_at = matmul_at_b(&a_t, &b);
        assert_eq!(via_at.data(), reference.data());
        // B^T stored as [2,3]
        let b_t = t(vec![1.0, -1.0, 0.0, 0.5, 2.0, 3.0], vec![2, 3]);
        let via_bt = matmul_a_bt(&a, &b_t);
        assert_eq!(via_bt.data(), reference.data());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let y = matvec(&a, &[5.0, 6.0]);
        assert_eq!(y, vec![17.0, 39.0]);
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let spec = ConvSpec { in_channels: 1, out_channels: 1, kernel: 1, stride: 1, padding: 0 };
        let input = t((1..=9).map(|v| v as f32).collect(), vec![1, 3, 3]);
        let weight = t(vec![1.0], vec![1, 1]);
        let (out, _) = conv2d_forward(&input, &weight, &[0.0], &spec);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv_known_values() {
        // 2x2 average-ish kernel on a 3x3 input, no padding.
        let spec = ConvSpec { in_channels: 1, out_channels: 1, kernel: 2, stride: 1, padding: 0 };
        let input = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], vec![1, 3, 3]);
        let weight = t(vec![1.0, 1.0, 1.0, 1.0], vec![1, 4]);
        let (out, _) = conv2d_forward(&input, &weight, &[0.0], &spec);
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv_padding_preserves_size() {
        let spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let input = Tensor::full(vec![2, 5, 5], 1.0);
        let weight = Tensor::full(vec![3, 2 * 9], 0.1);
        let (out, _) = conv2d_forward(&input, &weight, &[0.0; 3], &spec);
        assert_eq!(out.shape(), &[3, 5, 5]);
        // centre cell sees all 18 inputs => 1.8
        assert!((out.at3(0, 2, 2) - 1.8).abs() < 1e-5);
        // corner cell sees 8 inputs => 0.8
        assert!((out.at3(0, 0, 0) - 0.8).abs() < 1e-5);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let spec = ConvSpec { in_channels: 2, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
        let x = t((0..2 * 4 * 4).map(|v| (v as f32 * 0.37).sin()).collect(), vec![2, 4, 4]);
        let cols = im2col(&x, &spec);
        let y = t((0..cols.len()).map(|v| (v as f32 * 0.11).cos()).collect(), cols.shape().to_vec());
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &spec, 4, 4);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn maxpool_forward_backward() {
        let input = t(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0],
            vec![1, 4, 4],
        );
        let (out, idx) = maxpool2d_forward(&input, 2);
        assert_eq!(out.data(), &[6.0, 8.0, 14.0, 16.0]);
        let grad_out = t(vec![1.0, 2.0, 3.0, 4.0], vec![1, 2, 2]);
        let grad_in = maxpool2d_backward(&grad_out, &idx, input.shape());
        assert_eq!(grad_in.data()[5], 1.0);
        assert_eq!(grad_in.data()[7], 2.0);
        assert_eq!(grad_in.data()[13], 3.0);
        assert_eq!(grad_in.data()[15], 4.0);
        assert_eq!(grad_in.sum(), 10.0);
    }

    #[test]
    fn gap_forward_backward() {
        let input = t(vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0], vec![2, 2, 2]);
        let out = global_avg_pool(&input);
        assert_eq!(out.data(), &[2.5, 10.0]);
        let grad = global_avg_pool_backward(&Tensor::from_vec(vec![4.0, 8.0], vec![2]), input.shape());
        assert_eq!(grad.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn into_kernels_are_bit_identical_to_allocating_twins() {
        // The inference path's parity guarantee rests on these comparisons.
        let a = t((0..6).map(|v| (v as f32 * 0.37).sin()).collect(), vec![2, 3]);
        let b = t((0..12).map(|v| (v as f32 * 0.11).cos()).collect(), vec![3, 4]);
        let reference = matmul(&a, &b);
        let mut out = vec![99.0; 1]; // stale content must be cleared
        matmul_into(a.data(), 2, 3, b.data(), 4, &mut out);
        assert_eq!(out, reference.data());

        let x = [0.3f32, -0.7, 1.2];
        let mut mv = Vec::new();
        matvec_into(a.data(), 2, 3, &x, &mut mv);
        assert_eq!(mv, matvec(&a, &x));

        let spec = ConvSpec { in_channels: 2, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
        let input = t((0..2 * 4 * 4).map(|v| (v as f32 * 0.21).sin()).collect(), vec![2, 4, 4]);
        let cols_ref = im2col(&input, &spec);
        let mut cols = vec![7.0; 3];
        im2col_into(input.data(), 4, 4, &spec, &mut cols);
        assert_eq!(cols, cols_ref.data());

        let (pooled_ref, _) = maxpool2d_forward(&input, 2);
        let mut pooled = Vec::new();
        maxpool2d_into(input.data(), 2, 4, 4, 2, &mut pooled);
        assert_eq!(pooled, pooled_ref.data());

        let gap_ref = global_avg_pool(&input);
        let mut gap = Vec::new();
        global_avg_pool_into(input.data(), 2, 4, 4, &mut gap);
        assert_eq!(gap, gap_ref.data());
    }

    #[test]
    fn im2col_into_handles_kernels_wider_than_the_padded_row() {
        // kernel 8 on a 4-wide input with padding 2 is a valid spec
        // (output 1×1) whose rightmost kernel columns lie entirely past the
        // padded row: the fast path's span arithmetic must saturate, not
        // underflow.
        let spec = ConvSpec { in_channels: 1, out_channels: 1, kernel: 8, stride: 1, padding: 2 };
        let input = t((0..16).map(|v| v as f32 + 1.0).collect(), vec![1, 4, 4]);
        let reference = im2col(&input, &spec);
        let mut cols = Vec::new();
        im2col_into(input.data(), 4, 4, &spec, &mut cols);
        assert_eq!(cols, reference.data());
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
