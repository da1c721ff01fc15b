//! Training kernels: direct convolution forward / backward and the pooling
//! gradients, all writing into caller-owned buffers.
//!
//! The three convolution kernels work from a zero-padded copy of the layer
//! input (`[C, H+2p, W+2p]`, made by the forward kernel and kept by the
//! layer for its backward pass); no `[C·k·k, OH·OW]` column matrix exists.
//! Writing `x[kk, p]` for the padded input value under tap `kk = (ci, ky, kx)`
//! at output position `p = (oy, ox)`, the arithmetic contract — the order
//! the im2col → matmul composition these kernels replaced summed in, held
//! to it by `tests/train_differential.rs` — is:
//!
//! * **forward** `out[co][p] = (Σ_kk w[co][kk]·x[kk, p]) + bias[co]`, `kk`
//!   ascending, zero weights skipped, mul then add, from +0.0;
//! * **dW** `[co][kk] = Σ_p g[co][p]·x[kk, p]`, `p` ascending from +0.0,
//!   mul then add, *including* the padded zeros (they are read from the
//!   padded copy, never branched around);
//! * **db** `[co] = Σ_p g[co][p]`, one sequential sum;
//! * **dX** one tap at a time, `(ci, ky, kx)` ascending: `t[p] = Σ_co
//!   w[co][kk]·g[co][p]` (`co` ascending, zero weights skipped, mul then
//!   add, from +0.0), then `dX[ci][iy][ix] += t[p]`.
//!
//! Blocking only ever runs *independent* sums side by side — output
//! positions in forward and dX, output channels in dW — so every sum keeps
//! its sequence, and nothing here fuses a multiply into an add. Training
//! therefore produces the same weights whatever backend [`crate::kernels`]
//! dispatches inference to.

use crate::ops::ConvSpec;

/// Geometry of one convolution call.
struct Geom {
    c: usize,
    m: usize,
    k: usize,
    s: usize,
    pad: usize,
    /// Padded input height / width.
    hp: usize,
    wp: usize,
    oh: usize,
    ow: usize,
}

impl Geom {
    fn new(spec: &ConvSpec, h: usize, w: usize) -> Self {
        let (oh, ow) = spec.out_size(h, w);
        Geom {
            c: spec.in_channels,
            m: spec.out_channels,
            k: spec.kernel,
            s: spec.stride,
            pad: spec.padding,
            hp: h + 2 * spec.padding,
            wp: w + 2 * spec.padding,
            oh,
            ow,
        }
    }

    fn ckk(&self) -> usize {
        self.c * self.k * self.k
    }
}

/// Positions computed side by side by the forward and dX kernels; the tail
/// of a run falls back to [`SMALL_TILE`], then to one position at a time.
const TILE: usize = 32;
const SMALL_TILE: usize = 8;

/// `T` adjacent, independent sums of one kernel, starting at position `q`.
trait Tile {
    fn at<const T: usize>(&self, q: usize) -> [f32; T];
}

/// `out[q] = tile.at(q)` for every position, a tile at a time.
fn fill_tiled(out: &mut [f32], tile: &impl Tile) {
    let mut q = 0;
    while q + TILE <= out.len() {
        out[q..q + TILE].copy_from_slice(&tile.at::<TILE>(q));
        q += TILE;
    }
    while q + SMALL_TILE <= out.len() {
        out[q..q + SMALL_TILE].copy_from_slice(&tile.at::<SMALL_TILE>(q));
        q += SMALL_TILE;
    }
    while q < out.len() {
        out[q] = tile.at::<1>(q)[0];
        q += 1;
    }
}

/// Convolution forward pass, `out = weight (m × c·k²) ⊛ input (c × h × w) +
/// bias`, in the module-level order. `xpad` receives the zero-padded input
/// copy the backward kernels read; `scratch` is overwritten.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward_into(
    input: &[f32],
    h: usize,
    w: usize,
    spec: &ConvSpec,
    weight: &[f32],
    bias: &[f32],
    xpad: &mut Vec<f32>,
    scratch: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    let g = Geom::new(spec, h, w);
    debug_assert_eq!(input.len(), g.c * h * w, "conv2d_forward_into input size mismatch");
    debug_assert_eq!(weight.len(), g.m * g.ckk(), "conv2d_forward_into weight size mismatch");
    xpad.clear();
    xpad.resize(g.c * g.hp * g.wp, 0.0);
    for (ci, plane) in input.chunks_exact(h * w).enumerate() {
        for (y, row) in plane.chunks_exact(w).enumerate() {
            xpad[(ci * g.hp + y + g.pad) * g.wp + g.pad..][..w].copy_from_slice(row);
        }
    }
    // One output channel at a time over the positions `q = oy·wp + ox` of a
    // grid with the padded row pitch, where every tap is one shifted run of
    // the padded input; the `wp - ow` wrapped positions per row are computed
    // and dropped.
    let q_len = (g.oh - 1) * g.wp + g.ow;
    scratch.clear();
    scratch.resize(q_len, 0.0);
    out.clear();
    out.resize(g.m * g.oh * g.ow, 0.0);
    for ((w_row, &b), o_map) in weight.chunks_exact(g.ckk()).zip(bias).zip(out.chunks_exact_mut(g.oh * g.ow)) {
        fill_tiled(scratch, &ForwardTile { xpad, g: &g, w_row });
        for (o_row, s_row) in o_map.chunks_exact_mut(g.ow).zip(scratch.chunks(g.wp)) {
            for (o, &v) in o_row.iter_mut().zip(s_row) {
                *o = v + b;
            }
        }
    }
}

/// `Σ_kk w[kk]·x[kk, q..q+T]` for one output channel.
struct ForwardTile<'a> {
    xpad: &'a [f32],
    g: &'a Geom,
    w_row: &'a [f32],
}

impl Tile for ForwardTile<'_> {
    #[inline(always)]
    fn at<const T: usize>(&self, q: usize) -> [f32; T] {
        // The unit-stride form reads each tap as one contiguous run.
        if self.g.s == 1 {
            self.strided::<T, true>(q)
        } else {
            self.strided::<T, false>(q)
        }
    }
}

impl ForwardTile<'_> {
    #[inline(always)]
    fn strided<const T: usize, const UNIT: bool>(&self, q: usize) -> [f32; T] {
        let g = self.g;
        let mut acc = [0.0f32; T];
        let s = if UNIT { 1 } else { g.s };
        for ci in 0..g.c {
            for ky in 0..g.k {
                let row = &self.xpad[(ci * g.hp + ky) * g.wp + q * s..];
                for kx in 0..g.k {
                    let wv = self.w_row[(ci * g.k + ky) * g.k + kx];
                    if wv == 0.0 {
                        continue;
                    }
                    if UNIT {
                        add_scaled(&mut acc, wv, &row[kx..]);
                    } else {
                        let mut l = 0;
                        while l < T {
                            acc[l] += wv * row[kx + l * s];
                            l += 1;
                        }
                    }
                }
            }
        }
        acc
    }
}

/// `acc[l] += coeff · src[l]`: one more term of `T` independent sums. (The
/// inner loops of this module are counted `while`s, not iterator chains: the
/// test suite trains its filters in debug builds, where every adaptor costs
/// a call per element.)
#[inline(always)]
fn add_scaled<const T: usize>(acc: &mut [f32; T], coeff: f32, src: &[f32]) {
    let src = &src[..T];
    let mut l = 0;
    while l < T {
        acc[l] += coeff * src[l];
        l += 1;
    }
}

/// Accumulates the convolution's parameter gradients, `dw += dW` and `db +=
/// db` in the module-level order, from the forward pass's padded input copy
/// and the output gradient `grad_out` (`[m, oh, ow]`). `scratch` is
/// overwritten.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_params_into(
    xpad: &[f32],
    h: usize,
    w: usize,
    spec: &ConvSpec,
    grad_out: &[f32],
    scratch: &mut Vec<f32>,
    dw: &mut [f32],
    db: &mut [f32],
) {
    let g = Geom::new(spec, h, w);
    debug_assert_eq!(xpad.len(), g.c * g.hp * g.wp, "conv2d_backward_params_into: no matching forward pass");
    debug_assert_eq!(grad_out.len(), g.m * g.oh * g.ow, "conv2d_backward_params_into gradient size mismatch");
    // Sixteen output-channel chains side by side keep the adders busy; a
    // layer of eight channels or fewer would only carry zero lanes along.
    if g.m > 8 {
        param_grads::<16>(xpad, &g, grad_out, scratch, dw, db);
    } else {
        param_grads::<8>(xpad, &g, grad_out, scratch, dw, db);
    }
}

/// [`conv2d_backward_params_into`] running `L` output-channel chains at a time.
fn param_grads<const L: usize>(
    xpad: &[f32],
    g: &Geom,
    grad_out: &[f32],
    scratch: &mut Vec<f32>,
    dw: &mut [f32],
    db: &mut [f32],
) {
    // The gradient transposed to `[p][m]` (channels padded with zero lanes to
    // a multiple of `L`): one position's channels are then contiguous, so `L`
    // per-channel chains advance together, each still summing over ascending
    // `p`.
    let p = g.oh * g.ow;
    let mp = g.m.next_multiple_of(L);
    scratch.clear();
    scratch.resize(p * mp, 0.0);
    for (co, g_row) in grad_out.chunks_exact(p).enumerate() {
        db[co] += g_row.iter().sum::<f32>();
        for (i, &v) in g_row.iter().enumerate() {
            scratch[i * mp + co] = v;
        }
    }
    let ckk = g.ckk();
    for ci in 0..g.c {
        for ky in 0..g.k {
            let x = &xpad[(ci * g.hp + ky) * g.wp..];
            let kk = (ci * g.k + ky) * g.k;
            for lane in (0..mp).step_by(L) {
                let gt = &scratch[lane..];
                let mut kx = 0;
                while kx < g.k {
                    // Three taps of a kernel row share each loaded position.
                    let taps = if g.k - kx >= 3 { 3 } else { 1 };
                    let acc = if taps == 3 {
                        weight_grad_chains::<3, L>(&x[kx..], gt, mp, g)
                    } else {
                        weight_grad_chains::<1, L>(&x[kx..], gt, mp, g)
                    };
                    for (t, sums) in acc.iter().take(taps).enumerate() {
                        for (l, &sum) in sums.iter().take(g.m - lane).enumerate() {
                            dw[(lane + l) * ckk + kk + kx + t] += sum;
                        }
                    }
                    kx += taps;
                }
            }
        }
    }
}

/// `Σ_p g[co][p]·x[kk, p]` for `L` output channels × the first `K` (of up to
/// 3) adjacent taps of one kernel row: `x` starts at the first tap's cell for
/// output position 0, `gt` at the first channel's lane of the transposed
/// gradient.
#[inline(always)]
fn weight_grad_chains<const K: usize, const L: usize>(x: &[f32], gt: &[f32], mp: usize, g: &Geom) -> [[f32; L]; 3] {
    let mut acc = [[0.0f32; L]; 3];
    for oy in 0..g.oh {
        let x_row = &x[oy * g.s * g.wp..];
        let g_row = &gt[oy * g.ow * mp..];
        let mut ox = 0;
        while ox < g.ow {
            let gs = &g_row[ox * mp..ox * mp + L];
            let xs = &x_row[ox * g.s..ox * g.s + K];
            let mut t = 0;
            while t < K {
                add_scaled(&mut acc[t], xs[t], gs);
                t += 1;
            }
            ox += 1;
        }
    }
    acc
}

/// The convolution's input gradient `dx` (`[c, h, w]`, overwritten) in the
/// module-level order, from the weights and the output gradient `grad_out`
/// (`[m, oh, ow]`). `scratch` is overwritten.
pub fn conv2d_backward_input_into(
    weight: &[f32],
    h: usize,
    w: usize,
    spec: &ConvSpec,
    grad_out: &[f32],
    scratch: &mut Vec<f32>,
    dx: &mut Vec<f32>,
) {
    let g = Geom::new(spec, h, w);
    let p = g.oh * g.ow;
    debug_assert_eq!(grad_out.len(), g.m * p, "conv2d_backward_input_into gradient size mismatch");
    // `scratch` = one tap's `t[p]`, then dX over the padded input (taps that
    // fall into the padding accumulate there and are dropped at the end).
    scratch.clear();
    scratch.resize(p + g.c * g.hp * g.wp, 0.0);
    let (t, dx_pad) = scratch.split_at_mut(p);
    for kk in 0..g.ckk() {
        let (ci, ky, kx) = (kk / (g.k * g.k), kk / g.k % g.k, kk % g.k);
        fill_tiled(t, &InputGradTile { w_col: weight[kk..].iter().step_by(g.ckk()), grad_out, p });
        for (oy, t_row) in t.chunks_exact(g.ow).enumerate() {
            let dst = &mut dx_pad[(ci * g.hp + oy * g.s + ky) * g.wp + kx..];
            if g.s == 1 {
                for (d, &v) in dst.iter_mut().zip(t_row) {
                    *d += v;
                }
            } else {
                for (ox, &v) in t_row.iter().enumerate() {
                    dst[ox * g.s] += v;
                }
            }
        }
    }
    dx.clear();
    for plane in dx_pad.chunks_exact(g.hp * g.wp) {
        for row in plane.chunks_exact(g.wp).skip(g.pad).take(h) {
            dx.extend_from_slice(&row[g.pad..g.pad + w]);
        }
    }
}

/// `Σ_co w[co]·g[co][q..q+T]` for one tap, `w_col` yielding its weight per
/// output channel.
struct InputGradTile<'a> {
    w_col: std::iter::StepBy<std::slice::Iter<'a, f32>>,
    grad_out: &'a [f32],
    p: usize,
}

impl Tile for InputGradTile<'_> {
    #[inline(always)]
    fn at<const T: usize>(&self, q: usize) -> [f32; T] {
        let mut acc = [0.0f32; T];
        for (co, &wv) in self.w_col.clone().enumerate() {
            if wv != 0.0 {
                add_scaled(&mut acc, wv, &self.grad_out[co * self.p + q..]);
            }
        }
        acc
    }
}

/// Max-pool backward: routes each pooled cell's gradient to the input cell
/// [`crate::ops::maxpool2d_argmax_into`] recorded for it; `dx` (`in_len`
/// cells) is overwritten.
pub fn maxpool2d_backward_into(grad_out: &[f32], argmax: &[usize], in_len: usize, dx: &mut Vec<f32>) {
    debug_assert_eq!(grad_out.len(), argmax.len(), "maxpool2d_backward_into gradient size mismatch");
    dx.clear();
    dx.resize(in_len, 0.0);
    for (&g, &i) in grad_out.iter().zip(argmax) {
        dx[i] += g;
    }
}

/// Global-average-pool backward: spreads each channel's gradient evenly over
/// its `h × w` cells; `dx` is overwritten.
pub fn global_avg_pool_backward_into(grad_out: &[f32], h: usize, w: usize, dx: &mut Vec<f32>) {
    let area = (h * w) as f32;
    dx.clear();
    for &g in grad_out {
        dx.resize(dx.len() + h * w, g / area);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_gradient_is_adjoint_of_forward() {
        // <conv(x), y> == <x, dX(y)> for a bias-free convolution.
        let spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let x: Vec<f32> = (0..2 * 4 * 4).map(|v| (v as f32 * 0.37).sin()).collect();
        let weight: Vec<f32> = (0..3 * 2 * 9).map(|v| (v as f32 * 0.23).cos()).collect();
        let y: Vec<f32> = (0..3 * 4 * 4).map(|v| (v as f32 * 0.11).cos()).collect();
        let (mut xpad, mut scratch, mut out, mut dx) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        conv2d_forward_into(&x, 4, 4, &spec, &weight, &[0.0; 3], &mut xpad, &mut scratch, &mut out);
        conv2d_backward_input_into(&weight, 4, 4, &spec, &y, &mut scratch, &mut dx);
        let lhs: f32 = out.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&dx).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }
}
