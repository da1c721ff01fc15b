//! Training kernels: direct convolution forward / backward and the pooling
//! gradients, all writing into caller-owned buffers.
//!
//! The convolutions work from a zero-padded copy of the layer input (`[C,
//! H+2p, W+2p]`, made by forward, kept on the tape for backward); no `[C·k·k,
//! OH·OW]` column matrix exists. With `x[kk, p]` the padded input under tap
//! `kk = (ci, ky, kx)` at output position `p`, the contract is the order of
//! the im2col → matmul composition they replaced (`tests/train_differential.rs`):
//!
//! * **forward** `out[co][p] = (Σ_kk w[co][kk]·x[kk, p]) + bias[co]`, `kk`
//!   ascending, zero weights skipped, mul then add, from +0.0;
//! * **dW** `[co][kk] = Σ_p g[co][p]·x[kk, p]`, `p` ascending from +0.0,
//!   mul then add, *including* the padded zeros (read from the padded copy,
//!   never branched around);
//! * **db** `[co] = Σ_p g[co][p]`, one sequential sum (`Iterator::sum`'s:
//!   from −0.0);
//! * **dX** one tap at a time, `(ci, ky, kx)` ascending: `t[p] = Σ_co
//!   w[co][kk]·g[co][p]` (`co` ascending, zero weights skipped, mul then
//!   add, from +0.0), then `dX[ci][iy][ix] += t[p]`.
//!
//! Blocking only runs *independent* sums side by side — output positions in
//! forward and dX, output channels (and taps) in dW and db — and nothing
//! fuses a multiply into an add, so training yields the same weights on
//! every host and backend.
//!
//! Each convolution kernel has a `*_with(backend, …)` entry point; the plain
//! name runs it on [`KernelBackend::active`]. The code here is the portable
//! reference, which the scalar, AVX2 and NEON backends and every strided
//! convolution run. A supported AVX-512 backend runs unit-stride
//! convolutions on 512-bit twins in [`crate::kernels`] that keep the order
//! above lane for lane: each lane is one of the independent sums, a
//! multiply and an add are two instructions (`mul_ps` then `add_ps`, never
//! `fmadd`), a zero weight is a scalar branch per (channel, tap), and dX
//! adds each tap's sums in tap order. IEEE multiplication and addition round
//! the same at every vector width, so both paths train the same bits.

use crate::kernels::{self, KernelBackend};
use crate::ops::ConvSpec;

/// One convolution call: [`ConvSpec`], padded input `hp × wp`, output `oh × ow`.
pub(crate) struct Geom {
    pub(crate) c: usize,
    pub(crate) m: usize,
    pub(crate) k: usize,
    pub(crate) s: usize,
    pub(crate) pad: usize,
    pub(crate) hp: usize,
    pub(crate) wp: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pub(crate) ckk: usize,
}

impl Geom {
    fn new(spec: &ConvSpec, h: usize, w: usize) -> Self {
        let ConvSpec { in_channels: c, out_channels: m, kernel: k, stride: s, padding: pad } = *spec;
        let (oh, ow) = spec.out_size(h, w);
        Geom { c, m, k, s, pad, hp: h + 2 * pad, wp: w + 2 * pad, oh, ow, ckk: c * k * k }
    }
}

/// Positions the forward and dX kernels compute side by side (run tails
/// fall back to [`SMALL_TILE`], then to single positions).
const TILE: usize = 32;
const SMALL_TILE: usize = 8;

/// `T` adjacent, independent sums of one kernel, starting at position `q`.
trait Tile {
    fn at<const T: usize>(&self, q: usize) -> [f32; T];
}

/// `out[q] = tile.at(q)` for every `q`: by tiles if `wide` (adjacent
/// positions read adjacent cells), else singly.
fn fill_tiled(out: &mut [f32], tile: &impl Tile, wide: bool) {
    let mut q = 0;
    while wide && q + TILE <= out.len() {
        out[q..q + TILE].copy_from_slice(&tile.at::<TILE>(q));
        q += TILE;
    }
    while wide && q + SMALL_TILE <= out.len() {
        out[q..q + SMALL_TILE].copy_from_slice(&tile.at::<SMALL_TILE>(q));
        q += SMALL_TILE;
    }
    while q < out.len() {
        out[q] = tile.at::<1>(q)[0];
        q += 1;
    }
}

/// [`conv2d_forward_into_with`] on the process-wide active backend.
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
    conv2d_forward_into_with(KernelBackend::active(), input, h, w, spec, weight, bias, xpad, scratch, out);
}

/// Forward pass `out = weight (m × c·k²) ⊛ input (c × h × w) + bias` in the
/// module-level order on `backend`; `xpad` receives the zero-padded input
/// copy the backward kernels read, `scratch` is overwritten.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward_into_with(
    backend: KernelBackend,
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
    debug_assert_eq!(weight.len(), g.m * g.ckk, "conv2d_forward_into weight size mismatch");
    xpad.clear();
    xpad.resize(g.c * g.hp * g.wp, 0.0);
    for (ci, plane) in input.chunks_exact(h * w).enumerate() {
        for (y, row) in plane.chunks_exact(w).enumerate() {
            xpad[(ci * g.hp + y + g.pad) * g.wp + g.pad..][..w].copy_from_slice(row);
        }
    }
    out.clear();
    out.resize(g.m * g.oh * g.ow, 0.0);
    if kernels::conv_train_forward_with(backend, &g, xpad, weight, bias, scratch, out) {
        return;
    }
    // One output channel at a time over positions `q = oy·wp + ox` — the
    // padded row pitch, so every tap is one shifted run of `xpad`; the
    // `wp - ow` wrapped positions per row are computed and dropped.
    let q_len = (g.oh - 1) * g.wp + g.ow;
    scratch.clear();
    scratch.resize(q_len, 0.0);
    for ((w_row, &b), o_map) in weight.chunks_exact(g.ckk).zip(bias).zip(out.chunks_exact_mut(g.oh * g.ow)) {
        fill_tiled(scratch, &ForwardTile { xpad, g: &g, w_row }, g.s == 1);
        for (o_row, s_row) in o_map.chunks_exact_mut(g.ow).zip(scratch.chunks(g.wp)) {
            for (o, &v) in o_row.iter_mut().zip(s_row) {
                *o = v + b;
            }
        }
    }
}

/// `Σ_kk w[kk]·x[kk, q..q+T]` for one output channel (`T > 1`: unit stride only).
struct ForwardTile<'a> {
    xpad: &'a [f32],
    g: &'a Geom,
    w_row: &'a [f32],
}

impl Tile for ForwardTile<'_> {
    #[inline(always)]
    fn at<const T: usize>(&self, q: usize) -> [f32; T] {
        let g = self.g;
        let mut acc = [0.0f32; T];
        for ci in 0..g.c {
            for ky in 0..g.k {
                let row = &self.xpad[(ci * g.hp + ky) * g.wp + q * g.s..];
                for kx in 0..g.k {
                    let wv = self.w_row[(ci * g.k + ky) * g.k + kx];
                    if wv != 0.0 {
                        add_scaled(&mut acc, wv, &row[kx..]);
                    }
                }
            }
        }
        acc
    }
}

/// `acc[l] += coeff · src[l]`: one more term of `T` independent sums. (Inner
/// loops here are counted `while`s: the test suite trains filters in debug
/// builds, where an iterator adaptor costs a call per element.)
#[inline(always)]
fn add_scaled<const T: usize>(acc: &mut [f32; T], coeff: f32, src: &[f32]) {
    let src = &src[..T];
    let mut l = 0;
    while l < T {
        acc[l] += coeff * src[l];
        l += 1;
    }
}

/// [`conv2d_backward_params_into_with`] on the process-wide active backend.
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
    conv2d_backward_params_into_with(KernelBackend::active(), xpad, h, w, spec, grad_out, scratch, dw, db);
}

/// Accumulates the parameter gradients `dw += dW`, `db += db` in the
/// module-level order on `backend`, from the forward pass's `xpad` and the
/// output gradient `grad_out` (`[m, oh, ow]`); `scratch` is overwritten.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_params_into_with(
    backend: KernelBackend,
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
    if kernels::conv_train_weight_grads_with(backend, &g, xpad, grad_out, scratch, dw, db) {
        return;
    }
    // Sixteen chains side by side keep the adders busy; eight channels or
    // fewer would only carry zero lanes along.
    if g.m > 8 {
        param_grads::<16>(xpad, &g, grad_out, scratch, dw, db);
    } else {
        param_grads::<8>(xpad, &g, grad_out, scratch, dw, db);
    }
}

/// [`conv2d_backward_params_into_with`] running `L` output-channel chains at a time.
fn param_grads<const L: usize>(
    xpad: &[f32],
    g: &Geom,
    grad_out: &[f32],
    scratch: &mut Vec<f32>,
    dw: &mut [f32],
    db: &mut [f32],
) {
    // The gradient transposed to `[p][m]` (zero lanes pad `m` to a multiple
    // of `L`): a position's channels are contiguous, so `L` per-channel
    // chains advance together, each still summing over ascending `p`.
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
                            dw[(lane + l) * g.ckk + kk + kx + t] += sum;
                        }
                    }
                    kx += taps;
                }
            }
        }
    }
}

/// `Σ_p g[co][p]·x[kk, p]` for `L` output channels × `K` (≤ 3) adjacent taps
/// of a kernel row; `x` starts at the first tap's cell for position 0, `gt`
/// at the first channel's lane of the transposed gradient.
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

/// [`conv2d_backward_input_into_with`] on the process-wide active backend.
pub fn conv2d_backward_input_into(
    weight: &[f32],
    h: usize,
    w: usize,
    spec: &ConvSpec,
    grad_out: &[f32],
    scratch: &mut Vec<f32>,
    dx: &mut Vec<f32>,
) {
    conv2d_backward_input_into_with(KernelBackend::active(), weight, h, w, spec, grad_out, scratch, dx);
}

/// The input gradient `dx` (`[c, h, w]`) in the module-level order on
/// `backend`, from the weights and `grad_out` (`[m, oh, ow]`); `dx` and
/// `scratch` are overwritten.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_input_into_with(
    backend: KernelBackend,
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
    // `scratch` = dX over the padded input (what lands in the padding is
    // dropped at the end), then the tap sums `t[p]`.
    let pad_len = g.c * g.hp * g.wp;
    if !kernels::conv_train_input_grad_with(backend, &g, weight, grad_out, scratch) {
        scratch.clear();
        scratch.resize(pad_len + p, 0.0);
        let (dx_pad, t) = scratch.split_at_mut(pad_len);
        input_grads(&g, weight, grad_out, t, dx_pad);
    }
    dx.clear();
    for plane in scratch[..pad_len].chunks_exact(g.hp * g.wp) {
        for row in plane.chunks_exact(g.wp).skip(g.pad).take(h) {
            dx.extend_from_slice(&row[g.pad..g.pad + w]);
        }
    }
}

/// dX of [`conv2d_backward_input_into_with`] over the padded input, one tap
/// at a time through `t` (`p` cells).
fn input_grads(g: &Geom, weight: &[f32], grad_out: &[f32], t: &mut [f32], dx_pad: &mut [f32]) {
    let p = g.oh * g.ow;
    for kk in 0..g.ckk {
        let (ci, ky, kx) = (kk / (g.k * g.k), kk / g.k % g.k, kk % g.k);
        fill_tiled(t, &InputGradTile { w_col: weight[kk..].iter().step_by(g.ckk), grad_out, p }, true);
        for (oy, t_row) in t.chunks_exact(g.ow).enumerate() {
            let dst = &mut dx_pad[(ci * g.hp + oy * g.s + ky) * g.wp + kx..];
            if g.s == 1 {
                for (d, &v) in dst.iter_mut().zip(t_row) {
                    *d += v;
                }
            } else {
                for (d, &v) in dst.iter_mut().step_by(g.s).zip(t_row) {
                    *d += v;
                }
            }
        }
    }
}

/// `Σ_co w[co]·g[co][q..q+T]` for one tap (`w_col`: its weight per channel).
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

/// Max-pool backward: each pooled cell's gradient goes to the input cell
/// [`crate::ops::maxpool2d_into`] recorded; `dx` (`in_len` cells) is overwritten.
pub fn maxpool2d_backward_into(grad_out: &[f32], argmax: &[usize], in_len: usize, dx: &mut Vec<f32>) {
    debug_assert_eq!(grad_out.len(), argmax.len(), "maxpool2d_backward_into gradient size mismatch");
    dx.clear();
    dx.resize(in_len, 0.0);
    for (&g, &i) in grad_out.iter().zip(argmax) {
        dx[i] += g;
    }
}

/// GAP backward: each channel's gradient spread evenly over its `h × w` cells.
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
