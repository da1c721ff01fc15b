//! Differential tests of the conv-block kernel (ROADMAP 4e).
//!
//! `conv2d_block_into_with` promises one thing: on every backend its output
//! equals, bit for bit, that backend's plain convolution followed by the
//! element-wise activation and the 2×2 max-pool — whatever the tile a
//! pixel falls in (full, masked, two-row, odd last row, `m % 8` channel
//! tail) and whatever a previous call of another shape left in the scratch
//! and output buffers, which the kernel does not clear.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmq_nn::kernels::{
    conv2d_block_into_with, conv2d_into_with, leaky_relu_in_place_with, relu_in_place_with, BlockAct, KernelBackend,
};
use vmq_nn::ops::{self, ConvSpec};
use vmq_nn::Act;

const ACTS: [BlockAct; 3] = [BlockAct::Identity, BlockAct::Relu, BlockAct::LeakyRelu(0.1)];

/// Values straddling zero with exact `0.0` and `-0.0` mixed in, so the
/// activation's `>= 0` branch and the pool's keep-first tie rule both see
/// their edge cases.
fn signed_values(len: usize, scale: f32, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0..1.0f32) * scale,
        })
        .collect()
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// One block call on `backend` against the same backend's unfused
/// composition, for a `c → m` 3×3/stride-1/pad-1 convolution over `h × w`
/// (`shape = [c, m, h, w]`).
fn check_block(backend: KernelBackend, shape: [usize; 4], act: BlockAct, pool: bool, seed: u64) {
    let [c, m, h, w] = shape;
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = ConvSpec { in_channels: c, out_channels: m, kernel: 3, stride: 1, padding: 1 };
    let input = signed_values(c * h * w, 1.0, &mut rng);
    let weight = signed_values(m * c * 9, 0.5, &mut rng);
    let bias = signed_values(m, 0.2, &mut rng);
    let what = format!("{} {c}->{m} {h}x{w} {act:?} pool={pool}", backend.name());

    // Unfused: conv, then the element-wise kernel, then the scalar pool.
    let (mut scratch, mut reference) = (Vec::new(), Vec::new());
    conv2d_into_with(backend, &input, h, w, &spec, &weight, &bias, &mut scratch, &mut reference);
    let conv = reference.clone();
    let layer_act = match act {
        BlockAct::Identity => None,
        BlockAct::Relu => {
            relu_in_place_with(backend, &mut reference);
            Some(Act::Relu)
        }
        BlockAct::LeakyRelu(slope) => {
            leaky_relu_in_place_with(backend, &mut reference, slope);
            Some(Act::LeakyRelu(slope))
        }
    };
    if let Some(layer_act) = layer_act {
        // The element-wise kernels are `Act::apply` per element; the one
        // documented freedom is the sign of a zero the ReLU produces.
        for (i, (&got, &x)) in reference.iter().zip(&conv).enumerate() {
            let want = layer_act.apply(x);
            assert!(
                got.to_bits() == want.to_bits() || (got == 0.0 && want == 0.0),
                "{what}: act [{i}] {got} vs {want}"
            );
        }
    }
    if pool {
        let activated = std::mem::take(&mut reference);
        ops::maxpool2d_into(&activated, m, h, w, 2, &mut reference, None);
    }

    // The block, into buffers that hold a larger shape's worth of poison:
    // a lane the kernel reads before writing it turns the output NaN.
    let mut scratch = vec![f32::NAN; (c + 1) * (h + 4) * (w + 4) * 9 + 64];
    let mut out = vec![f32::NAN; (m + 1) * (h + 2) * (w + 2)];
    conv2d_block_into_with(backend, &input, h, w, &spec, &weight, &bias, act, pool, &mut scratch, &mut out);
    assert_eq!(out.len(), reference.len(), "{what}: output length");
    assert_eq!(bits(&out), bits(&reference), "{what}: block differs from conv -> activation -> pool");
}

/// The widths the filter nets run (14, 28, 56: masked, one-and-a-masked and
/// multi-tile rows) and two odd ones (17, 33: a one-lane tail), at even and
/// odd heights, with an `m % 8` channel tail, for every epilogue.
#[test]
fn named_widths_match_the_unfused_composition_on_every_backend() {
    for backend in KernelBackend::supported() {
        for (i, &w) in [14usize, 28, 56, 17, 33].iter().enumerate() {
            for h in [1usize, 6, 7] {
                for act in ACTS {
                    let even = h.is_multiple_of(2) && w.is_multiple_of(2);
                    for pool in [false, true] {
                        if pool && !even {
                            continue;
                        }
                        check_block(backend, [3, 9, h, w], act, pool, (i * 100 + h) as u64);
                    }
                }
            }
        }
    }
}

/// The filter trunks' own layer shapes, pooled where the trunk pools.
#[test]
fn trunk_shapes_match_the_unfused_composition_on_every_backend() {
    for backend in KernelBackend::supported() {
        for (c, m, side, pool) in [(3usize, 8usize, 56usize, true), (8, 16, 28, true), (16, 16, 14, false)] {
            check_block(backend, [c, m, side, side], BlockAct::LeakyRelu(0.1), pool, side as u64);
            check_block(backend, [c, m, side, side], BlockAct::Relu, pool, side as u64 + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any channel counts (1–17, so both the 8-channel tiles and their
    /// tails), any height and width (1–35, odd and even), any epilogue;
    /// pooled whenever both dims are even.
    #[test]
    fn any_shape_matches_the_unfused_composition_on_every_backend(
        (c, m) in (1usize..=17, 1usize..=17),
        (h, w) in (1usize..=35, 1usize..=35),
        act in 0usize..3,
        seed in 0u64..1 << 32,
    ) {
        let pool = h.is_multiple_of(2) && w.is_multiple_of(2);
        for backend in KernelBackend::supported() {
            check_block(backend, [c, m, h, w], ACTS[act], pool, seed);
            if pool {
                check_block(backend, [c, m, h, w], ACTS[act], false, seed);
            }
        }
    }
}
