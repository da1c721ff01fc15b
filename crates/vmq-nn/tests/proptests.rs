//! Property-based tests of the tensor and kernel layer.

use proptest::prelude::*;
use vmq_nn::grad::conv2d_forward_into;
use vmq_nn::ops::{global_avg_pool_into, matmul_into, maxpool2d_into, softmax, ConvSpec};
use vmq_nn::Tensor;

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Matrix multiplication distributes over scalar multiplication.
    #[test]
    fn matmul_scales_linearly(data_a in tensor_strategy(12), data_b in tensor_strategy(12), k in -3.0f32..3.0) {
        let scaled_a: Vec<f32> = data_a.iter().map(|v| v * k).collect();
        let (mut scaled, mut reference) = (Vec::new(), Vec::new());
        matmul_into(&scaled_a, 3, 4, &data_b, 3, &mut scaled);
        matmul_into(&data_a, 3, 4, &data_b, 3, &mut reference);
        for (x, y) in scaled.iter().zip(&reference) {
            let y = y * k;
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }

    /// Convolution output shape follows the ConvSpec arithmetic and the
    /// response to an all-zero input is exactly the bias.
    #[test]
    fn conv_shape_and_bias(channels in 1usize..4, size in 4usize..9, bias in -2.0f32..2.0) {
        let spec = ConvSpec { in_channels: channels, out_channels: 2, kernel: 3, stride: 1, padding: 1 };
        let input = vec![0.0; channels * size * size];
        let weight = vec![0.3; 2 * channels * 9];
        let (mut xpad, mut scratch, mut out) = (Vec::new(), Vec::new(), Vec::new());
        conv2d_forward_into(&input, size, size, &spec, &weight, &[bias, -bias], &mut xpad, &mut scratch, &mut out);
        prop_assert_eq!(spec.out_size(size, size), (size, size));
        prop_assert_eq!(out.len(), 2 * size * size);
        for v in &out[..size * size] {
            prop_assert!((v - bias).abs() < 1e-6);
        }
    }

    /// Global average pooling preserves total mass per channel.
    #[test]
    fn gap_is_channel_mean(data in tensor_strategy(2 * 4 * 4)) {
        let mut pooled = Vec::new();
        global_avg_pool_into(&data, 2, 4, 4, &mut pooled);
        for c in 0..2 {
            let manual: f32 = data[c * 16..(c + 1) * 16].iter().sum::<f32>() / 16.0;
            prop_assert!((pooled[c] - manual).abs() < 1e-4);
        }
    }

    /// Max pooling never produces a value absent from the input and never
    /// produces something smaller than the input mean.
    #[test]
    fn maxpool_upper_bound(data in tensor_strategy(16)) {
        let (mut out, mut idx) = (Vec::new(), Vec::new());
        maxpool2d_into(&data, 1, 4, 4, 2, &mut out, Some(&mut idx));
        prop_assert_eq!(out.len(), 4);
        prop_assert_eq!(idx.len(), 4);
        for (&o, &i) in out.iter().zip(&idx) {
            prop_assert_eq!(o, data[i]);
        }
        let (t, out) = (Tensor::from_vec(data, vec![16]), Tensor::from_vec(out, vec![4]));
        prop_assert!(out.max() <= t.max() + 1e-6);
        prop_assert!(out.min() >= t.min() - 1e-6);
    }

    /// Softmax is a probability distribution regardless of input.
    #[test]
    fn softmax_is_distribution(data in tensor_strategy(8)) {
        let p = softmax(&data);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// Element-wise tensor algebra: (a + b) - b == a.
    #[test]
    fn add_sub_roundtrip(data_a in tensor_strategy(10), data_b in tensor_strategy(10)) {
        let a = Tensor::from_vec(data_a, vec![10]);
        let b = Tensor::from_vec(data_b, vec![10]);
        let roundtrip = a.add(&b).sub(&b);
        for (x, y) in roundtrip.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }
}
