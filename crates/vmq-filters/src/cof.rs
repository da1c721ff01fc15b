//! OD-COF — the count-optimised classification filter of Sec. II-B-1.
//!
//! The paper attaches a branch to the `k`-th convolution layer of the object
//! detector whose sole objective is predicting the *total* number of objects
//! in the frame. Its architecture (Fig. 5 / Table I) is four convolutions
//! with LeakyReLU — 1024×1 (pad 1), 512×3 (pad 1), 1024×1 (pad 0),
//! 1024×1 (pad 3) — followed by global average pooling and a linear output.
//! [`CofConfig::paper`] records those exact hyper-parameters; the trained
//! miniature uses the same structural pattern with scaled-down widths.

use crate::arch::build_trunk;
use crate::config::FilterConfig;
use crate::estimate::{
    estimate_alone, image_to_tensor, load_frame, load_pixels, FilterEstimate, FilterKind, FrameFilter,
};
use crate::label::FrameLabels;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use vmq_nn::layer::{Act, Activation, Conv2d, Dense, GlobalAvgPool, MaxPool2d};
use vmq_nn::loss::smooth_l1_loss;
use vmq_nn::net::Sequential;
use vmq_nn::train::EpochStats;
use vmq_nn::{Tensor, Workspace};
use vmq_video::{Frame, ObjectClass, RasterConfig};

/// Architecture of the OD-COF branch (Table I).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CofConfig {
    /// Number of filters of each of the four branch convolutions.
    pub filters: [usize; 4],
    /// Kernel size of each convolution.
    pub kernels: [usize; 4],
    /// Padding of each convolution.
    pub paddings: [usize; 4],
    /// Negative slope of the LeakyReLU activations.
    pub leaky_slope: f32,
}

impl CofConfig {
    /// The exact branch hyper-parameters of Table I of the paper.
    pub fn paper() -> Self {
        CofConfig { filters: [1024, 512, 1024, 1024], kernels: [1, 3, 1, 1], paddings: [1, 1, 0, 3], leaky_slope: 0.1 }
    }

    /// A scaled-down branch with the same structural pattern (1×1 / 3×3 / 1×1
    /// / 1×1 kernels, same padding pattern) that trains quickly on a CPU.
    pub fn scaled(width: usize) -> Self {
        let w = width.max(4);
        CofConfig { filters: [w, w / 2, w, w], kernels: [1, 3, 1, 1], paddings: [1, 1, 0, 3], leaky_slope: 0.1 }
    }
}

/// The OD-COF filter: predicts only the total object count per frame.
///
/// The network sits behind a [`RwLock`]: training (`&mut self`) needs no
/// lock, inference and the digest read through per-thread workspaces, so
/// sharded batches run concurrently.
pub struct CofFilter {
    config: FilterConfig,
    net: RwLock<Sequential>,
    history: Vec<EpochStats>,
}

impl CofFilter {
    /// Creates an untrained OD-COF filter. The branch widths are derived from
    /// the filter configuration's branch width, following the Table I pattern.
    pub fn new(config: FilterConfig) -> Self {
        let net = Self::build(&config, &CofConfig::scaled(config.branch_channels));
        CofFilter { config, net: RwLock::new(net), history: Vec::new() }
    }

    fn build(config: &FilterConfig, cof: &CofConfig) -> Sequential {
        let seed = config.seed.wrapping_add(9000);
        let mut net = build_trunk(config, Act::LeakyRelu(cof.leaky_slope), seed);
        // Fig. 5: the detector features are max-pooled before the branch.
        if config.grid.is_multiple_of(2) && config.grid >= 4 {
            net.push(Box::new(MaxPool2d::new(2)));
        }
        let mut in_ch = config.feature_channels();
        for i in 0..4 {
            net.push(Box::new(Conv2d::new(
                in_ch,
                cof.filters[i],
                cof.kernels[i],
                1,
                cof.paddings[i],
                seed.wrapping_add(11 * (i as u64 + 1)),
            )));
            net.push(Box::new(Activation::new(Act::LeakyRelu(cof.leaky_slope))));
            in_ch = cof.filters[i];
        }
        net.push(Box::new(GlobalAvgPool::new()));
        net.push(Box::new(Dense::new(in_ch, 1, seed.wrapping_add(77))));
        net
    }

    /// The filter configuration.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Per-epoch loss history recorded by [`CofFilter::train`].
    pub fn history(&self) -> &[EpochStats] {
        &self.history
    }

    /// [`vmq_nn::net::param_digest`] over the network's parameters.
    pub fn param_digest(&self) -> u64 {
        vmq_nn::net::param_digest(&self.net.read().parameters())
    }

    /// Trains the filter to predict the total object count with SmoothL1.
    pub fn train(&mut self, frames: &[Frame], labels: &[FrameLabels]) -> Vec<EpochStats> {
        assert_eq!(frames.len(), labels.len(), "frames and labels must be parallel");
        let schedule = self.config.schedule;
        let raster = &self.config.raster;
        let targets: Vec<Tensor> = labels.iter().map(|l| Tensor::from_vec(vec![l.total_count()], vec![1])).collect();
        let seed = self.config.seed.wrapping_add(0xC0F);
        let history = schedule.train(self.net.get_mut(), frames.len(), seed, |net, s| {
            load_frame(raster, &frames[s.index], s.ws);
            net.forward_ws(s.ws, s.tape);
            let (loss, grad) = smooth_l1_loss(&s.ws.output(), &targets[s.index]);
            s.ws.load(&grad.scale(s.scale));
            // Nothing consumes the gradient w.r.t. the raster.
            net.backward_ws(s.ws, s.tape, s.grad, false);
            loss
        });
        self.history = history.clone();
        history
    }
}

impl CofFilter {
    /// One shared-read inference pass over the raster loaded in `ws`, with
    /// the read lock already held (bit-identical to the historical `&mut`
    /// forward path).
    fn infer_one(&self, net: &Sequential, ws: &mut Workspace) -> FilterEstimate {
        net.infer_ws(ws);
        let total = ws.data()[0].max(0.0);
        FilterEstimate {
            classes: Vec::new(),
            counts: Vec::new(),
            grids: Vec::new(),
            kind: FilterKind::OdCof,
            total_hint: Some(total),
        }
    }
}

impl CofFilter {
    /// Quantizes the trained network on rasterised calibration frames for
    /// [`crate::QuantizedCofFilter`].
    pub(crate) fn quantized_net(&self, calib: &[Frame]) -> vmq_nn::QuantizedSequential {
        let net = self.net.read();
        let inputs: Vec<Tensor> = calib.iter().map(|f| image_to_tensor(&self.config.raster.render(f))).collect();
        vmq_nn::QuantizedSequential::quantize(&net, &inputs)
    }
}

impl FrameFilter for CofFilter {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        self.estimate_batch(std::slice::from_ref(frame)).remove(0)
    }

    fn estimate_batch(&self, frames: &[Frame]) -> Vec<FilterEstimate> {
        // One workspace amortised over the whole batch.
        self.estimate_batch_sharded(frames, 1)
    }

    fn estimate_batch_sharded(&self, frames: &[Frame], workers: usize) -> Vec<FilterEstimate> {
        estimate_alone(self, frames, workers)
    }

    fn raster(&self) -> Option<&RasterConfig> {
        Some(&self.config.raster)
    }

    fn estimate_pixels(&self, _frame: &Frame, pixels: &[f32], ws: &mut Workspace) -> FilterEstimate {
        load_pixels(&self.config.raster, pixels, ws);
        self.infer_one(&self.net.read(), ws)
    }

    fn kind(&self) -> FilterKind {
        FilterKind::OdCof
    }

    fn grid_size(&self) -> usize {
        self.config.grid
    }

    fn threshold(&self) -> f32 {
        self.config.threshold
    }

    fn classes(&self) -> &[ObjectClass] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::label_frames;
    use vmq_detect::OracleDetector;
    use vmq_video::{Dataset, DatasetProfile};

    #[test]
    fn cof_table1_architecture_is_recorded() {
        // This is experiment E-T1 of DESIGN.md: the branch hyper-parameters of
        // Table I are encoded exactly.
        let paper = CofConfig::paper();
        assert_eq!(paper.filters, [1024, 512, 1024, 1024]);
        assert_eq!(paper.kernels, [1, 3, 1, 1]);
        assert_eq!(paper.paddings, [1, 1, 0, 3]);
        assert!((paper.leaky_slope - 0.1).abs() < 1e-6);
    }

    #[test]
    fn scaled_config_keeps_pattern() {
        let s = CofConfig::scaled(32);
        assert_eq!(s.kernels, CofConfig::paper().kernels);
        assert_eq!(s.paddings, CofConfig::paper().paddings);
        assert_eq!(s.filters, [32, 16, 32, 32]);
    }

    #[test]
    fn untrained_cof_estimates_total_only() {
        let config = FilterConfig::fast_test(vec![ObjectClass::Car]);
        let filter = CofFilter::new(config);
        let ds = Dataset::generate(&DatasetProfile::jackson(), 20, 8, 1);
        let est = filter.estimate(&ds.test()[0]);
        assert!(est.total_hint.is_some());
        assert!(est.total_count() >= 0.0);
        assert!(est.classes.is_empty());
        assert_eq!(est.kind, FilterKind::OdCof);
        assert_eq!(filter.kind(), FilterKind::OdCof);
        assert!(filter.classes().is_empty());
    }

    #[test]
    fn training_reduces_count_loss() {
        let ds = Dataset::generate(&DatasetProfile::jackson(), 60, 20, 2);
        let classes = ds.profile().class_list();
        let mut config = FilterConfig::fast_test(classes.clone());
        config.schedule.epochs = 3;
        let oracle = OracleDetector::perfect();
        let labels = label_frames(ds.train(), &oracle, &classes, config.grid);
        let mut filter = CofFilter::new(config);
        let history = filter.train(ds.train(), &labels);
        assert_eq!(history.len(), 3);
        assert!(history.last().unwrap().mean_loss <= history[0].mean_loss);
        assert!(!filter.history().is_empty());
    }
}
