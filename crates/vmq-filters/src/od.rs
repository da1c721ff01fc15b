//! OD filters — the object-detection-based branch of Sec. II-B / Fig. 4.
//!
//! The network shares a convolutional trunk (the stand-in for the first `k`
//! Darknet-19 layers of YOLOv2) with a branch of additional convolutions at
//! grid resolution, from which two heads are computed:
//!
//! * a **grid head** — a 1×1 convolution with sigmoid producing, for every
//!   class, a `g×g` map of object-presence probabilities, and
//! * a **count head** — global average pooling followed by a fully-connected
//!   layer with ReLU producing per-class counts.
//!
//! Training minimises the branch loss of Eq. 3: SmoothL1 on counts plus the
//! masked squared grid error with separate `λ_obj` / `λ_noobj` weights,
//! summed over classes. The paper trains this jointly with the YOLO loss on
//! a pre-trained Darknet; here the trunk is trained from scratch together
//! with the branch (the substitution is documented in DESIGN.md).

use crate::arch::{build_branch, build_trunk};
use crate::config::FilterConfig;
use crate::estimate::{
    estimate_alone, image_to_tensor, load_frame, load_pixels, FilterEstimate, FilterKind, FrameFilter,
};
use crate::grid::ClassGrid;
use crate::label::FrameLabels;
use parking_lot::RwLock;
use vmq_nn::layer::{Act, Activation, Conv2d, Dense, GlobalAvgPool};
use vmq_nn::loss::{masked_grid_loss, smooth_l1_loss};
use vmq_nn::net::{Param, Sequential};
use vmq_nn::train::{EpochStats, Trainable};
use vmq_nn::{Tape, Tensor, Workspace};
use vmq_video::{Frame, ObjectClass, RasterConfig};

struct OdNet {
    trunk: Sequential,
    branch: Sequential,
    grid_head: Sequential,
    count_head: Sequential,
}

impl OdNet {
    /// Training forward pass over the raster loaded into `ws`: returns
    /// `(counts, grids)`, both heads reading the stashed branch output.
    fn forward(&self, ws: &mut Workspace, tape: &mut Tape) -> (Tensor, Tensor) {
        self.trunk.forward_ws(ws, tape);
        self.branch.forward_ws(ws, tape);
        ws.stash();
        self.grid_head.forward_ws(ws, tape);
        let grids = ws.output();
        ws.unstash();
        self.count_head.forward_ws(ws, tape);
        (ws.output(), grids)
    }

    /// Backward pass into the gradient slot `grad`, laid out as
    /// [`Trainable::parameters_mut`].
    fn backward(&self, d_counts: &Tensor, d_grids: &Tensor, ws: &mut Workspace, tape: &mut Tape, grad: &mut [f32]) {
        ws.load(d_counts);
        let rest = self.count_head.backward_ws(ws, tape, grad, true);
        ws.stash();
        ws.load(d_grids);
        let rest = self.grid_head.backward_ws(ws, tape, rest, true);
        // The branch output fed both heads: its gradient is their sum.
        ws.add_stash();
        let rest = self.branch.backward_ws(ws, tape, rest, true);
        // Nothing consumes the gradient w.r.t. the raster.
        self.trunk.backward_ws(ws, tape, rest, false);
    }

    fn parameters(&self) -> Vec<&Param> {
        [&self.trunk, &self.branch, &self.grid_head, &self.count_head]
            .into_iter()
            .flat_map(|n| n.parameters())
            .collect()
    }
}

impl Trainable for OdNet {
    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        [&mut self.trunk, &mut self.branch, &mut self.grid_head, &mut self.count_head]
            .into_iter()
            .flat_map(|n| n.parameters_mut())
            .collect()
    }
}

/// A trained (or trainable) OD filter.
///
/// Like [`crate::IcFilter`], the network sits behind a [`RwLock`]: training
/// (`&mut self`) needs no lock, inference and the digest read — so sharded
/// batches run concurrently on a shared-read net with per-thread workspaces.
pub struct OdFilter {
    config: FilterConfig,
    net: RwLock<OdNet>,
    history: Vec<EpochStats>,
}

impl OdFilter {
    /// Creates an untrained OD filter.
    pub fn new(config: FilterConfig) -> Self {
        let n = config.num_classes();
        let d = config.feature_channels();
        let bc = config.branch_channels;
        let trunk = build_trunk(&config, Act::LeakyRelu(0.1), config.seed.wrapping_add(1000));
        let branch = build_branch(d, bc, 2, config.seed.wrapping_add(2000));
        let grid_head = Sequential::new(vec![
            Box::new(Conv2d::new(bc, n, 1, 1, 0, config.seed.wrapping_add(3000))),
            Box::new(Activation::new(Act::Sigmoid)),
        ]);
        let count_head = Sequential::new(vec![
            Box::new(GlobalAvgPool::new()),
            Box::new(Dense::new(bc, n, config.seed.wrapping_add(4000))),
            Box::new(Activation::new(Act::Relu)),
        ]);
        OdFilter { config, net: RwLock::new(OdNet { trunk, branch, grid_head, count_head }), history: Vec::new() }
    }

    /// The filter configuration.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Per-epoch loss history recorded by [`OdFilter::train`].
    pub fn history(&self) -> &[EpochStats] {
        &self.history
    }

    /// [`vmq_nn::net::param_digest`] over the trunk, branch, grid-head and
    /// count-head parameters, in that order.
    pub fn param_digest(&self) -> u64 {
        vmq_nn::net::param_digest(&self.net.read().parameters())
    }

    /// Trains the filter with the branch loss of Eq. 3.
    pub fn train(&mut self, frames: &[Frame], labels: &[FrameLabels]) -> Vec<EpochStats> {
        assert_eq!(frames.len(), labels.len(), "frames and labels must be parallel");
        let schedule = self.config.schedule;
        let n = self.config.num_classes();
        let g2 = self.config.grid * self.config.grid;
        let raster = &self.config.raster;
        let count_targets: Vec<Tensor> = labels.iter().map(|l| l.count_tensor()).collect();
        let map_targets: Vec<Tensor> = labels.iter().map(|l| l.maps_tensor()).collect();

        let seed = self.config.seed.wrapping_add(0x0D);
        let history = schedule.train(self.net.get_mut(), frames.len(), seed, |net, s| {
            // The grid term of Eq. 3 is always on for OD training; the count
            // weight is alpha, the grid weight uses beta-style scheduling so
            // early epochs emphasise counting as in the IC schedule.
            let lambda_grid = if s.epoch < schedule.count_only_epochs { 0.5 } else { 1.0 };
            let i = s.index;
            load_frame(raster, &frames[i], s.ws);
            let (counts, grids) = net.forward(s.ws, s.tape);
            // Count term.
            let (l_count, d_counts) = smooth_l1_loss(&counts, &count_targets[i]);
            // Grid term, per class, with the obj/noobj masks of Eq. 3.
            let mut d_grids = Tensor::zeros(grids.shape().to_vec());
            let mut l_grid = 0.0f32;
            for c in 0..n {
                let pred = Tensor::from_vec(grids.data()[c * g2..(c + 1) * g2].to_vec(), vec![g2]);
                let target = Tensor::from_vec(map_targets[i].data()[c * g2..(c + 1) * g2].to_vec(), vec![g2]);
                let (l, d) = masked_grid_loss(&pred, &target, schedule.lambda_obj, schedule.lambda_noobj);
                l_grid += l;
                for (o, &v) in d_grids.data_mut()[c * g2..(c + 1) * g2].iter_mut().zip(d.data()) {
                    *o = v * lambda_grid;
                }
            }
            net.backward(&d_counts.scale(schedule.alpha * s.scale), &d_grids.scale(s.scale), s.ws, s.tape, s.grad);
            schedule.alpha * l_count + lambda_grid * l_grid
        });
        self.history = history.clone();
        history
    }
}

impl OdFilter {
    /// One shared-read inference pass over the raster loaded in `ws`, with
    /// the read lock already held: the trunk and branch run through the
    /// caller's workspace, the branch output is stashed so both heads can
    /// read it, and the grid / count heads run in the same order as the
    /// `&mut` forward pass (their arithmetic is independent, so outputs are
    /// bit-identical to it).
    fn infer_one(&self, net: &OdNet, ws: &mut Workspace) -> FilterEstimate {
        net.trunk.infer_ws(ws);
        net.branch.infer_ws(ws);
        ws.stash();
        net.grid_head.infer_ws(ws);
        let g = self.config.grid;
        let n = self.config.num_classes();
        let class_grids: Vec<ClassGrid> =
            (0..n).map(|c| ClassGrid::from_values(g, ws.data()[c * g * g..(c + 1) * g * g].to_vec())).collect();
        ws.unstash();
        net.count_head.infer_ws(ws);
        FilterEstimate {
            classes: self.config.classes.clone(),
            counts: ws.data().iter().map(|&v| v.max(0.0)).collect(),
            grids: class_grids,
            kind: FilterKind::Od,
            total_hint: None,
        }
    }
}

impl OdFilter {
    /// Quantizes all four trained sub-networks on rasterised calibration
    /// frames for [`crate::QuantizedOdFilter`]: `[trunk, branch, grid_head,
    /// count_head]`. Each stage is calibrated on the *f32* outputs of the
    /// stage before it (the standard post-training approximation).
    pub(crate) fn quantized_nets(&self, calib: &[Frame]) -> [vmq_nn::QuantizedSequential; 4] {
        let net = self.net.read();
        let inputs: Vec<Tensor> = calib.iter().map(|f| image_to_tensor(&self.config.raster.render(f))).collect();
        let mut ws = Workspace::new();
        let feats: Vec<Tensor> = inputs.iter().map(|x| net.trunk.infer(x, &mut ws)).collect();
        let branches: Vec<Tensor> = feats.iter().map(|f| net.branch.infer(f, &mut ws)).collect();
        [
            vmq_nn::QuantizedSequential::quantize(&net.trunk, &inputs),
            vmq_nn::QuantizedSequential::quantize(&net.branch, &feats),
            vmq_nn::QuantizedSequential::quantize(&net.grid_head, &branches),
            vmq_nn::QuantizedSequential::quantize(&net.count_head, &branches),
        ]
    }
}

impl FrameFilter for OdFilter {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        self.estimate_batch(std::slice::from_ref(frame)).remove(0)
    }

    fn estimate_batch(&self, frames: &[Frame]) -> Vec<FilterEstimate> {
        // One workspace amortised over the whole batch; inference is a pure
        // read, so the outputs match the per-frame path exactly.
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
        FilterKind::Od
    }

    fn grid_size(&self) -> usize {
        self.config.grid
    }

    fn threshold(&self) -> f32 {
        self.config.threshold
    }

    fn classes(&self) -> &[ObjectClass] {
        &self.config.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::label_frames;
    use vmq_detect::OracleDetector;
    use vmq_video::{Dataset, DatasetProfile};

    fn small_dataset() -> Dataset {
        Dataset::generate(&DatasetProfile::jackson(), 60, 24, 5)
    }

    #[test]
    fn untrained_filter_output_shapes() {
        let config = FilterConfig::fast_test(vec![ObjectClass::Car, ObjectClass::Person]);
        let filter = OdFilter::new(config);
        let ds = small_dataset();
        let est = filter.estimate(&ds.test()[0]);
        assert_eq!(est.classes.len(), 2);
        assert_eq!(est.grids.len(), 2);
        assert_eq!(est.grids[0].size(), 14);
        // sigmoid output: all grid values in [0, 1]
        assert!(est.grids.iter().all(|g| g.cells().iter().all(|&v| (0.0..=1.0).contains(&v))));
        assert!(est.counts.iter().all(|&c| c >= 0.0));
        assert_eq!(est.kind, FilterKind::Od);
        assert_eq!(filter.kind(), FilterKind::Od);
        assert_eq!(filter.grid_size(), 14);
        assert_eq!(filter.classes().len(), 2);
    }

    #[test]
    fn training_reduces_loss() {
        let ds = small_dataset();
        let classes = ds.profile().class_list();
        let mut config = FilterConfig::fast_test(classes.clone());
        config.schedule.epochs = 3;
        config.schedule.count_only_epochs = 1;
        let oracle = OracleDetector::perfect();
        let labels = label_frames(ds.train(), &oracle, &classes, config.grid);
        let mut filter = OdFilter::new(config);
        let history = filter.train(ds.train(), &labels);
        assert_eq!(history.len(), 3);
        assert!(history.last().unwrap().mean_loss.is_finite());
        // The grid-term weight changes after the count-focused epoch 0, so
        // compare epochs that share the same loss definition.
        assert!(
            history[2].mean_loss < history[1].mean_loss,
            "loss should decrease under the full objective: {:?}",
            history
        );
        assert_eq!(filter.history().len(), 3);
    }

    #[test]
    fn training_on_empty_data_is_noop() {
        let config = FilterConfig::fast_test(vec![ObjectClass::Car]);
        let mut filter = OdFilter::new(config);
        assert!(filter.train(&[], &[]).is_empty());
    }
}
