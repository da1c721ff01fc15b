//! Int8-quantized twins of the learned filters.
//!
//! Each twin is built from an already-trained f32 filter by post-training
//! quantization ([`vmq_nn::QuantizedSequential`]) on a calibration prefix of
//! frames: conv / dense layers run in int8 with exact i32 accumulation,
//! pools, activations and the IC CAM/count head stay f32. The estimates are
//! *close to* but not identical to the f32 filter's — which is exactly why
//! the planner treats a quantized twin as a **separate cascade candidate
//! with its own recall calibration** ([`crate::estimate::FilterKind`]
//! `IcInt8` / `OdInt8` / `OdCofInt8`, priced by the cheaper int8 cost-model
//! stages), never as a drop-in substitute for the filter it was derived
//! from.
//!
//! Because int8 inference accumulates in exact integer arithmetic, a twin's
//! estimates are bitwise identical for any batch size and any worker count
//! (the same sharding contract the f32 filters honour), and also across
//! SIMD/scalar kernel dispatch — there is nothing floating-point left to
//! reorder inside the quantized layers.

use crate::config::FilterConfig;
use crate::estimate::{estimate_alone, load_pixels, FilterEstimate, FilterKind, FrameFilter};
use crate::grid::ClassGrid;
use crate::ic::{CamCountHead, IcFilter};
use crate::{CofFilter, OdFilter};
use vmq_nn::{QuantizedSequential, Workspace};
use vmq_video::{Frame, ObjectClass, RasterConfig};

/// Int8 twin of a trained [`IcFilter`]: quantized trunk, f32 CAM/count head.
pub struct QuantizedIcFilter {
    config: FilterConfig,
    trunk: QuantizedSequential,
    head: CamCountHead,
}

impl QuantizedIcFilter {
    /// Quantizes a trained IC filter on the given calibration frames.
    pub fn from_trained(filter: &IcFilter, calib: &[Frame]) -> Self {
        let (trunk, head) = filter.quantized_parts(calib);
        QuantizedIcFilter { config: filter.config().clone(), trunk, head }
    }

    fn infer_one(&self, ws: &mut Workspace) -> FilterEstimate {
        self.trunk.infer_ws(ws);
        let g = self.config.grid;
        let n = self.config.num_classes();
        let (counts, cams) = self.head.infer(ws.data(), g, g);
        let grids: Vec<ClassGrid> = (0..n)
            .map(|c| {
                let cells: Vec<f32> = cams[c * g * g..(c + 1) * g * g].iter().map(|&v| v.clamp(0.0, 1.0)).collect();
                ClassGrid::from_values(g, cells)
            })
            .collect();
        FilterEstimate {
            classes: self.config.classes.clone(),
            counts: counts.iter().map(|&v| v.max(0.0)).collect(),
            grids,
            kind: FilterKind::IcInt8,
            total_hint: None,
        }
    }
}

impl FrameFilter for QuantizedIcFilter {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        self.estimate_batch(std::slice::from_ref(frame)).remove(0)
    }

    fn estimate_batch(&self, frames: &[Frame]) -> Vec<FilterEstimate> {
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
        self.infer_one(ws)
    }

    fn kind(&self) -> FilterKind {
        FilterKind::IcInt8
    }

    fn kernel_backend(&self) -> &'static str {
        "int8"
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

/// Int8 twin of a trained [`OdFilter`]: all four sub-networks quantized,
/// run with the same stash choreography as the f32 filter.
pub struct QuantizedOdFilter {
    config: FilterConfig,
    /// `[trunk, branch, grid_head, count_head]`.
    nets: [QuantizedSequential; 4],
}

impl QuantizedOdFilter {
    /// Quantizes a trained OD filter on the given calibration frames.
    pub fn from_trained(filter: &OdFilter, calib: &[Frame]) -> Self {
        QuantizedOdFilter { config: filter.config().clone(), nets: filter.quantized_nets(calib) }
    }

    fn infer_one(&self, ws: &mut Workspace) -> FilterEstimate {
        let [trunk, branch, grid_head, count_head] = &self.nets;
        trunk.infer_ws(ws);
        branch.infer_ws(ws);
        ws.stash();
        grid_head.infer_ws(ws);
        let g = self.config.grid;
        let n = self.config.num_classes();
        let class_grids: Vec<ClassGrid> =
            (0..n).map(|c| ClassGrid::from_values(g, ws.data()[c * g * g..(c + 1) * g * g].to_vec())).collect();
        ws.unstash();
        count_head.infer_ws(ws);
        FilterEstimate {
            classes: self.config.classes.clone(),
            counts: ws.data().iter().map(|&v| v.max(0.0)).collect(),
            grids: class_grids,
            kind: FilterKind::OdInt8,
            total_hint: None,
        }
    }
}

impl FrameFilter for QuantizedOdFilter {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        self.estimate_batch(std::slice::from_ref(frame)).remove(0)
    }

    fn estimate_batch(&self, frames: &[Frame]) -> Vec<FilterEstimate> {
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
        self.infer_one(ws)
    }

    fn kind(&self) -> FilterKind {
        FilterKind::OdInt8
    }

    fn kernel_backend(&self) -> &'static str {
        "int8"
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

/// Int8 twin of a trained [`CofFilter`] (total-count head only).
pub struct QuantizedCofFilter {
    config: FilterConfig,
    net: QuantizedSequential,
}

impl QuantizedCofFilter {
    /// Quantizes a trained OD-COF filter on the given calibration frames.
    pub fn from_trained(filter: &CofFilter, calib: &[Frame]) -> Self {
        QuantizedCofFilter { config: filter.config().clone(), net: filter.quantized_net(calib) }
    }

    fn infer_one(&self, ws: &mut Workspace) -> FilterEstimate {
        self.net.infer_ws(ws);
        let total = ws.data()[0].max(0.0);
        FilterEstimate {
            classes: Vec::new(),
            counts: Vec::new(),
            grids: Vec::new(),
            kind: FilterKind::OdCofInt8,
            total_hint: Some(total),
        }
    }
}

impl FrameFilter for QuantizedCofFilter {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        self.estimate_batch(std::slice::from_ref(frame)).remove(0)
    }

    fn estimate_batch(&self, frames: &[Frame]) -> Vec<FilterEstimate> {
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
        self.infer_one(ws)
    }

    fn kind(&self) -> FilterKind {
        FilterKind::OdCofInt8
    }

    fn kernel_backend(&self) -> &'static str {
        "int8"
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
    use vmq_video::{Dataset, DatasetProfile, ObjectClass};

    fn small_dataset() -> Dataset {
        Dataset::generate(&DatasetProfile::jackson(), 60, 24, 11)
    }

    #[test]
    fn quantized_ic_estimates_have_f32_shapes_and_int8_kind() {
        let ds = small_dataset();
        let config = FilterConfig::fast_test(vec![ObjectClass::Car, ObjectClass::Person]);
        let f32_filter = IcFilter::new(config);
        let q = QuantizedIcFilter::from_trained(&f32_filter, &ds.train()[..6]);
        let est = q.estimate(&ds.test()[0]);
        assert_eq!(est.kind, FilterKind::IcInt8);
        assert_eq!(est.classes.len(), 2);
        assert_eq!(est.grids.len(), 2);
        assert_eq!(est.grids[0].size(), q.grid_size());
        assert!(est.counts.iter().all(|&c| c >= 0.0));
        assert_eq!(q.kernel_backend(), "int8");
    }

    #[test]
    fn quantized_od_estimates_have_f32_shapes_and_int8_kind() {
        let ds = small_dataset();
        let config = FilterConfig::fast_test(vec![ObjectClass::Car, ObjectClass::Person]);
        let f32_filter = OdFilter::new(config);
        let q = QuantizedOdFilter::from_trained(&f32_filter, &ds.train()[..6]);
        let est = q.estimate(&ds.test()[0]);
        assert_eq!(est.kind, FilterKind::OdInt8);
        assert_eq!(est.grids.len(), 2);
        assert!(est.counts.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn quantized_cof_predicts_totals() {
        let ds = small_dataset();
        let config = FilterConfig::fast_test(vec![ObjectClass::Car]);
        let f32_filter = CofFilter::new(config);
        let q = QuantizedCofFilter::from_trained(&f32_filter, &ds.train()[..6]);
        let est = q.estimate(&ds.test()[0]);
        assert_eq!(est.kind, FilterKind::OdCofInt8);
        assert!(est.total_hint.is_some());
        assert!(est.total_count() >= 0.0);
    }

    #[test]
    fn int8_estimates_are_bit_identical_across_batch_and_worker_splits() {
        // Integer accumulation leaves nothing to reorder: per-frame, batched
        // and sharded paths must agree bitwise for every filter twin.
        let ds = small_dataset();
        let frames = &ds.test()[..9];
        let config = FilterConfig::fast_test(vec![ObjectClass::Car, ObjectClass::Person]);
        let filters: Vec<Box<dyn FrameFilter>> = vec![
            Box::new(QuantizedIcFilter::from_trained(&IcFilter::new(config.clone()), &ds.train()[..4])),
            Box::new(QuantizedOdFilter::from_trained(&OdFilter::new(config.clone()), &ds.train()[..4])),
            Box::new(QuantizedCofFilter::from_trained(&CofFilter::new(config.clone()), &ds.train()[..4])),
        ];
        for filter in &filters {
            let eager: Vec<FilterEstimate> = frames.iter().map(|f| filter.estimate(f)).collect();
            for workers in [1, 2, 4] {
                let sharded = filter.estimate_batch_sharded(frames, workers);
                assert_eq!(sharded.len(), eager.len());
                for (a, b) in eager.iter().zip(&sharded) {
                    assert_eq!(
                        a.counts.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        b.counts.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    );
                    assert_eq!(a.total_hint.map(f32::to_bits), b.total_hint.map(f32::to_bits));
                    for (ga, gb) in a.grids.iter().zip(&b.grids) {
                        assert_eq!(
                            ga.cells().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            gb.cells().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantized_counts_track_f32_counts() {
        // The twin is an approximation of its source filter: on the same
        // frames the count estimates must stay in the same ballpark (here:
        // within an absolute slack generous enough for untrained nets whose
        // outputs are small).
        let ds = small_dataset();
        let config = FilterConfig::fast_test(vec![ObjectClass::Car, ObjectClass::Person]);
        let f32_filter = IcFilter::new(config);
        let q = QuantizedIcFilter::from_trained(&f32_filter, ds.train());
        for frame in &ds.test()[..5] {
            let a = f32_filter.estimate(frame);
            let b = q.estimate(frame);
            for (x, y) in a.counts.iter().zip(&b.counts) {
                let scale = x.abs().max(1.0);
                assert!((x - y).abs() <= 0.25 * scale, "f32 count {x} vs int8 count {y}");
            }
        }
    }
}
