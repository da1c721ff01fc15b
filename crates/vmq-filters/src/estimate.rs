//! Filter outputs and the common filter trait.

use crate::grid::ClassGrid;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use vmq_detect::{CostModel, Stage};
use vmq_nn::{Tensor, Workspace};
use vmq_video::{Frame, Image, ObjectClass, RasterConfig};

/// Which filter family produced an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FilterKind {
    /// Image-classification-based filters (Sec. II-A).
    Ic,
    /// Object-detection-based filters (Sec. II-B).
    Od,
    /// The count-optimised classification filter OD-COF (Sec. II-B-1).
    OdCof,
    /// The calibrated analytic stand-in used for fast tests.
    Calibrated,
    /// Int8-quantized IC filter ([`crate::QuantizedIcFilter`]): cheaper per
    /// frame, with its own recall calibration in the planner.
    IcInt8,
    /// Int8-quantized OD filter ([`crate::QuantizedOdFilter`]).
    OdInt8,
    /// Int8-quantized OD-COF filter ([`crate::QuantizedCofFilter`]).
    OdCofInt8,
}

impl FilterKind {
    /// Short name as used in the paper's figures ("IC", "OD", "OD-COF");
    /// the int8 twins append the paper-free `-INT8` suffix.
    pub fn name(self) -> &'static str {
        match self {
            FilterKind::Ic => "IC",
            FilterKind::Od => "OD",
            FilterKind::OdCof => "OD-COF",
            FilterKind::Calibrated => "CAL",
            FilterKind::IcInt8 => "IC-INT8",
            FilterKind::OdInt8 => "OD-INT8",
            FilterKind::OdCofInt8 => "OD-COF-INT8",
        }
    }

    /// The cost-model stage charged per evaluated frame.
    pub fn stage(self) -> Stage {
        match self {
            FilterKind::Ic => Stage::IcFilter,
            FilterKind::Od | FilterKind::OdCof => Stage::OdFilter,
            // The calibrated filter emulates an OD filter's price point.
            FilterKind::Calibrated => Stage::OdFilter,
            FilterKind::IcInt8 => Stage::IcInt8Filter,
            FilterKind::OdInt8 | FilterKind::OdCofInt8 => Stage::OdInt8Filter,
        }
    }
}

/// The output of evaluating a filter on one frame: per-class count estimates
/// plus per-class activation grids. This is the raw material from which the
/// paper's CF / CCF / CLF filters are all derived.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FilterEstimate {
    /// Classes the filter was trained on, parallel to `counts` and `grids`.
    pub classes: Vec<ObjectClass>,
    /// Raw (non-negative, real-valued) per-class count estimates.
    pub counts: Vec<f32>,
    /// Raw per-class activation grids (values in `[0, 1]` for OD, unbounded
    /// CAM activations rescaled to `[0, 1]` for IC).
    pub grids: Vec<ClassGrid>,
    /// Which family produced the estimate.
    pub kind: FilterKind,
    /// Direct total-count prediction, set by filters (such as OD-COF) whose
    /// head predicts the total rather than per-class counts.
    pub total_hint: Option<f32>,
}

impl FilterEstimate {
    /// Total estimated object count over all classes (the CF estimate).
    ///
    /// Uses the direct total prediction when the filter provides one
    /// (OD-COF), otherwise the sum of per-class counts.
    pub fn total_count(&self) -> f32 {
        self.total_hint.unwrap_or_else(|| self.counts.iter().sum())
    }

    /// Total count rounded to the nearest integer.
    pub fn total_count_rounded(&self) -> i64 {
        self.total_count().round() as i64
    }

    /// Count estimate for a class (the CCF estimate); `None` when the filter
    /// was not trained for that class.
    pub fn count_for(&self, class: ObjectClass) -> Option<f32> {
        self.classes.iter().position(|&c| c == class).map(|i| self.counts[i])
    }

    /// Rounded count estimate for a class (0 floor).
    pub fn count_for_rounded(&self, class: ObjectClass) -> Option<i64> {
        self.count_for(class).map(|c| c.max(0.0).round() as i64)
    }

    /// Raw activation grid for a class (the CLF estimate).
    pub fn grid_for(&self, class: ObjectClass) -> Option<&ClassGrid> {
        self.classes.iter().position(|&c| c == class).map(|i| &self.grids[i])
    }

    /// Thresholded binary occupancy grid for a class.
    pub fn binary_grid_for(&self, class: ObjectClass, threshold: f32) -> Option<ClassGrid> {
        self.grid_for(class).map(|g| g.threshold(threshold))
    }
}

/// One profiled calibration pass of a filter backend over a frame sample:
/// the estimates plus the backend's virtual per-frame price and the measured
/// wall-clock cost. This is the raw material the adaptive cascade planner
/// turns into per-candidate selectivity and expected-cost figures.
#[derive(Debug, Clone)]
pub struct FilterProfile {
    /// Estimates for the sampled frames, in frame order.
    pub estimates: Vec<FilterEstimate>,
    /// Virtual per-frame cost of this backend under the given cost model.
    pub virtual_ms_per_frame: f64,
    /// Real wall-clock milliseconds the profiling pass took.
    pub wall_ms: f64,
}

/// A per-frame approximate filter (IC, OD, OD-COF or calibrated).
pub trait FrameFilter: Send + Sync {
    /// Produces count and localisation estimates for a frame.
    fn estimate(&self, frame: &Frame) -> FilterEstimate;

    /// Produces estimates for a whole batch of frames, in frame order.
    ///
    /// The default implementation loops over [`FrameFilter::estimate`];
    /// concrete filters override it to amortise per-batch work (per-thread
    /// scratch workspaces instead of per-frame allocation; the calibrated
    /// filter locks its RNG stream once per batch). Overrides must produce
    /// exactly the estimates the per-frame path would produce, in the same
    /// order — the operator pipeline's eager/batched parity guarantee
    /// depends on it.
    fn estimate_batch(&self, frames: &[Frame]) -> Vec<FilterEstimate> {
        frames.iter().map(|frame| self.estimate(frame)).collect()
    }

    /// Produces estimates for a batch, sharding inference across up to
    /// `workers` scoped worker threads with a position-keyed merge.
    ///
    /// Must be bit-identical to [`FrameFilter::estimate_batch`] (and hence
    /// the per-frame path) for **any** worker count — a pure wall-clock
    /// knob, exactly like the detect stage's sharding. The default ignores
    /// `workers` and runs the batched path; the learned filters override it
    /// with per-thread workspaces over a shared-read network. The calibrated
    /// filter keeps the default: its noise is one sequential RNG stream, and
    /// its truth grids cost less per batch than a pool scope.
    fn estimate_batch_sharded(&self, frames: &[Frame], workers: usize) -> Vec<FilterEstimate> {
        let _ = workers;
        self.estimate_batch(frames)
    }

    /// The raster the filter's network reads, if it reads one. Filters that
    /// report equal rasters can share one render per frame
    /// ([`estimate_shared`]); `None` (the default) keeps the filter out of
    /// any shared decode step.
    fn raster(&self) -> Option<&RasterConfig> {
        None
    }

    /// Estimates `frame` from its render by [`FrameFilter::raster`], running
    /// on the calling thread's inference workspace `ws`. `pixels` is the
    /// render as `3 × height × width` values.
    ///
    /// Must equal [`FrameFilter::estimate`] bit for bit. The default ignores
    /// the render and calls `estimate`, which is right only for a filter that
    /// reads no raster: a learned filter's `estimate` borrows the thread's
    /// workspace, which the decode step already holds. So a filter (or a
    /// wrapper) that reports a raster must override this too; the default
    /// panics, naming the type, when it does not.
    fn estimate_pixels(&self, frame: &Frame, pixels: &[f32], ws: &mut Workspace) -> FilterEstimate {
        assert!(
            self.raster().is_none(),
            "{} reports a raster but does not override FrameFilter::estimate_pixels",
            std::any::type_name::<Self>()
        );
        let _ = (pixels, ws);
        self.estimate(frame)
    }

    /// Profiles the backend over a calibration sample: runs
    /// [`FrameFilter::estimate_batch`] in chunks of `batch_size` (mirroring
    /// how the operator pipeline would feed it) and reports the estimates
    /// together with the backend's virtual per-frame price and the measured
    /// wall-clock time. Chunking never changes the estimates — the batch
    /// parity guarantee above — so profiles are batch-size invariant.
    fn profile(&self, frames: &[Frame], model: &CostModel, batch_size: usize) -> FilterProfile {
        // vmq-lint: allow(no-wallclock-in-result-paths) -- the span feeds
        // only the profile's diagnostic `wall_ms`; planning and billing
        // use `virtual_ms_per_frame` from the cost model.
        let start = std::time::Instant::now();
        let mut estimates = Vec::with_capacity(frames.len());
        for chunk in frames.chunks(batch_size.max(1)) {
            estimates.extend(self.estimate_batch(chunk));
        }
        FilterProfile {
            estimates,
            virtual_ms_per_frame: model.cost_ms(self.kind().stage()),
            wall_ms: start.elapsed().as_secs_f64() * 1000.0,
        }
    }

    /// Filter family.
    fn kind(&self) -> FilterKind;

    /// Which compute backend the filter's inference arithmetic runs on:
    /// the process-wide SIMD dispatch choice for the learned f32 filters
    /// (`"scalar"` / `"avx2"` / `"neon"`), `"int8"` for the quantized
    /// filters, `"none"` for filters that run no network at all. Reported
    /// per stage row by the bench harness so measurements are attributable
    /// to the kernels that produced them.
    fn kernel_backend(&self) -> &'static str {
        vmq_nn::KernelBackend::active().name()
    }

    /// Grid side length of the localisation maps.
    fn grid_size(&self) -> usize;

    /// Threshold used to binarise activation grids.
    fn threshold(&self) -> f32;

    /// Classes the filter can estimate.
    fn classes(&self) -> &[ObjectClass];
}

/// A borrowed filter is the filter: every method forwards, so a wrapper
/// never silently drops one (a `&IcFilter` boxed as a `dyn FrameFilter`
/// still reports its raster and still shares renders).
impl<F: FrameFilter + ?Sized> FrameFilter for &F {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        (**self).estimate(frame)
    }

    fn estimate_batch(&self, frames: &[Frame]) -> Vec<FilterEstimate> {
        (**self).estimate_batch(frames)
    }

    fn estimate_batch_sharded(&self, frames: &[Frame], workers: usize) -> Vec<FilterEstimate> {
        (**self).estimate_batch_sharded(frames, workers)
    }

    fn raster(&self) -> Option<&RasterConfig> {
        (**self).raster()
    }

    fn estimate_pixels(&self, frame: &Frame, pixels: &[f32], ws: &mut Workspace) -> FilterEstimate {
        (**self).estimate_pixels(frame, pixels, ws)
    }

    fn profile(&self, frames: &[Frame], model: &CostModel, batch_size: usize) -> FilterProfile {
        (**self).profile(frames, model, batch_size)
    }

    fn kind(&self) -> FilterKind {
        (**self).kind()
    }

    fn kernel_backend(&self) -> &'static str {
        (**self).kernel_backend()
    }

    fn grid_size(&self) -> usize {
        (**self).grid_size()
    }

    fn threshold(&self) -> f32 {
        (**self).threshold()
    }

    fn classes(&self) -> &[ObjectClass] {
        (**self).classes()
    }
}

/// Converts a rasterised [`Image`] into an input tensor for the networks.
pub fn image_to_tensor(image: &Image) -> Tensor {
    Tensor::from_vec(image.data.clone(), vec![image.channels, image.height, image.width])
}

/// The `[3, height, width]` input shape every learned network reads.
fn raster_shape(raster: &RasterConfig) -> [usize; 3] {
    [3, raster.height, raster.width]
}

/// Loads the decode step's render of a frame as the workspace's input, as a
/// learned filter's [`FrameFilter::estimate_pixels`] starts.
pub(crate) fn load_pixels(raster: &RasterConfig, pixels: &[f32], ws: &mut Workspace) {
    ws.load_slice(pixels, &raster_shape(raster));
}

thread_local! {
    /// Each thread's render of the frame it is estimating, read by every
    /// filter of a shared decode group; reused across frames and batches.
    static PIXELS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The plan-level decode step: estimates `frames` with every filter of a
/// group whose networks read the same raster, rendering each frame once.
/// Returns one estimate vector per filter, in `filters` order, each equal bit
/// for bit to that filter's own [`FrameFilter::estimate_batch_sharded`].
///
/// The work is frame-major: frames shard over up to `workers` tasks on the
/// persistent pool with a position-keyed merge, and each task renders a
/// frame into its thread's pixel buffer and runs the whole group on it
/// before the next frame — so each thread holds one render, never a batch of
/// them.
///
/// # Panics
///
/// If a filter reports no raster, the filters' rasters differ, or a filter
/// keeps the default [`FrameFilter::estimate_pixels`].
pub fn estimate_shared(filters: &[&dyn FrameFilter], frames: &[Frame], workers: usize) -> Vec<Vec<FilterEstimate>> {
    let Some(first) = filters.first() else {
        return Vec::new();
    };
    let raster = first.raster().expect("estimate_shared runs filters that read a raster");
    assert!(filters.iter().all(|f| f.raster() == Some(raster)), "estimate_shared needs one raster per group");
    // Each chunk runs on its thread's inference workspace, reused across
    // batches, so steady-state decode neither spawns threads nor grows scratch.
    let per_frame = vmq_exec::shard_map(frames, workers, |part| {
        vmq_nn::with_thread_workspace(|ws| {
            let decode_frame = |frame| {
                PIXELS.with_borrow_mut(|pixels| {
                    raster.render_into(frame, pixels);
                    filters.iter().map(|f| f.estimate_pixels(frame, pixels, ws)).collect::<Vec<_>>()
                })
            };
            part.iter().map(decode_frame).collect()
        })
    });
    let mut out: Vec<Vec<FilterEstimate>> = filters.iter().map(|_| Vec::with_capacity(frames.len())).collect();
    for estimates in per_frame {
        for (column, estimate) in out.iter_mut().zip(estimates) {
            column.push(estimate);
        }
    }
    out
}

/// [`estimate_shared`] over one filter: the batch path every learned filter's
/// [`FrameFilter::estimate_batch_sharded`] runs.
pub(crate) fn estimate_alone(filter: &dyn FrameFilter, frames: &[Frame], workers: usize) -> Vec<FilterEstimate> {
    estimate_shared(&[filter], frames, workers).pop().expect("one estimate vector per filter")
}

/// Renders `frame` straight into the workspace as its input: each training
/// sample renders in its own pass, on its own worker, so no rendered
/// training set is held.
pub(crate) fn load_frame(raster: &RasterConfig, frame: &Frame, ws: &mut Workspace) {
    raster.render_into(frame, ws.load_with(&raster_shape(raster)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate() -> FilterEstimate {
        FilterEstimate {
            classes: vec![ObjectClass::Car, ObjectClass::Person],
            counts: vec![2.4, 0.6],
            grids: vec![ClassGrid::from_values(2, vec![0.9, 0.1, 0.0, 0.3]), ClassGrid::empty(2)],
            kind: FilterKind::Od,
            total_hint: None,
        }
    }

    #[test]
    fn total_hint_overrides_sum() {
        let mut e = estimate();
        e.total_hint = Some(5.2);
        assert_eq!(e.total_count_rounded(), 5);
    }

    #[test]
    fn totals_and_rounding() {
        let e = estimate();
        assert!((e.total_count() - 3.0).abs() < 1e-6);
        assert_eq!(e.total_count_rounded(), 3);
        assert_eq!(e.count_for_rounded(ObjectClass::Car), Some(2));
        assert_eq!(e.count_for_rounded(ObjectClass::Person), Some(1));
        assert_eq!(e.count_for(ObjectClass::Bus), None);
    }

    #[test]
    fn grids_and_thresholding() {
        let e = estimate();
        assert!(e.grid_for(ObjectClass::Car).is_some());
        assert!(e.grid_for(ObjectClass::Truck).is_none());
        let bin = e.binary_grid_for(ObjectClass::Car, 0.2).unwrap();
        assert_eq!(bin.occupied(), 2);
        let bin_strict = e.binary_grid_for(ObjectClass::Car, 0.5).unwrap();
        assert_eq!(bin_strict.occupied(), 1);
    }

    #[test]
    fn kind_names_and_stages() {
        assert_eq!(FilterKind::Ic.name(), "IC");
        assert_eq!(FilterKind::Od.name(), "OD");
        assert_eq!(FilterKind::OdCof.name(), "OD-COF");
        assert_eq!(FilterKind::Ic.stage(), Stage::IcFilter);
        assert_eq!(FilterKind::OdCof.stage(), Stage::OdFilter);
    }

    #[test]
    fn profile_hook_reports_cost_and_estimates() {
        struct TruthFilter;
        impl FrameFilter for TruthFilter {
            fn estimate(&self, frame: &Frame) -> FilterEstimate {
                FilterEstimate {
                    classes: vec![ObjectClass::Car],
                    counts: vec![frame.objects.len() as f32],
                    grids: vec![ClassGrid::empty(4)],
                    kind: FilterKind::Ic,
                    total_hint: None,
                }
            }
            fn kind(&self) -> FilterKind {
                FilterKind::Ic
            }
            fn grid_size(&self) -> usize {
                4
            }
            fn threshold(&self) -> f32 {
                0.5
            }
            fn classes(&self) -> &[ObjectClass] {
                &[ObjectClass::Car]
            }
        }
        let frames: Vec<Frame> =
            (0..10).map(|i| Frame { camera_id: 0, frame_id: i, timestamp: 0.0, objects: vec![] }).collect();
        let model = CostModel::paper();
        let profile = TruthFilter.profile(&frames, &model, 3);
        assert_eq!(profile.estimates.len(), 10);
        assert!((profile.virtual_ms_per_frame - 1.5).abs() < 1e-9, "IC backend priced at 1.5 ms");
        assert!(profile.wall_ms >= 0.0);
        // chunking is invisible in the output
        let whole = TruthFilter.profile(&frames, &model, 1000);
        assert_eq!(whole.estimates.len(), profile.estimates.len());
    }

    /// A wrapper that forwards `raster()` but keeps the default
    /// `estimate_pixels` joins a decode group, so the decode step would
    /// re-enter the workspace it holds; it stops with the type's name instead.
    #[test]
    #[should_panic(expected = "RasterOnly reports a raster but does not override FrameFilter::estimate_pixels")]
    fn raster_without_estimate_pixels_names_the_missing_override() {
        struct RasterOnly(crate::IcFilter);
        impl FrameFilter for RasterOnly {
            fn estimate(&self, frame: &Frame) -> FilterEstimate {
                self.0.estimate(frame)
            }
            fn raster(&self) -> Option<&RasterConfig> {
                self.0.raster()
            }
            fn kind(&self) -> FilterKind {
                self.0.kind()
            }
            fn grid_size(&self) -> usize {
                self.0.grid_size()
            }
            fn threshold(&self) -> f32 {
                self.0.threshold()
            }
            fn classes(&self) -> &[ObjectClass] {
                self.0.classes()
            }
        }
        let classes = vmq_video::DatasetProfile::jackson().class_list();
        let wrapped = RasterOnly(crate::IcFilter::new(crate::FilterConfig::fast_test(classes)));
        let frames: Vec<Frame> =
            (0..4).map(|i| Frame { camera_id: 0, frame_id: i, timestamp: 0.0, objects: vec![] }).collect();
        estimate_shared(&[&wrapped, &wrapped.0], &frames, 2);
    }

    #[test]
    fn image_to_tensor_shape() {
        let img = Image::zeros(3, 4, 5);
        let t = image_to_tensor(&img);
        assert_eq!(t.shape(), &[3, 4, 5]);
    }
}
