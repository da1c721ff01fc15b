//! Calibrated analytic filter — a fast stand-in for a trained filter.
//!
//! The learned IC/OD filters take tens of seconds to train even at miniature
//! scale, which is too slow for unit and property tests of the query and
//! aggregate layers (which only need *a* filter with realistic error
//! characteristics). [`CalibratedFilter`] produces estimates directly from
//! ground truth, perturbed according to a [`CalibrationProfile`] whose
//! parameters correspond to the accuracy levels the paper reports
//! (e.g. ~90 % exact-count accuracy, CLF F1 in the 0.6–0.9 range). All
//! paper-claims fixtures use the learned filters; this backend exists for
//! tests and for ablation studies over filter quality.

use crate::estimate::{FilterEstimate, FilterKind, FrameFilter};
use crate::grid::ClassGrid;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vmq_video::{Frame, ObjectClass};

/// Error characteristics of a calibrated filter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationProfile {
    /// Standard deviation of the additive error on per-class counts.
    pub count_std: f32,
    /// Probability that a per-class count estimate is off by a whole object
    /// pair (±2): the heavy tail of the paper's Fig. 7 count-accuracy curves
    /// (occlusions and double detections), which is what makes the wider
    /// CCF-2 tolerance of Table III necessary for some queries.
    pub count_outlier_rate: f32,
    /// Probability that an occupied ground-truth cell is missed (false
    /// negative) in the localisation grid.
    pub cell_miss_rate: f32,
    /// Probability that an empty cell is spuriously activated (false
    /// positive) in the localisation grid.
    pub cell_fp_rate: f32,
    /// Which filter family the calibration emulates.
    pub kind: FilterKind,
}

impl CalibrationProfile {
    /// Emulates a well-trained OD filter: accurate localisation, good counts.
    pub fn od_like() -> Self {
        CalibrationProfile {
            count_std: 0.45,
            count_outlier_rate: 0.0,
            cell_miss_rate: 0.05,
            cell_fp_rate: 0.001,
            kind: FilterKind::Od,
        }
    }

    /// Emulates a well-trained IC filter: slightly better counts, noticeably
    /// weaker localisation (the paper's Figs. 7–15 trend).
    pub fn ic_like() -> Self {
        CalibrationProfile {
            count_std: 0.35,
            count_outlier_rate: 0.0,
            cell_miss_rate: 0.2,
            cell_fp_rate: 0.004,
            kind: FilterKind::Ic,
        }
    }

    /// A perfect filter (zero error) — upper bound for ablations.
    pub fn perfect() -> Self {
        CalibrationProfile {
            count_std: 0.0,
            count_outlier_rate: 0.0,
            cell_miss_rate: 0.0,
            cell_fp_rate: 0.0,
            kind: FilterKind::Calibrated,
        }
    }

    /// Overrides the count-outlier rate (whole ±2 count errors).
    pub fn with_count_outliers(mut self, rate: f32) -> Self {
        self.count_outlier_rate = rate;
        self
    }

    /// Overrides the emulated filter family (and with it the virtual price
    /// the cost model charges per evaluated frame).
    pub fn emulating(mut self, kind: FilterKind) -> Self {
        self.kind = kind;
        self
    }
}

/// A filter whose estimates are derived from ground truth plus calibrated
/// noise.
pub struct CalibratedFilter {
    classes: Vec<ObjectClass>,
    grid: usize,
    threshold: f32,
    profile: CalibrationProfile,
    rng: Mutex<StdRng>,
}

impl CalibratedFilter {
    /// Creates a calibrated filter for the given classes and grid size.
    pub fn new(classes: Vec<ObjectClass>, grid: usize, profile: CalibrationProfile, seed: u64) -> Self {
        CalibratedFilter { classes, grid, threshold: 0.5, profile, rng: Mutex::new(StdRng::seed_from_u64(seed)) }
    }

    /// The calibration profile in use.
    pub fn profile(&self) -> &CalibrationProfile {
        &self.profile
    }

    fn gaussian(rng: &mut StdRng) -> f32 {
        let u1: f32 = rng.gen_range(1e-6..1.0f32);
        let u2: f32 = rng.gen_range(0.0..1.0f32);
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }

    /// Ground-truth boxes per class, in class order (one group per class).
    fn truth_box_groups(&self, frame: &Frame) -> Vec<Vec<vmq_video::BoundingBox>> {
        self.classes.iter().map(|&class| frame.objects_of(class).iter().map(|o| o.bbox).collect()).collect()
    }

    /// Perturbs per-class truth (counts + `truth_grids`, parallel to
    /// `self.classes`) into an estimate, consuming `rng` in the fixed
    /// class-major order both the per-frame and batched paths share.
    fn noisy_estimate(&self, frame: &Frame, truth_grids: &[ClassGrid], rng: &mut StdRng) -> FilterEstimate {
        let mut counts = Vec::with_capacity(self.classes.len());
        let mut grids = Vec::with_capacity(self.classes.len());
        for (&class, truth) in self.classes.iter().zip(truth_grids) {
            let true_count = frame.class_count(class) as f32;
            // Outlier draw comes first so profiles without outliers consume
            // exactly the historical RNG stream (rate 0 draws nothing extra).
            let outlier = if self.profile.count_outlier_rate > 0.0 && rng.gen::<f32>() < self.profile.count_outlier_rate
            {
                if rng.gen::<f32>() < 0.5 {
                    2.0
                } else {
                    -2.0
                }
            } else {
                0.0
            };
            let noisy = (true_count + outlier + Self::gaussian(rng) * self.profile.count_std).max(0.0);
            counts.push(noisy);

            let mut cells = Vec::with_capacity(self.grid * self.grid);
            for &v in truth.cells() {
                let occupied = v > 0.5;
                let flipped = if occupied {
                    rng.gen::<f32>() >= self.profile.cell_miss_rate
                } else {
                    rng.gen::<f32>() < self.profile.cell_fp_rate
                };
                cells.push(if flipped { 1.0 } else { 0.0 });
            }
            grids.push(ClassGrid::from_values(self.grid, cells));
        }
        FilterEstimate { classes: self.classes.clone(), counts, grids, kind: self.profile.kind, total_hint: None }
    }
}

impl FrameFilter for CalibratedFilter {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        let truth = ClassGrid::from_boxes_batch(self.grid, &self.truth_box_groups(frame));
        let mut rng = self.rng.lock();
        self.noisy_estimate(frame, &truth, &mut rng)
    }

    fn estimate_batch(&self, frames: &[Frame]) -> Vec<FilterEstimate> {
        // Amortised batch path: all `frames × classes` ground-truth grids are
        // built in one pass (sharing the cell-rectangle table) and the RNG is
        // locked once. Noise is still drawn frame by frame in class-major
        // order, so the stream of draws — and therefore every estimate — is
        // identical to calling `estimate` per frame.
        if self.classes.is_empty() {
            return frames.iter().map(|frame| self.estimate(frame)).collect();
        }
        let groups: Vec<_> = frames.iter().flat_map(|frame| self.truth_box_groups(frame)).collect();
        let truth = ClassGrid::from_boxes_batch(self.grid, &groups);
        let mut rng = self.rng.lock();
        frames
            .iter()
            .zip(truth.chunks(self.classes.len()))
            .map(|(frame, truth_grids)| self.noisy_estimate(frame, truth_grids, &mut rng))
            .collect()
    }

    fn estimate_batch_sharded(&self, frames: &[Frame], workers: usize) -> Vec<FilterEstimate> {
        // The expensive part — building `frames × classes` ground-truth
        // occupancy grids — is a pure per-frame function, so it shards
        // across the persistent pool with a position-keyed merge. The
        // calibrated noise, by contrast, is one sequential RNG stream (that
        // is the filter's determinism contract), so the noise pass stays
        // single-threaded and the estimates are bit-identical to the
        // per-frame path for any worker count.
        let workers = workers.min(frames.len()).max(1);
        if workers == 1 || self.classes.is_empty() {
            return self.estimate_batch(frames);
        }
        let chunk = frames.len().div_ceil(workers);
        let mut truth: Vec<Vec<ClassGrid>> = vec![Vec::new(); frames.len()];
        vmq_exec::scope(workers, |scope| {
            for (slots, part) in truth.chunks_mut(chunk).zip(frames.chunks(chunk)) {
                scope.spawn(move || {
                    let groups: Vec<_> = part.iter().flat_map(|frame| self.truth_box_groups(frame)).collect();
                    let grids = ClassGrid::from_boxes_batch(self.grid, &groups);
                    for (slot, frame_grids) in slots.iter_mut().zip(grids.chunks(self.classes.len())) {
                        *slot = frame_grids.to_vec();
                    }
                });
            }
        });
        let mut rng = self.rng.lock();
        frames
            .iter()
            .zip(&truth)
            .map(|(frame, truth_grids)| self.noisy_estimate(frame, truth_grids, &mut rng))
            .collect()
    }

    fn kind(&self) -> FilterKind {
        self.profile.kind
    }

    fn kernel_backend(&self) -> &'static str {
        // No network runs here: estimates derive from ground truth + noise.
        "none"
    }

    fn grid_size(&self) -> usize {
        self.grid
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }

    fn classes(&self) -> &[ObjectClass] {
        &self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmq_video::{BoundingBox, Color, SceneObject};

    fn frame(n_cars: usize) -> Frame {
        let objects = (0..n_cars)
            .map(|i| SceneObject {
                track_id: i as u64,
                class: ObjectClass::Car,
                color: Color::Red,
                bbox: BoundingBox::new(0.1 + 0.15 * i as f32, 0.4, 0.1, 0.1),
                velocity: (0.0, 0.0),
            })
            .collect();
        Frame { camera_id: 0, frame_id: 0, timestamp: 0.0, objects }
    }

    #[test]
    fn perfect_profile_reproduces_truth() {
        let filter = CalibratedFilter::new(vec![ObjectClass::Car], 14, CalibrationProfile::perfect(), 1);
        let est = filter.estimate(&frame(3));
        assert_eq!(est.count_for_rounded(ObjectClass::Car), Some(3));
        let truth = ClassGrid::from_boxes(
            14,
            &frame(3).objects_of(ObjectClass::Car).iter().map(|o| o.bbox).collect::<Vec<_>>(),
        );
        assert_eq!(est.grid_for(ObjectClass::Car).unwrap().occupied(), truth.occupied());
    }

    #[test]
    fn noisy_profile_is_mostly_right_but_not_always() {
        let filter = CalibratedFilter::new(vec![ObjectClass::Car], 14, CalibrationProfile::od_like(), 2);
        let mut exact = 0usize;
        let n = 300;
        for _ in 0..n {
            if filter.estimate(&frame(2)).count_for_rounded(ObjectClass::Car) == Some(2) {
                exact += 1;
            }
        }
        let acc = exact as f32 / n as f32;
        assert!(acc > 0.6 && acc < 1.0, "exact-count accuracy {acc}");
    }

    #[test]
    fn ic_profile_localises_worse_than_od() {
        let truth_boxes: Vec<_> = frame(3).objects_of(ObjectClass::Car).iter().map(|o| o.bbox).collect();
        let truth = ClassGrid::from_boxes(14, &truth_boxes);
        let ic = CalibratedFilter::new(vec![ObjectClass::Car], 14, CalibrationProfile::ic_like(), 3);
        let od = CalibratedFilter::new(vec![ObjectClass::Car], 14, CalibrationProfile::od_like(), 3);
        let mut ic_hits = 0usize;
        let mut od_hits = 0usize;
        for _ in 0..100 {
            let ic_grid = ic.estimate(&frame(3));
            let od_grid = od.estimate(&frame(3));
            for cell in truth.occupied_cells() {
                if ic_grid.grid_for(ObjectClass::Car).unwrap().get(cell.0, cell.1) > 0.5 {
                    ic_hits += 1;
                }
                if od_grid.grid_for(ObjectClass::Car).unwrap().get(cell.0, cell.1) > 0.5 {
                    od_hits += 1;
                }
            }
        }
        assert!(od_hits > ic_hits, "od {od_hits} vs ic {ic_hits}");
    }

    #[test]
    fn count_outliers_produce_two_off_errors_but_stay_within_two() {
        let profile = CalibrationProfile { count_std: 0.1, ..CalibrationProfile::od_like() }.with_count_outliers(0.3);
        let filter = CalibratedFilter::new(vec![ObjectClass::Car], 14, profile, 11);
        let mut off_by_two = 0usize;
        let n = 400;
        for _ in 0..n {
            let est = filter.estimate(&frame(3)).count_for_rounded(ObjectClass::Car).unwrap();
            let err = (est - 3).abs();
            assert!(err <= 2, "outliers are capped at ±2, got error {err}");
            if err == 2 {
                off_by_two += 1;
            }
        }
        let rate = off_by_two as f32 / n as f32;
        assert!(rate > 0.1 && rate < 0.5, "observed outlier rate {rate}");
    }

    #[test]
    fn emulating_changes_family_and_price() {
        let p = CalibrationProfile::perfect().emulating(FilterKind::Ic);
        assert_eq!(p.kind, FilterKind::Ic);
        let filter = CalibratedFilter::new(vec![ObjectClass::Car], 8, p, 0);
        assert_eq!(filter.kind(), FilterKind::Ic);
    }

    #[test]
    fn trait_metadata() {
        let filter =
            CalibratedFilter::new(vec![ObjectClass::Car, ObjectClass::Bus], 8, CalibrationProfile::od_like(), 0);
        assert_eq!(filter.grid_size(), 8);
        assert_eq!(filter.classes().len(), 2);
        assert_eq!(filter.kind(), FilterKind::Od);
        assert!(filter.threshold() > 0.0);
        assert!((filter.profile().count_std - 0.45).abs() < 1e-6);
    }
}
