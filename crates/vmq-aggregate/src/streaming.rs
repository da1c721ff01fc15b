//! Streaming hopping-window aggregate estimation through the batched
//! executor.
//!
//! [`WindowedAggregator`] is the `vmq-aggregate` side of an aggregate
//! statement: it implements [`WindowEstimator`](vmq_query::WindowEstimator),
//! so a [`SharedStreamPlan`](vmq_query::SharedStreamPlan) it is registered
//! on (`source → window-filter → aggregate-sink`; alone, through
//! [`QueryExecutor::run_aggregate`](vmq_query::QueryExecutor::run_aggregate))
//! hands it every completed hopping window together with the window-wide
//! filter indicator columns. Per window it optionally picks the
//! control-variate backend from a calibration prefix (the adaptive planner's
//! aggregate extension, [`vmq_query::select_cv_backend`]), then runs the
//! same trial loop as the legacy one-shot [`crate::AggregateEstimator`] —
//! sampled detector evaluation, plain / CV / MCV estimates — and accumulates
//! one [`AggregateReport`] per window.
//!
//! The estimator never touches the cost ledger itself: it reports its
//! detector work (sampled estimation and calibration annotation separately)
//! back to the plan, which charges it, keeping the
//! sum-of-stage-rows-equals-ledger-total invariant intact.

use crate::queries::{AggregateReport, TrialEngine};
use crate::sampler::FrameSampler;
use vmq_detect::{CostLedger, Detector};
use vmq_query::{select_cv_backend, CvBackendChoice, CvCandidate, Query, WindowCharge, WindowData, WindowEstimator};

/// Streaming per-window aggregate estimator: consumes an aggregate
/// statement's completed hopping windows and produces one
/// [`AggregateReport`] per window.
///
/// With a single filter backend (or without
/// [`WindowedAggregator::with_adaptive_backend`]) the first backend's
/// indicators are used for every window — in that configuration a
/// one-window run is **bit-identical** to
/// [`AggregateEstimator::run`](crate::AggregateEstimator::run) at equal seed
/// (same sampler keys, same estimator math), which the workspace parity
/// tests pin down.
pub struct WindowedAggregator {
    query: Query,
    sample_size: usize,
    trials: usize,
    sampler: FrameSampler,
    calibration_prefix: Option<usize>,
    reports: Vec<AggregateReport>,
    selections: Vec<CvBackendChoice>,
    /// Current overload shed level (0 = none): each level halves the
    /// detector sample size per trial, floored at 2 samples. Estimates stay
    /// unbiased — sampling is still uniform — only their confidence
    /// intervals widen, and `shed_windows` reports how many windows ran
    /// degraded.
    shed_level: u32,
    shed_windows: usize,
}

impl WindowedAggregator {
    /// Creates an estimator: `sample_size` frames are evaluated by the
    /// expensive detector per trial, `trials` independent estimations per
    /// window, all sampling driven by `seed`.
    pub fn new(query: Query, sample_size: usize, trials: usize, seed: u64) -> Self {
        WindowedAggregator {
            query,
            sample_size: sample_size.max(2),
            trials,
            sampler: FrameSampler::new(seed),
            calibration_prefix: None,
            reports: Vec::new(),
            selections: Vec::new(),
            shed_level: 0,
            shed_windows: 0,
        }
    }

    /// Enables per-window adaptive control-variate backend selection: the
    /// leading `prefix_frames` frames of every window are annotated with the
    /// expensive detector (charged as calibration work) and the candidate
    /// backend whose indicator correlates best with that truth serves the
    /// window's control variates. The prefix is clamped to
    /// `[2, window size]` (a correlation needs at least two observations).
    /// A no-op while the plan carries a single backend.
    ///
    /// Within a window the estimation trials reuse the prefix verdicts, so
    /// a prefix frame that is later sampled is not detected again.
    /// Overlapping windows re-annotate the frames their prefixes share —
    /// the same honest-but-redundant accounting the adaptive query planner
    /// documents; caching annotations per stream offset is a candidate for
    /// a future PR.
    pub fn with_adaptive_backend(mut self, prefix_frames: usize) -> Self {
        self.calibration_prefix = Some(prefix_frames);
        self
    }

    /// The per-window reports accumulated so far, in window order.
    pub fn reports(&self) -> &[AggregateReport] {
        &self.reports
    }

    /// Consumes the estimator, returning the accumulated per-window reports.
    pub fn into_reports(self) -> Vec<AggregateReport> {
        self.reports
    }

    /// The per-window adaptive backend choices (empty unless
    /// [`WindowedAggregator::with_adaptive_backend`] was enabled and more
    /// than one backend was available).
    pub fn selections(&self) -> &[CvBackendChoice] {
        &self.selections
    }

    /// Number of windows estimated while a shed level was active (degraded
    /// sampling; see [`WindowEstimator::set_shed_level`]).
    pub fn shed_windows(&self) -> usize {
        self.shed_windows
    }

    /// The currently active shed level.
    pub fn shed_level(&self) -> u32 {
        self.shed_level
    }

    /// Detector samples per trial at the current shed level: each level
    /// halves the configured sample size, floored at 2.
    fn effective_sample_size(&self) -> usize {
        (self.sample_size >> self.shed_level.min(31)).max(2)
    }
}

impl WindowEstimator for WindowedAggregator {
    fn estimate_window(
        &mut self,
        window: WindowData<'_>,
        detector: &dyn Detector,
        ledger: &CostLedger,
    ) -> WindowCharge {
        // An empty window has nothing to estimate: no detector call, no
        // charge, no report (and no panic on input).
        if window.frames.is_empty() {
            return WindowCharge::default();
        }

        // 1. Pick the control-variate backend for this window. The prefix
        //    verdicts the calibration paid for seed the trial engine's truth
        //    column, so no frame is detected twice within this call.
        let mut prefix_verdicts: Vec<bool> = Vec::new();
        let backend_index = match (window.backends.len(), self.calibration_prefix) {
            (n, Some(prefix)) if n > 1 => {
                // At least two frames are needed for a correlation, and the
                // prefix can never exceed the window (`max` before `min` so
                // one-frame windows do not panic the way `clamp(2, 1)`
                // would).
                let k = prefix.max(2).min(window.frames.len());
                prefix_verdicts =
                    window.frames[..k].iter().map(|f| self.query.matches_detections(&detector.detect(f))).collect();
                let truth: Vec<f64> = prefix_verdicts.iter().map(|&v| if v { 1.0 } else { 0.0 }).collect();
                let candidates: Vec<CvCandidate> = window
                    .backends
                    .iter()
                    .map(|b| CvCandidate { backend: b.backend, stage: b.stage, pass: &b.pass[..k] })
                    .collect();
                let choice = select_cv_backend(&truth, &candidates, ledger.model());
                let index = choice.backend_index;
                self.selections.push(choice);
                index
            }
            _ => 0,
        };
        let columns = &window.backends[backend_index];

        // 2. Run the shared trial engine. Window 0 uses trial keys 0..trials
        //    (the legacy one-shot sequence); later windows shift their keys
        //    into a disjoint range.
        if self.shed_level > 0 {
            self.shed_windows += 1;
        }
        let engine = TrialEngine {
            query: &self.query,
            sampler: &self.sampler,
            sample_size: self.effective_sample_size(),
            trials: self.trials,
        };
        let trial_offset = (window.index as u64) << 32;
        let (mut report, estimation_frames) = engine.estimate_window(
            window.frames,
            &columns.pass,
            &columns.predicates,
            detector,
            trial_offset,
            &prefix_verdicts,
        );
        report.window_index = window.index;
        report.window_start = window.start;
        report.backend = columns.backend.to_string();
        report.time_per_sample_ms = ledger.model().cost_ms(columns.stage) + ledger.model().cost_ms(detector.stage());
        self.reports.push(report);

        WindowCharge { estimation_frames, calibration_frames: prefix_verdicts.len() as u64 }
    }

    fn set_shed_level(&mut self, level: u32) {
        self.shed_level = level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmq_detect::OracleDetector;
    use vmq_filters::{CalibratedFilter, CalibrationProfile, FrameFilter};
    use vmq_query::{AggregateSpec, QueryExecutor};
    use vmq_video::{Dataset, DatasetProfile};

    fn setup(frames: usize) -> (Dataset, CalibratedFilter, OracleDetector) {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 32, frames, 31);
        let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 9);
        (ds, filter, OracleDetector::perfect())
    }

    #[test]
    fn one_report_per_completed_window() {
        let (ds, filter, oracle) = setup(300);
        let mut agg = WindowedAggregator::new(Query::paper_a1(), 25, 20, 7);
        let backends: Vec<&dyn FrameFilter> = vec![&filter];
        let exec = QueryExecutor::new(Query::paper_a1());
        let run = exec.run_aggregate(ds.test(), AggregateSpec::new(100, 50), &backends, &oracle, &mut agg);
        // 300 frames, size 100, advance 50 → windows at 0, 50, 100, 150, 200.
        assert_eq!(agg.reports().len(), 5);
        for (i, report) in agg.reports().iter().enumerate() {
            assert_eq!(report.window_index, i);
            assert_eq!(report.window_start, i * 50);
            assert_eq!(report.window_frames, 100);
            assert_eq!(report.trials, 20);
            assert_eq!(report.backend, filter.kind().name());
            assert!((report.plain_mean - report.true_fraction).abs() < 0.25);
        }
        assert!(run.mode.contains("aggregate"));
        assert_eq!(run.frames_detected, 5 * 25 * 20);
        assert!(agg.selections().is_empty(), "single backend has nothing to select");
    }

    #[test]
    fn adaptive_backend_selection_prefers_the_informative_backend() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 32, 240, 11);
        let oracle = OracleDetector::perfect();
        // A perfect backend against one whose grids are pure noise: the
        // per-window calibration must pick the perfect one every time.
        let good = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::perfect(), 5);
        let noisy_profile = CalibrationProfile {
            count_std: 3.0,
            cell_miss_rate: 0.9,
            cell_fp_rate: 0.9,
            ..CalibrationProfile::od_like()
        };
        let noisy = CalibratedFilter::new(profile.class_list(), 14, noisy_profile, 6);
        let backends: Vec<&dyn FrameFilter> = vec![&noisy, &good];
        let query = Query::paper_a1();
        let mut agg = WindowedAggregator::new(query.clone(), 20, 15, 3).with_adaptive_backend(40);
        let exec = QueryExecutor::new(query.clone());
        let ledger = exec.ledger().clone();
        let run = exec.run_aggregate(ds.test(), AggregateSpec::new(120, 120), &backends, &oracle, &mut agg);
        assert_eq!(agg.reports().len(), 2);
        assert_eq!(agg.selections().len(), 2);
        for (choice, report) in agg.selections().iter().zip(agg.reports()) {
            assert_eq!(choice.backend_index, 1, "correlations {:?}", choice.correlations);
            assert_eq!(report.backend, good.kind().name());
            assert!(choice.correlation > 0.9, "perfect backend correlates: {}", choice.correlation);
        }
        // Calibration detector work is tracked separately and included in
        // the sink's charged total.
        assert_eq!(ledger.calibration_invocations(vmq_detect::Stage::MaskRcnn), 2 * 40);
        assert_eq!(run.frames_detected, 2 * (20 * 15 + 40));
    }

    #[test]
    fn windowed_reports_reduce_variance_on_a1() {
        let (ds, filter, oracle) = setup(400);
        let query = Query::paper_a1();
        let mut agg = WindowedAggregator::new(query.clone(), 40, 60, 7);
        let backends: Vec<&dyn FrameFilter> = vec![&filter];
        let exec = QueryExecutor::new(query.clone());
        let _ = exec.run_aggregate(ds.test(), AggregateSpec::new(200, 200), &backends, &oracle, &mut agg);
        let reports = agg.into_reports();
        assert_eq!(reports.len(), 2);
        for report in &reports {
            assert!(report.plain_variance > 0.0);
            assert!(
                report.best_reduction() > 1.0,
                "window {} should reduce variance: plain {} cv {} mcv {}",
                report.window_index,
                report.plain_variance,
                report.cv_variance,
                report.mcv_variance
            );
        }
    }
}
