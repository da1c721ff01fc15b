//! Streaming hopping-window aggregate estimation through the batched
//! executor.
//!
//! [`WindowedAggregator`] is the `vmq-aggregate` side of an aggregate
//! statement: it implements [`WindowEstimator`], so a
//! [`SharedStreamPlan`](vmq_query::SharedStreamPlan) it is registered on
//! (`source → window-filter → aggregate-sink`; alone, through
//! [`QueryExecutor::run_aggregate`](vmq_query::QueryExecutor::run_aggregate))
//! hands it every completed hopping window together with the window-wide
//! filter indicator columns. Per window it optionally picks the
//! control-variate backend from a calibration prefix (the adaptive planner's
//! aggregate extension, [`vmq_query::select_cv_backend`]), then runs the
//! trial loop — sampled detector evaluation, plain / CV / MCV estimates — and
//! accumulates one [`AggregateReport`] per window. A one-shot estimate over a
//! frame collection is the same estimator on one window spanning it
//! (`AggregateSpec::new(n, n)`).
//!
//! The estimator never touches the cost ledger itself: it reports its
//! detector work (sampled estimation and calibration annotation separately)
//! back to the plan, which charges it, keeping the
//! sum-of-stage-rows-equals-ledger-total invariant intact.

use crate::cv::CvEstimate;
use crate::linalg::{variance, Moments};
use crate::mcv::McvEstimate;
use crate::queries::AggregateReport;
use crate::sampler::{FrameSampler, SampleScratch};
use vmq_detect::{CostLedger, Detector};
use vmq_query::{select_cv_backend, CvBackendChoice, CvCandidate, Query, WindowCharge, WindowData, WindowEstimator};
use vmq_video::Frame;

/// Streaming per-window aggregate estimator: consumes an aggregate
/// statement's completed hopping windows and produces one
/// [`AggregateReport`] per window.
///
/// With a single filter backend (or without
/// [`WindowedAggregator::with_adaptive_backend`]) the first backend's
/// indicators are used for every window. Window 0 draws trial keys
/// `0..trials`, so a one-window run reproduces the one-shot estimates the
/// executor golden pins (`tests/golden/executor_runs.txt`).
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
                prefix_verdicts = window.frames[..k]
                    .iter()
                    .map(|f| self.query.matches_detections(&detector.detect_shared(f)))
                    .collect();
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

        // 2. Run the trial engine. Window 0 uses trial keys 0..trials; later
        //    windows shift their keys into a disjoint range.
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

/// The per-window trial loop: given the window's frames and its pre-computed
/// indicator columns, repeatedly samples frames, looks up the expensive
/// detector's verdict on the samples and computes the plain / CV / MCV
/// estimates.
struct TrialEngine<'a> {
    /// The frame-level query whose frequency is estimated.
    query: &'a Query,
    /// Deterministic sampler; trial keys are offset per window.
    sampler: &'a FrameSampler,
    /// Frames evaluated by the detector per trial.
    sample_size: usize,
    /// Number of independent estimation trials.
    trials: usize,
}

impl TrialEngine<'_> {
    /// Runs the trials over one non-empty window. `x_full` / `z_full` are
    /// the cascade and per-predicate indicator columns over the whole
    /// window; `trial_offset` disambiguates sampler keys between windows (0
    /// for the first window, `index << 32` for later ones). `known_prefix`
    /// holds the detector's verdict on the window's leading frames where the
    /// caller already paid for it (the adaptive calibration prefix; empty
    /// otherwise). Returns the report (cost and provenance fields left for
    /// the caller) plus the as-if-isolated detector bill, `trials ×
    /// min(sample_size, n)`.
    ///
    /// The expensive variable `Y` is evaluated once per distinct sampled
    /// frame: a per-window truth column is filled at a frame's first
    /// sampling, so the detector sees exactly the union of the sampled
    /// frames, in first-touch order, and never an unsampled one. A trial is
    /// then a gather of `y` / `x` / `z` at the sampled indices — the same
    /// operands in the same order as a per-trial detector call would
    /// produce, hence bit-identical estimates. One [`Moments`] pass over the
    /// gathered series serves both the CV and the MCV fit.
    fn estimate_window(
        &self,
        frames: &[Frame],
        x_full: &[f64],
        z_full: &[Vec<f64>],
        detector: &dyn Detector,
        trial_offset: u64,
        known_prefix: &[bool],
    ) -> (AggregateReport, u64) {
        debug_assert!(!frames.is_empty(), "callers guard against empty windows");
        let n = frames.len();
        let mu_x = x_full.iter().sum::<f64>() / n as f64;
        let mu_z: Vec<f64> = z_full.iter().map(|s| s.iter().sum::<f64>() / n as f64).collect();

        // Ground truth for reporting.
        let true_fraction = frames.iter().filter(|f| self.query.matches_ground_truth(f)).count() as f64 / n as f64;

        // The detector's verdict per window frame; `None` until first sampled.
        let mut truth: Vec<Option<bool>> = known_prefix.iter().map(|&verdict| Some(verdict)).collect();
        truth.resize(n, None);

        let mut plain_means = Vec::with_capacity(self.trials);
        let mut cv_means = Vec::with_capacity(self.trials);
        let mut mcv_means = Vec::with_capacity(self.trials);
        let mut correlations = Vec::with_capacity(self.trials);
        let mut detector_frames = 0u64;
        // Draw, gather and moment buffers, reused across trials. The
        // moment pass reads `y`, then `x`, then the `z` series.
        let per_trial = self.sample_size.min(n);
        let mut scratch = SampleScratch::default();
        let mut idx = Vec::with_capacity(per_trial);
        let mut y = Vec::with_capacity(per_trial);
        let mut controls: Vec<Vec<f64>> = vec![Vec::with_capacity(per_trial); 1 + z_full.len()];
        let mut moments = Moments::default();
        for trial in 0..self.trials {
            self.sampler.sample_into(n, self.sample_size, trial_offset | trial as u64, &mut scratch, &mut idx);
            detector_frames += idx.len() as u64;
            y.clear();
            for &i in &idx {
                let verdict =
                    *truth[i].get_or_insert_with(|| self.query.matches_detections(&detector.detect_shared(&frames[i])));
                y.push(if verdict { 1.0 } else { 0.0 });
            }
            for (series, full) in
                controls.iter_mut().zip(std::iter::once(x_full).chain(z_full.iter().map(Vec::as_slice)))
            {
                series.clear();
                series.extend(idx.iter().map(|&i| full[i]));
            }
            moments.compute(&y, &controls);
            let cv = CvEstimate::from_moments(&moments, 1, mu_x);
            let mcv = McvEstimate::from_moments(&moments, 2, &mu_z);
            plain_means.push(cv.plain.mean);
            cv_means.push(cv.mean);
            mcv_means.push(mcv.mean);
            correlations.push(cv.correlation);
        }

        // Window-level model selection for the multi-control estimator: the
        // MCV family *nests* the single-CV model (the conjunction control is
        // one of its columns), and with graded — never-constant — predicate
        // columns the full d+1-coefficient fit pays real estimation noise on
        // a small per-trial sample. Keep whichever nested fit produced the
        // tighter trial series; both are unbiased, so this is pure
        // variance-targeted selection and it makes "MCV never loses to the
        // single CV" hold by construction rather than by luck. Single-control
        // windows are untouched (both fits are the same OLS there).
        let mcv_means =
            if z_full.len() > 1 && variance(&mcv_means) > variance(&cv_means) { cv_means.clone() } else { mcv_means };

        let report = AggregateReport {
            query: self.query.name.clone(),
            trials: self.trials,
            sample_size: per_trial,
            window_frames: n,
            true_fraction,
            plain_mean: mean(&plain_means),
            cv_mean: mean(&cv_means),
            mcv_mean: mean(&mcv_means),
            plain_variance: variance(&plain_means),
            cv_variance: variance(&cv_means),
            mcv_variance: variance(&mcv_means),
            mean_correlation: mean(&correlations),
            time_per_sample_ms: 0.0,
            window_index: 0,
            window_start: 0,
            backend: String::new(),
        };
        (report, detector_frames)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
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

    /// The one-shot estimate: `query` over one window spanning all of
    /// `frames`. Returns the report and the run's private ledger.
    fn one_window(
        query: Query,
        frames: &[Frame],
        filter: &dyn FrameFilter,
        sample_size: usize,
        trials: usize,
        seed: u64,
    ) -> (AggregateReport, CostLedger) {
        let n = frames.len();
        let mut agg = WindowedAggregator::new(query.clone(), sample_size, trials, seed);
        let exec = QueryExecutor::new(query);
        let ledger = exec.ledger().clone();
        exec.run_aggregate(frames, AggregateSpec::new(n, n), &[filter], &OracleDetector::perfect(), &mut agg);
        let [report] = agg.reports() else { panic!("one window over the whole stream") };
        (report.clone(), ledger)
    }

    #[test]
    fn cv_reduces_variance_for_correlated_query() {
        let (ds, filter, _oracle) = setup(400);
        let (report, _) = one_window(Query::paper_a1(), ds.test(), &filter, 40, 100, 7);
        assert!(report.plain_variance > 0.0, "plain estimator should have nonzero variance");
        assert!(
            report.best_reduction() > 2.0,
            "control variates should reduce variance: plain {} cv {} mcv {}",
            report.plain_variance,
            report.cv_variance,
            report.mcv_variance
        );
        // estimates stay close to the truth
        assert!((report.plain_mean - report.true_fraction).abs() < 0.1);
        assert!((report.cv_mean - report.true_fraction).abs() < 0.1);
        assert!((report.mcv_mean - report.true_fraction).abs() < 0.1);
        assert!(report.mean_correlation > 0.5);
        // per-sample cost is filter + detector
        assert!((report.time_per_sample_ms - 201.9).abs() < 1e-9);
        assert!(report.table_row().contains("a1"));
    }

    #[test]
    fn mcv_handles_multi_predicate_queries() {
        // The paper-scale claim: for a multi-predicate aggregate (a3: exactly
        // three objects, a car lower-left, a bus upper-left) the control
        // variates reduce variance and MCV never loses to the single-CV
        // estimator. DeTRAC is sparsified exactly like the Table III/IV
        // goldens do — at the paper's 15.8 objects/frame density "exactly
        // three objects" has an empty answer set at this scale and every
        // comparison would be vacuous.
        let mut profile = DatasetProfile::detrac();
        profile.mean_objects = 3.0;
        profile.std_objects = 1.2;
        profile.classes[0].fraction = 0.58;
        profile.classes[1].fraction = 0.38;
        profile.classes[2].fraction = 0.04;
        profile.count_reversion = 0.5;
        let ds = Dataset::generate(&profile, 32, 400, 31);
        let filter = CalibratedFilter::new(profile.class_list(), 16, CalibrationProfile::od_like(), 9);
        let (mut plain_sum, mut cv_sum, mut mcv_sum) = (0.0, 0.0, 0.0);
        for seed in [13, 17, 21, 29, 43] {
            let (report, _) = one_window(Query::paper_a3(), ds.test(), &filter, 60, 80, seed);
            assert!(report.mcv_variance.is_finite());
            assert!((report.mcv_mean - report.true_fraction).abs() < 0.05, "MCV stays unbiased");
            plain_sum += report.plain_variance;
            cv_sum += report.cv_variance;
            mcv_sum += report.mcv_variance;
        }
        assert!(
            mcv_sum <= cv_sum,
            "MCV must not lose to single-CV on a multi-predicate query: mcv {mcv_sum} vs cv {cv_sum}"
        );
        assert!(
            plain_sum / mcv_sum > 1.0,
            "control variates must reduce variance at paper scale: plain {plain_sum} vs mcv {mcv_sum}"
        );
    }

    #[test]
    fn ledger_charges_filter_over_window_and_detector_over_samples() {
        let (ds, filter, _oracle) = setup(150);
        let trials = 5;
        let (_, ledger) = one_window(Query::paper_a1(), ds.test(), &filter, 20, trials, 3);
        assert_eq!(ledger.invocations(vmq_detect::Stage::OdFilter) as usize, ds.test().len());
        assert_eq!(ledger.invocations(vmq_detect::Stage::MaskRcnn) as usize, 20 * trials);
    }
}
