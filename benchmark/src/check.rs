//! The reference check and the operating-point guards. Every statement's
//! output is compared with a naive reference, and every select must sit at an
//! intermediate operating point; a violation is a failed operation, not a
//! warning.

use vmq_aggregate::AggregateReport;
use vmq_query::QueryExecutor;

use vmq_video::Frame;

use crate::metrics::{median, quantile};
use crate::pass::{PassOutcome, Shape, Statement, HEAVY_TRIALS};

/// A select's cascade pass rate must lie in this band: outside it the
/// virtual cost saturates (a filter that passes nothing or everything).
pub const PASS_RATE_BAND: (f64, f64) = (0.05, 0.90);
/// A select's reference must hold at least this many frames for its recall
/// to mean anything.
pub const MIN_TRUE_FRAMES: usize = 50;
/// Detector invocations ÷ camera-frames of a select-bearing workload, so
/// `virtual_ms_per_frame` sits well inside 2–200 ms and can move either way.
pub const DETECTOR_SHARE_BAND: (f64, f64) = (0.10, 0.85);
/// A 100-trial window whose true fraction is outside this band has no
/// variance to reduce.
pub const TRUE_FRACTION_BAND: (f64, f64) = (0.02, 0.98);
/// A 100-trial mean further than this many standard errors from the
/// window's true fraction disagrees with the reference.
pub const MAX_STANDARD_ERRORS: f64 = 4.0;

#[derive(Default)]
pub struct Findings {
    /// Statements compared with the reference.
    pub checked: u64,
    pub failures: Vec<String>,
    /// Recall of each select against its ground truth.
    pub recalls: Vec<f64>,
    /// Cascade pass rate of each select.
    pub pass_rates: Vec<f64>,
    /// Variance reduction of each 100-trial aggregate statement, pooled over
    /// its windows: mean plain variance ÷ mean best control-variate variance.
    /// One window's ratio of two 100-trial variances is good to about 15 %,
    /// too loose to compare runs with; the pooled ratio tightens with the
    /// window count.
    pub cv_reductions: Vec<f64>,
    /// The same ratio of each single 100-trial window.
    pub window_cv_reductions: Vec<f64>,
    /// Mean filter–detector correlation of each 100-trial window.
    pub correlations: Vec<f64>,
    /// True frames of each select's reference.
    pub true_frames: Vec<usize>,
    /// Detector invocations ÷ camera-frames, where the guard applies.
    pub detector_share: Option<f64>,
}

impl Findings {
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    pub fn absorb(&mut self, other: Findings) {
        self.checked += other.checked;
        self.failures.extend(other.failures);
        self.recalls.extend(other.recalls);
        self.pass_rates.extend(other.pass_rates);
        self.cv_reductions.extend(other.cv_reductions);
        self.window_cv_reductions.extend(other.window_cv_reductions);
        self.correlations.extend(other.correlations);
        self.true_frames.extend(other.true_frames);
        self.detector_share = self.detector_share.or(other.detector_share);
    }

    /// The three quality metrics every workload reports besides its bill:
    /// worst select recall, and the worst and the median pooled variance
    /// reduction.
    pub fn quality_values(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("select_recall_min", quantile(&self.recalls, 0.0)),
            ("cv_reduction_min", quantile(&self.cv_reductions, 0.0)),
            ("cv_reduction_median", median(&self.cv_reductions)),
        ]
    }

    /// One line on where the operating points sit, for the run's output.
    pub fn summary(&self) -> String {
        let range = |v: &[f64]| match v {
            [] => "none".to_string(),
            _ => format!("{:.3}-{:.3}", quantile(v, 0.0), quantile(v, 1.0)),
        };
        format!(
            "checked {} statements: {} selects (pass rate {}, recall {}, fewest true frames {}), \
             {} many-trial windows (reduction {}), detector share {}",
            self.checked,
            self.recalls.len(),
            range(&self.pass_rates),
            range(&self.recalls),
            self.true_frames.iter().min().copied().unwrap_or(0),
            self.window_cv_reductions.len(),
            range(&self.window_cv_reductions),
            self.detector_share.map_or("not guarded".to_string(), |s| format!("{s:.3}")),
        )
    }

    fn band(&mut self, what: &str, value: f64, (lo, hi): (f64, f64)) {
        if !(lo..=hi).contains(&value) {
            self.fail(format!("{what} = {value:.4} is outside [{lo}, {hi}]"));
        }
    }

    /// One select against its reference: nothing reported that the reference
    /// does not contain, recall recorded, operating point inside the guards.
    /// `matched` and `truth` are ascending frame ids.
    pub fn select(&mut self, name: &str, matched: &[u64], truth: &[u64], passed: usize, frames: usize) {
        self.checked += 1;
        let hits = matched.iter().filter(|id| truth.binary_search(id).is_ok()).count();
        if hits != matched.len() {
            self.fail(format!("select {name} reports {} frames the reference does not contain", matched.len() - hits));
        }
        self.operating_point(name, hits, truth.len(), passed, frames);
    }

    /// Records a select's recall and pass rate and applies the guards:
    /// enough true frames for recall to mean something, and a pass rate that
    /// neither starves nor floods the detector.
    pub fn operating_point(&mut self, name: &str, hits: usize, truth: usize, passed: usize, frames: usize) {
        if truth < MIN_TRUE_FRAMES {
            self.fail(format!("select `{name}` has {truth} true frames, fewer than {MIN_TRUE_FRAMES}"));
        }
        self.true_frames.push(truth);
        self.recalls.push(hits as f64 / truth.max(1) as f64);
        let pass_rate = passed as f64 / frames.max(1) as f64;
        self.band(&format!("select `{name}` pass rate"), pass_rate, PASS_RATE_BAND);
        self.pass_rates.push(pass_rate);
    }

    /// One aggregate statement's windows against the reference.
    pub fn aggregate(&mut self, name: &str, reports: &[AggregateReport], expected_windows: usize) {
        self.checked += 1;
        if reports.len() != expected_windows {
            self.fail(format!("aggregate {name} emitted {} windows, expected {expected_windows}", reports.len()));
        }
        let (mut plain, mut reduced) = (0.0, 0.0);
        for report in reports {
            let at = format!("aggregate {name} window {}", report.window_index);
            let estimates = [report.plain_mean, report.cv_mean, report.mcv_mean];
            if !(0.0..=1.0).contains(&report.plain_mean) || estimates.iter().any(|e| !e.is_finite()) {
                self.fail(format!("{at} has an estimate outside [0, 1]: {estimates:?}"));
            }
            if report.trials < HEAVY_TRIALS {
                continue;
            }
            self.band(&format!("{at} true fraction"), report.true_fraction, TRUE_FRACTION_BAND);
            let standard_error = (report.plain_variance / report.trials as f64).sqrt();
            let off = (report.plain_mean - report.true_fraction).abs();
            if off > MAX_STANDARD_ERRORS * standard_error {
                self.fail(format!(
                    "{at} trial mean {:.4} is {:.1} standard errors from the true fraction {:.4}",
                    report.plain_mean,
                    off / standard_error,
                    report.true_fraction
                ));
            }
            plain += report.plain_variance;
            reduced += report.cv_variance.min(report.mcv_variance);
            self.window_cv_reductions.push(report.best_reduction());
            self.correlations.push(report.mean_correlation);
        }
        if reduced > 0.0 {
            self.cv_reductions.push(plain / reduced);
        }
    }

    pub fn detector_share(&mut self, detector_frames: u64, camera_frames: u64) {
        let share = detector_frames as f64 / camera_frames as f64;
        self.band("detector share", share, DETECTOR_SHARE_BAND);
        self.detector_share = Some(share);
    }
}

/// Checks every statement of a single-camera pass over `stream` against the
/// reference.
pub fn check_pass(stream: &[Frame], statements: &[Statement], outcome: &PassOutcome) -> Findings {
    let mut findings = Findings::default();
    let frames = stream.len();
    for ((statement, run), reports) in statements.iter().zip(&outcome.runs).zip(&outcome.reports) {
        match statement.shape {
            Shape::Select { .. } | Shape::Adaptive { .. } => {
                let truth = QueryExecutor::new(statement.query.clone()).ground_truth(stream);
                findings.select(&statement.name, &run.matched_frames, &truth, run.frames_passed_filter, frames);
            }
            Shape::Aggregate { window, .. } => findings.aggregate(&statement.name, reports, frames / window),
        }
    }
    findings
}
