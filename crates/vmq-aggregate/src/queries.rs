//! The per-window aggregate report (Sec. III / IV-C, one Table IV row).
//!
//! The estimated quantity is the fraction (equivalently the number) of frames
//! in a window that satisfy a frame-level query. The expensive variable `Y`
//! is the detector-based indicator evaluated on *sampled* frames only; the
//! cheap control variates are filter-based indicators. Because the filters
//! cost ~2 ms/frame versus 200 ms/frame for the detector, their indicator —
//! and therefore the control mean `μ_X` — can be computed over the *entire*
//! window, which is what gives the control-variate estimator its variance
//! reduction. Each window is estimated repeatedly (the paper uses one hundred
//! trials) and the empirical variance across trials of the plain, single-CV
//! and multiple-CV estimators is compared. The estimation itself is
//! [`WindowedAggregator`](crate::WindowedAggregator); a one-shot estimate is
//! a window spanning the whole stream (`AggregateSpec::new(n, n)`).

use serde::{Deserialize, Serialize};

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
    /// Zero-based index of the window within the stream.
    pub window_index: usize,
    /// Stream offset of the window's first frame.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
