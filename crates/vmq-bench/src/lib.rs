//! # vmq-bench — experiment harnesses
//!
//! One benchmark target per table and figure of the paper's evaluation
//! (Sec. IV), plus ablation studies and Criterion micro-benchmarks. Every
//! harness prints the same rows/series the paper reports so results can be
//! compared side by side; they assert nothing. The gated performance
//! numbers come from the end-to-end benchmark in `benchmark/`.
//!
//! The harnesses honour the `VMQ_SCALE` environment variable:
//!
//! * `quick` — very small datasets / few epochs, for smoke-testing the
//!   harness wiring (~seconds per experiment).
//! * `default` (unset) — the documented experiment scale (tens of seconds to
//!   a couple of minutes per experiment on one CPU core).
//! * `full` — larger datasets and more epochs, closer to the paper's scale.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use vmq_detect::OracleDetector;
use vmq_filters::{label::FrameLabels, FilterConfig, TrainedFilters};
use vmq_video::{Dataset, DatasetKind, DatasetProfile};

pub mod drift;

/// Experiment scale selected by the `VMQ_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale.
    Quick,
    /// Default experiment scale.
    Default,
    /// Larger, closer-to-paper scale.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("VMQ_SCALE").unwrap_or_default().to_ascii_lowercase().as_str() {
            "quick" => Scale::Quick,
            "full" => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// Number of training frames per dataset at this scale.
    pub fn train_frames(self) -> usize {
        match self {
            Scale::Quick => 80,
            Scale::Default => 400,
            Scale::Full => 1200,
        }
    }

    /// Number of test frames per dataset at this scale.
    pub fn test_frames(self) -> usize {
        match self {
            Scale::Quick => 120,
            Scale::Default => 400,
            Scale::Full => 1000,
        }
    }

    /// Number of training epochs at this scale.
    pub fn epochs(self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Default => 4,
            Scale::Full => 8,
        }
    }

    /// Number of aggregate-estimation trials at this scale.
    pub fn trials(self) -> usize {
        match self {
            Scale::Quick => 25,
            Scale::Default => 100,
            Scale::Full => 100,
        }
    }
}

/// Everything needed to run an experiment on one dataset: the materialised
/// data, the filter configuration, the trained filters and test-split labels.
pub struct DatasetExperiment {
    /// The dataset profile (Table II row).
    pub profile: DatasetProfile,
    /// The materialised dataset.
    pub dataset: Dataset,
    /// The filter configuration used for training.
    pub config: FilterConfig,
    /// The trained IC / OD / OD-COF filters.
    pub filters: TrainedFilters,
    /// Oracle labels of the test split (for metric computation).
    pub test_labels: Vec<FrameLabels>,
}

impl DatasetExperiment {
    /// Generates the dataset and trains all filters for one benchmark dataset.
    pub fn prepare(kind: DatasetKind, scale: Scale) -> Self {
        Self::prepare_inner(kind, scale, true)
    }

    /// Like [`DatasetExperiment::prepare`] but only trains IC and OD (used by
    /// experiments that do not involve OD-COF).
    pub fn prepare_ic_od(kind: DatasetKind, scale: Scale) -> Self {
        Self::prepare_inner(kind, scale, false)
    }

    /// Like [`DatasetExperiment::prepare_ic_od`] but over an explicit
    /// (typically density-tuned) dataset profile instead of the stock
    /// profile of the dataset kind.
    pub fn prepare_ic_od_with_profile(profile: DatasetProfile, scale: Scale) -> Self {
        Self::prepare_profile_inner(profile, scale, false)
    }

    fn prepare_inner(kind: DatasetKind, scale: Scale, with_cof: bool) -> Self {
        Self::prepare_profile_inner(DatasetProfile::for_kind(kind), scale, with_cof)
    }

    fn prepare_profile_inner(profile: DatasetProfile, scale: Scale, with_cof: bool) -> Self {
        let dataset = Dataset::generate(&profile, scale.train_frames(), scale.test_frames(), 2026);
        let mut config = FilterConfig::experiment(profile.class_list());
        config.schedule.epochs = scale.epochs();
        config.schedule.count_only_epochs = (scale.epochs() / 2).max(1);
        let oracle = OracleDetector::perfect();
        let filters = if with_cof {
            TrainedFilters::train(&dataset, &config, &oracle)
        } else {
            TrainedFilters::train_ic_od(&dataset, &config, &oracle)
        };
        let test_labels = filters.label_split(dataset.test(), &oracle, &config);
        DatasetExperiment { profile, dataset, config, filters, test_labels }
    }

    /// Dataset display name.
    pub fn name(&self) -> &'static str {
        self.profile.kind.name()
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f32) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Per-query dataset profiles for the aggregate harnesses, density-tuned
/// the same way the Table IV golden (`tests/table4_aggregates.rs`) tunes
/// them so every aggregate query has a non-degenerate true fraction at
/// bench scale. At the stock densities several queries (a2, a3, a5) are
/// vacuously false on every frame, which leaves the control-variate
/// indicator columns constant and the variance-reduction comparison inert —
/// exactly the degenerate rows the committed baseline used to carry.
pub fn aggregate_profile_for(query: &str) -> DatasetProfile {
    match query {
        // a1: car in the lower-right quadrant — the stock Jackson profile
        // already puts the true fraction near 0.25.
        "a1" => DatasetProfile::jackson(),
        // a2: car left of a person — Jackson's 1.2 objects/frame and 20 %
        // person share make co-occurrence too rare to estimate.
        "a2" => {
            let mut p = DatasetProfile::jackson();
            p.mean_objects = 3.5;
            p.std_objects = 1.2;
            p.classes[0].fraction = 0.55;
            p.classes[1].fraction = 0.45;
            p
        }
        // a3 / a4: DeTRAC at the paper's 15.8 objects/frame never has
        // "exactly three objects"; sparsify and raise the bus share, with a
        // fast-mixing count process so every window has true frames.
        "a3" | "a4" => {
            let mut p = DatasetProfile::detrac();
            p.mean_objects = 3.0;
            p.std_objects = 1.2;
            p.classes[0].fraction = 0.58;
            p.classes[1].fraction = 0.38;
            p.classes[2].fraction = 0.04;
            p.count_reversion = 0.5;
            p
        }
        // a5: exactly three people, two in the lower-left — Coral's mean of
        // 8.7 people/frame makes count-three frames vanishingly rare.
        "a5" => {
            let mut p = DatasetProfile::coral();
            p.mean_objects = 3.0;
            p.std_objects = 1.2;
            p.count_reversion = 0.5;
            p
        }
        other => panic!("unknown aggregate query {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_mappings_are_ordered() {
        assert!(Scale::Quick.train_frames() < Scale::Default.train_frames());
        assert!(Scale::Default.train_frames() < Scale::Full.train_frames());
        assert!(Scale::Quick.epochs() <= Scale::Default.epochs());
        assert!(Scale::Quick.test_frames() < Scale::Full.test_frames());
        assert_eq!(Scale::Default.trials(), 100);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn prepare_quick_dataset_experiment() {
        let exp = DatasetExperiment::prepare_ic_od(DatasetKind::Jackson, Scale::Quick);
        assert_eq!(exp.dataset.train().len(), Scale::Quick.train_frames());
        assert_eq!(exp.test_labels.len(), exp.dataset.test().len());
        assert!(!exp.filters.ic.history().is_empty());
        assert_eq!(exp.name(), "Jackson");
    }
}
