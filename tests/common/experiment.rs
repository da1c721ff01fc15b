//! One trained-filter fixture per dataset profile, at one fixed size.
//!
//! [`DatasetExperiment::prepare`] materialises a dataset and trains its
//! filters at the documented experiment size (400 training frames, 400 test
//! frames, four epochs of which the first two are count-only, dataset seed
//! 2026), then labels the test split with the oracle so metrics can be
//! computed against it.

use vmq::detect::OracleDetector;
use vmq::filters::{label::FrameLabels, FilterConfig, TrainedFilters};
use vmq::video::{Dataset, DatasetProfile};

/// Training frames per dataset.
const TRAIN_FRAMES: usize = 400;
/// Test frames per dataset.
const TEST_FRAMES: usize = 400;
/// Training epochs; the first half train the count head only.
const EPOCHS: usize = 4;
/// Seed of every fixture's dataset.
const DATASET_SEED: u64 = 2026;

/// Everything needed to run an experiment on one dataset: the materialised
/// data, the filter configuration, the trained filters and test-split labels.
pub struct DatasetExperiment {
    /// The dataset profile (a Table II row, or a density-tuned variant).
    pub profile: DatasetProfile,
    /// The materialised dataset.
    pub dataset: Dataset,
    /// The filter configuration used for training.
    pub config: FilterConfig,
    /// The trained IC / OD filters, plus OD-COF when asked for.
    pub filters: TrainedFilters,
    /// Oracle labels of the test split (for metric computation).
    pub test_labels: Vec<FrameLabels>,
}

impl DatasetExperiment {
    /// Generates the dataset and trains IC and OD on it, and OD-COF too
    /// when `with_cof` is set.
    pub fn prepare(profile: DatasetProfile, with_cof: bool) -> Self {
        let dataset = Dataset::generate(&profile, TRAIN_FRAMES, TEST_FRAMES, DATASET_SEED);
        let mut config = FilterConfig::experiment(profile.class_list());
        config.schedule.epochs = EPOCHS;
        config.schedule.count_only_epochs = EPOCHS / 2;
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
