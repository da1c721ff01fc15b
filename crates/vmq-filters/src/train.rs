//! Convenience training entry point: trains all three filter families for a
//! dataset with the same annotator, as Sec. IV does per dataset.

use crate::cof::CofFilter;
use crate::config::FilterConfig;
use crate::estimate::{FilterEstimate, FrameFilter};
use crate::ic::IcFilter;
use crate::label::{label_frames, FrameLabels};
use crate::od::OdFilter;
use vmq_detect::Detector;
use vmq_video::{Dataset, Frame};

/// The three filter families trained on one dataset.
pub struct TrainedFilters {
    /// The IC filter (IC-CF / IC-CCF / IC-CLF estimates).
    pub ic: IcFilter,
    /// The OD filter (OD-CF / OD-CCF / OD-CLF estimates).
    pub od: OdFilter,
    /// The OD-COF count-only filter.
    pub cof: CofFilter,
    /// Labels of the training split (kept for inspection).
    pub train_labels: Vec<FrameLabels>,
}

impl TrainedFilters {
    /// Annotates the training split with `annotator` (the Mask R-CNN stand-in)
    /// and trains the IC, OD and OD-COF filters.
    pub fn train(dataset: &Dataset, config: &FilterConfig, annotator: &dyn Detector) -> Self {
        let labels = label_frames(dataset.train(), annotator, &config.classes, config.grid);
        let mut ic = IcFilter::new(config.clone());
        let mut od = OdFilter::new(config.clone());
        let mut cof = CofFilter::new(config.clone());
        ic.train(dataset.train(), &labels);
        od.train(dataset.train(), &labels);
        cof.train(dataset.train(), &labels);
        TrainedFilters { ic, od, cof, train_labels: labels }
    }

    /// Trains only the IC and OD filters (skipping OD-COF), which is enough
    /// for the query and aggregate experiments.
    pub fn train_ic_od(dataset: &Dataset, config: &FilterConfig, annotator: &dyn Detector) -> Self {
        let labels = label_frames(dataset.train(), annotator, &config.classes, config.grid);
        let mut ic = IcFilter::new(config.clone());
        let mut od = OdFilter::new(config.clone());
        let cof = CofFilter::new(config.clone());
        ic.train(dataset.train(), &labels);
        od.train(dataset.train(), &labels);
        TrainedFilters { ic, od, cof, train_labels: labels }
    }

    /// Evaluates a filter over a set of frames, returning one estimate per
    /// frame.
    pub fn evaluate(filter: &dyn FrameFilter, frames: &[Frame]) -> Vec<FilterEstimate> {
        frames.iter().map(|f| filter.estimate(f)).collect()
    }

    /// Labels an evaluation split with the same annotator and grid size used
    /// for training, for metric computation.
    pub fn label_split(&self, frames: &[Frame], annotator: &dyn Detector, config: &FilterConfig) -> Vec<FrameLabels> {
        label_frames(frames, annotator, &config.classes, config.grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CountMetrics;
    use vmq_detect::OracleDetector;
    use vmq_video::DatasetProfile;

    #[test]
    fn trains_all_three_families_and_beats_chance() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 80, 30, 11);
        let mut config = FilterConfig::fast_test(profile.class_list());
        config.schedule.epochs = 3;
        config.schedule.count_only_epochs = 1;
        let oracle = OracleDetector::perfect();
        let trained = TrainedFilters::train(&ds, &config, &oracle);

        assert!(!trained.ic.history().is_empty());
        assert!(!trained.od.history().is_empty());
        assert!(!trained.cof.history().is_empty());
        assert_eq!(trained.train_labels.len(), ds.train().len());

        let test_labels = trained.label_split(ds.test(), &oracle, &config);
        let ic_est = TrainedFilters::evaluate(&trained.ic, ds.test());
        let metrics = CountMetrics::total_count(&ic_est, &test_labels);
        // Jackson averages ~1.2 objects/frame, so the ±2 band is generous; an
        // even minimally trained filter must land most frames inside it.
        assert!(metrics.within_two > 0.5, "IC within-two accuracy {metrics:?}");
    }

    /// A schedule literal may say batch size 0: every filter trains it as
    /// batch size 1, to the same weights and losses, bit for bit.
    #[test]
    fn zero_batch_size_trains_like_batch_one() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 6, 0, 4);
        let oracle = OracleDetector::perfect();
        let run = |batch_size| {
            let mut config = FilterConfig::fast_test(profile.class_list());
            (config.schedule.epochs, config.schedule.batch_size) = (1, batch_size);
            let labels = label_frames(ds.train(), &oracle, &config.classes, config.grid);
            let bits = |h: Vec<vmq_nn::train::EpochStats>| h.iter().map(|e| e.mean_loss.to_bits()).collect::<Vec<_>>();
            let (mut ic, mut od, mut cof) =
                (IcFilter::new(config.clone()), OdFilter::new(config.clone()), CofFilter::new(config));
            let losses = [ic.train(ds.train(), &labels), od.train(ds.train(), &labels), cof.train(ds.train(), &labels)];
            (losses.map(bits), [ic.param_digest(), od.param_digest(), cof.param_digest()])
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn train_ic_od_skips_cof() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 40, 10, 3);
        let mut config = FilterConfig::fast_test(profile.class_list());
        config.schedule.epochs = 1;
        let oracle = OracleDetector::perfect();
        let trained = TrainedFilters::train_ic_od(&ds, &config, &oracle);
        assert!(!trained.ic.history().is_empty());
        assert!(trained.cof.history().is_empty(), "COF should stay untrained");
    }
}
