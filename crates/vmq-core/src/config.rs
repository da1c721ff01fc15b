//! Engine configuration.

use serde::{Deserialize, Serialize};
use vmq_filters::{CalibrationProfile, FilterConfig};
use vmq_query::CascadeConfig;
use vmq_video::DatasetProfile;

/// Which filter backs a query's cascade.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FilterChoice {
    /// The learned IC filter.
    Ic,
    /// The learned OD filter.
    Od,
    /// The learned count-only OD-COF filter (count predicates only).
    OdCof,
    /// A calibrated analytic filter with the given error profile (no training
    /// required; useful for fast experimentation and ablations).
    Calibrated(CalibrationProfile),
    /// The int8-quantized twin of the learned IC filter: cheaper per frame
    /// under the cost model and usually faster in wall-clock, but its
    /// estimates differ from the f32 filter's — the planner must certify it
    /// through its own recall calibration, never substitute it silently.
    IcInt8,
    /// The int8-quantized twin of the learned OD filter.
    OdInt8,
    /// The int8-quantized twin of the learned OD-COF filter.
    OdCofInt8,
}

/// Configuration of the adaptive planner's calibration phase: how much of
/// the stream to annotate with the expensive detector and which
/// `(backend × tolerance)` candidates to profile on it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Number of leading stream frames annotated with the expensive detector
    /// to form the calibration prefix.
    pub prefix_frames: usize,
    /// Candidate filter backends, profiled once each over the prefix.
    pub candidate_backends: Vec<FilterChoice>,
    /// Candidate cascade tolerances, each crossed with every backend.
    pub candidate_tolerances: Vec<CascadeConfig>,
}

impl CalibrationConfig {
    /// Calibration over the learned IC and OD filters (requires
    /// [`crate::VmqEngine::train_filters`]) with the full Table III tolerance
    /// lattice and a 48-frame prefix.
    pub fn learned() -> Self {
        CalibrationConfig {
            prefix_frames: 48,
            candidate_backends: vec![FilterChoice::Ic, FilterChoice::Od],
            candidate_tolerances: CascadeConfig::lattice(),
        }
    }

    /// Calibration over the learned IC and OD filters *and* their int8
    /// twins: the quantized candidates enter the same `(backend ×
    /// tolerance)` lattice with their cheaper cost-model prices, so the
    /// planner picks them exactly when their prefix recall certifies them —
    /// cheaper-but-riskier as a priced choice, not a silent substitution.
    pub fn learned_with_int8() -> Self {
        CalibrationConfig {
            prefix_frames: 48,
            candidate_backends: vec![FilterChoice::Ic, FilterChoice::Od, FilterChoice::IcInt8, FilterChoice::OdInt8],
            candidate_tolerances: CascadeConfig::lattice(),
        }
    }

    /// Calibration over calibrated analytic backends (no training needed):
    /// one profile per given backend, full tolerance lattice.
    pub fn calibrated(profiles: Vec<CalibrationProfile>) -> Self {
        CalibrationConfig {
            prefix_frames: 48,
            candidate_backends: profiles.into_iter().map(FilterChoice::Calibrated).collect(),
            candidate_tolerances: CascadeConfig::lattice(),
        }
    }

    /// Overrides the calibration prefix length.
    pub fn with_prefix(mut self, prefix_frames: usize) -> Self {
        self.prefix_frames = prefix_frames;
        self
    }

    /// Overrides the candidate tolerances.
    pub fn with_tolerances(mut self, tolerances: Vec<CascadeConfig>) -> Self {
        self.candidate_tolerances = tolerances;
        self
    }
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig::learned()
    }
}

/// Configuration of a [`crate::VmqEngine`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Dataset profile of the registered stream.
    pub profile: DatasetProfile,
    /// Number of training frames to materialise.
    pub train_frames: usize,
    /// Number of test frames to materialise.
    pub test_frames: usize,
    /// Filter architecture and training configuration.
    pub filter: FilterConfig,
    /// Seed controlling dataset generation.
    pub seed: u64,
}

impl EngineConfig {
    /// A small configuration suitable for tests and examples: a few hundred
    /// frames and the fast filter architecture.
    pub fn small(profile: DatasetProfile) -> Self {
        let filter = FilterConfig::fast_test(profile.class_list());
        EngineConfig { profile, train_frames: 120, test_frames: 200, filter, seed: 17 }
    }

    /// An experiment-size configuration: more frames and
    /// the experiment filter architecture (56-pixel raster).
    pub fn experiment(profile: DatasetProfile) -> Self {
        let filter = FilterConfig::experiment(profile.class_list());
        EngineConfig { profile, train_frames: 400, test_frames: 600, filter, seed: 17 }
    }

    /// Overrides the dataset sizes.
    pub fn with_sizes(mut self, train_frames: usize, test_frames: usize) -> Self {
        self.train_frames = train_frames;
        self.test_frames = test_frames;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.filter.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmq_video::ObjectClass;

    #[test]
    fn small_config_uses_profile_classes() {
        let c = EngineConfig::small(DatasetProfile::detrac());
        assert!(c.filter.classes.contains(&ObjectClass::Car));
        assert!(c.filter.classes.contains(&ObjectClass::Bus));
        assert!(c.train_frames > 0 && c.test_frames > 0);
    }

    #[test]
    fn builders() {
        let c = EngineConfig::small(DatasetProfile::jackson()).with_sizes(50, 60).with_seed(99);
        assert_eq!(c.train_frames, 50);
        assert_eq!(c.test_frames, 60);
        assert_eq!(c.seed, 99);
        assert_eq!(c.filter.seed, 99);
    }

    #[test]
    fn experiment_config_uses_larger_raster() {
        let c = EngineConfig::experiment(DatasetProfile::coral());
        assert_eq!(c.filter.raster.width, 56);
    }

    #[test]
    fn calibration_config_builders() {
        let learned = CalibrationConfig::learned();
        assert_eq!(learned.candidate_backends.len(), 2);
        assert_eq!(learned.candidate_tolerances.len(), 9);
        let custom = CalibrationConfig::calibrated(vec![CalibrationProfile::od_like()])
            .with_prefix(16)
            .with_tolerances(vec![CascadeConfig::tolerant()]);
        assert_eq!(custom.prefix_frames, 16);
        assert_eq!(custom.candidate_tolerances, vec![CascadeConfig::tolerant()]);
        assert!(matches!(custom.candidate_backends[0], FilterChoice::Calibrated(_)));
        assert_eq!(CalibrationConfig::default().prefix_frames, 48);
    }
}
