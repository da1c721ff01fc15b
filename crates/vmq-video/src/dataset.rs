//! Materialised datasets with train / validation / test splits.
//!
//! The paper partitions each video into train, validation and test sets
//! (Sec. IV); this module does the same for simulated streams. Frames are
//! generated in temporal order and split contiguously, mirroring how the
//! paper splits ordered video sequences rather than shuffling frames.

use crate::profile::{DatasetKind, DatasetProfile};
use crate::scene::{Scene, SceneConfig};
use crate::stream::{Frame, FrameStream};
use serde::{Deserialize, Serialize};

/// Which split of a dataset to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Split {
    /// Training frames (filters are fitted on these).
    Train,
    /// Validation frames (early stopping / threshold selection).
    Validation,
    /// Test frames (all reported metrics).
    Test,
}

/// A materialised dataset: frames split into train / validation / test.
#[derive(Debug, Clone)]
pub struct Dataset {
    kind: DatasetKind,
    profile: DatasetProfile,
    train: Vec<Frame>,
    validation: Vec<Frame>,
    test: Vec<Frame>,
}

impl Dataset {
    /// Generates a dataset for a profile.
    ///
    /// `train_size` and `test_size` are the number of frames to materialise;
    /// a validation split of 10 % of `train_size` is generated after the
    /// training frames. `seed` makes generation deterministic.
    pub fn generate(profile: &DatasetProfile, train_size: usize, test_size: usize, seed: u64) -> Self {
        let val_size = (train_size / 10).max(16);
        let total = train_size + val_size + test_size;
        let scene = Scene::new(SceneConfig::from_profile(profile), seed);
        let mut frames: Vec<Frame> = FrameStream::with_length(scene, total as u64).collect();
        let test = frames.split_off(train_size + val_size);
        let validation = frames.split_off(train_size);
        Dataset { kind: profile.kind, profile: profile.clone(), train: frames, validation, test }
    }

    /// The dataset kind.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// The profile the dataset was generated from.
    pub fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    /// Frames of a split.
    pub fn split(&self, split: Split) -> &[Frame] {
        match split {
            Split::Train => &self.train,
            Split::Validation => &self.validation,
            Split::Test => &self.test,
        }
    }

    /// Training frames.
    pub fn train(&self) -> &[Frame] {
        &self.train
    }

    /// Validation frames.
    pub fn validation(&self) -> &[Frame] {
        &self.validation
    }

    /// Test frames.
    pub fn test(&self) -> &[Frame] {
        &self.test
    }

    /// Total number of materialised frames.
    pub fn len(&self) -> usize {
        self.train.len() + self.validation.len() + self.test.len()
    }

    /// True when no frames were materialised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_have_requested_sizes() {
        let ds = Dataset::generate(&DatasetProfile::jackson(), 100, 40, 1);
        assert_eq!(ds.train().len(), 100);
        assert_eq!(ds.test().len(), 40);
        assert_eq!(ds.validation().len(), 16);
        assert_eq!(ds.len(), 100 + 16 + 40);
        assert!(!ds.is_empty());
    }

    #[test]
    fn splits_are_temporally_ordered_and_disjoint() {
        let ds = Dataset::generate(&DatasetProfile::jackson(), 50, 20, 2);
        let last_train = ds.train().last().unwrap().frame_id;
        let first_val = ds.validation().first().unwrap().frame_id;
        let last_val = ds.validation().last().unwrap().frame_id;
        let first_test = ds.test().first().unwrap().frame_id;
        assert!(last_train < first_val);
        assert!(last_val < first_test);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(&DatasetProfile::coral(), 30, 10, 5);
        let b = Dataset::generate(&DatasetProfile::coral(), 30, 10, 5);
        assert_eq!(a.train()[3].objects.len(), b.train()[3].objects.len());
        assert_eq!(a.test()[5].objects.len(), b.test()[5].objects.len());
    }

    #[test]
    fn generate_scaled_uses_profile_sizes() {
        let profile = DatasetProfile::jackson();
        let (train, test) = profile.scaled(100);
        let ds = Dataset::generate(&profile, train, test, 3);
        assert_eq!(ds.train().len(), train);
        assert_eq!(ds.test().len(), test);
        assert_eq!(ds.kind(), DatasetKind::Jackson);
        assert_eq!(ds.profile().kind, DatasetKind::Jackson);
    }

    #[test]
    fn split_accessor_matches_named_accessors() {
        let ds = Dataset::generate(&DatasetProfile::detrac(), 40, 20, 9);
        assert_eq!(ds.split(Split::Train).len(), ds.train().len());
        assert_eq!(ds.split(Split::Validation).len(), ds.validation().len());
        assert_eq!(ds.split(Split::Test).len(), ds.test().len());
    }
}
