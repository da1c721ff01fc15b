//! Summary statistics over frame collections (reproduces Table II rows).

use crate::object::ObjectClass;
use crate::stream::Frame;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Summary statistics of a set of frames.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Number of frames summarised.
    pub frames: usize,
    /// Mean number of objects per frame.
    pub mean_objects: f32,
    /// Standard deviation of objects per frame.
    pub std_objects: f32,
    /// Maximum number of objects observed in a single frame.
    pub max_objects: usize,
    /// Fraction of frames with no objects at all.
    pub empty_fraction: f32,
    /// Per-class share of all object instances (sums to 1 when objects exist).
    pub class_shares: BTreeMap<ObjectClass, f32>,
    /// Per-class fraction of frames containing at least one instance.
    pub class_presence: BTreeMap<ObjectClass, f32>,
}

impl DatasetStats {
    /// Computes statistics over a slice of frames.
    pub fn compute(frames: &[Frame]) -> Self {
        let n = frames.len();
        if n == 0 {
            return DatasetStats {
                frames: 0,
                mean_objects: 0.0,
                std_objects: 0.0,
                max_objects: 0,
                empty_fraction: 0.0,
                class_shares: BTreeMap::new(),
                class_presence: BTreeMap::new(),
            };
        }
        let counts: Vec<usize> = frames.iter().map(|f| f.object_count()).collect();
        let mean = counts.iter().sum::<usize>() as f32 / n as f32;
        let var = counts.iter().map(|&c| (c as f32 - mean).powi(2)).sum::<f32>() / n as f32;
        let max = counts.iter().copied().max().unwrap_or(0);
        let empty = counts.iter().filter(|&&c| c == 0).count() as f32 / n as f32;

        let mut instances: BTreeMap<ObjectClass, usize> = BTreeMap::new();
        let mut presence: BTreeMap<ObjectClass, usize> = BTreeMap::new();
        let mut total_instances = 0usize;
        for f in frames {
            let mut seen = std::collections::BTreeSet::new();
            for o in &f.objects {
                *instances.entry(o.class).or_insert(0) += 1;
                total_instances += 1;
                seen.insert(o.class);
            }
            for c in seen {
                *presence.entry(c).or_insert(0) += 1;
            }
        }
        let class_shares = instances
            .iter()
            .map(|(&c, &k)| (c, if total_instances == 0 { 0.0 } else { k as f32 / total_instances as f32 }))
            .collect();
        let class_presence = presence.iter().map(|(&c, &k)| (c, k as f32 / n as f32)).collect();

        DatasetStats {
            frames: n,
            mean_objects: mean,
            std_objects: var.sqrt(),
            max_objects: max,
            empty_fraction: empty,
            class_shares,
            class_presence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{BoundingBox, Color, SceneObject};

    fn frame(n_cars: usize, n_people: usize, id: u64) -> Frame {
        let mut objects = Vec::new();
        for i in 0..n_cars {
            objects.push(SceneObject {
                track_id: i as u64,
                class: ObjectClass::Car,
                color: Color::Red,
                bbox: BoundingBox::new(0.1, 0.1, 0.1, 0.1),
                velocity: (0.0, 0.0),
            });
        }
        for i in 0..n_people {
            objects.push(SceneObject {
                track_id: 100 + i as u64,
                class: ObjectClass::Person,
                color: Color::Blue,
                bbox: BoundingBox::new(0.5, 0.5, 0.05, 0.1),
                velocity: (0.0, 0.0),
            });
        }
        Frame { camera_id: 0, frame_id: id, timestamp: 0.0, objects }
    }

    #[test]
    fn empty_input_is_safe() {
        let s = DatasetStats::compute(&[]);
        assert_eq!(s.frames, 0);
        assert_eq!(s.mean_objects, 0.0);
    }

    #[test]
    fn mean_std_and_max() {
        let frames = vec![frame(1, 0, 0), frame(3, 0, 1), frame(0, 0, 2)];
        let s = DatasetStats::compute(&frames);
        assert!((s.mean_objects - 4.0 / 3.0).abs() < 1e-5);
        assert_eq!(s.max_objects, 3);
        assert!((s.empty_fraction - 1.0 / 3.0).abs() < 1e-6);
        assert!(s.std_objects > 0.0);
    }

    #[test]
    fn class_shares_and_presence() {
        let frames = vec![frame(2, 2, 0), frame(2, 0, 1)];
        let s = DatasetStats::compute(&frames);
        assert!((s.class_shares[&ObjectClass::Car] - 4.0 / 6.0).abs() < 1e-5);
        assert!((s.class_shares[&ObjectClass::Person] - 2.0 / 6.0).abs() < 1e-5);
        assert_eq!(s.class_presence[&ObjectClass::Car], 1.0);
        assert_eq!(s.class_presence[&ObjectClass::Person], 0.5);
    }
}
