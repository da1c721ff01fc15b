//! The oracle detector — the Mask R-CNN stand-in.

use crate::annotation::{Detection, FrameDetections};
use crate::cost::Stage;
use crate::noise::NoiseModel;
use crate::Detector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmq_video::{BoundingBox, Frame, ObjectClass};

/// The expensive, authoritative detector.
///
/// It plays two roles, exactly as Mask R-CNN does in the paper: it annotates
/// training frames (producing the count and location labels the filters are
/// trained against), and it makes the final decision for frames that pass the
/// filter cascade. By default it is noise-free (its output *defines* ground
/// truth); a [`NoiseModel`] can be attached for robustness studies.
///
/// # Invocation-order independence
///
/// Noise is drawn from a per-frame RNG seeded by hashing
/// `(seed, camera_id, frame_id)`, so detecting the same frame always yields
/// the same detections — no matter
/// how many other frames were detected before it, on which thread, or whether
/// the result came fresh or through a [`DetectionCache`](crate::DetectionCache).
/// (Historically the oracle drew from one shared sequential RNG stream, which
/// made a frame's detections depend on the invocation order; shared, cached
/// and parallel execution would have silently changed detections. The
/// per-frame derivation removes that coupling; since every committed harness
/// and golden runs the *perfect* oracle — which draws no noise at all — their
/// outputs are unchanged by this switch.)
pub struct OracleDetector {
    noise: NoiseModel,
    seed: u64,
}

impl OracleDetector {
    /// A perfect oracle.
    pub fn perfect() -> Self {
        OracleDetector { noise: NoiseModel::perfect(), seed: 0x0AC1E }
    }

    /// An oracle with a noise model.
    pub fn with_noise(noise: NoiseModel, seed: u64) -> Self {
        OracleDetector { noise, seed }
    }

    /// The per-frame noise RNG: a splitmix64-style hash of
    /// `(seed, camera_id, frame_id)` seeds an independent generator per
    /// frame, making detections a pure function of the frame. (Camera 0 —
    /// every committed harness — contributes nothing to the mix, so the
    /// single-camera noise streams are unchanged by keying on the camera.)
    fn frame_rng(&self, frame: &Frame) -> StdRng {
        let mut z = self.seed
            ^ frame.frame_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (frame.camera_id as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }

    fn apply_noise(&self, frame: &Frame) -> Vec<Detection> {
        let mut rng = self.frame_rng(frame);
        let mut out = Vec::with_capacity(frame.objects.len());
        for obj in &frame.objects {
            if self.noise.miss_rate > 0.0 && rng.gen::<f32>() < self.noise.miss_rate {
                continue;
            }
            let mut class = obj.class;
            if self.noise.class_confusion > 0.0 && rng.gen::<f32>() < self.noise.class_confusion {
                // confuse with a neighbouring class id
                let next = (class.id() + 1) % ObjectClass::ALL.len();
                class = ObjectClass::from_id(next).unwrap_or(class);
            }
            let color = if self.noise.color_drop > 0.0 && rng.gen::<f32>() < self.noise.color_drop {
                None
            } else {
                Some(obj.color)
            };
            out.push(Detection {
                class,
                color,
                bbox: self.noise.jitter_box(&obj.bbox, &mut rng),
                score: if self.noise.is_perfect() { 1.0 } else { rng.gen_range(0.6..1.0) },
                track_id: Some(obj.track_id),
            });
        }
        // Spurious detections.
        if self.noise.false_positives_per_frame > 0.0 {
            let n_fp = {
                let lambda = self.noise.false_positives_per_frame;
                let whole = lambda.floor() as usize;
                let extra = if rng.gen::<f32>() < lambda.fract() { 1 } else { 0 };
                whole + extra
            };
            for _ in 0..n_fp {
                let class = ObjectClass::ALL[rng.gen_range(0..ObjectClass::ALL.len())];
                let (w, h) = class.typical_size();
                out.push(Detection {
                    class,
                    color: None,
                    bbox: BoundingBox::from_center(rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9), w, h),
                    score: rng.gen_range(0.3..0.7),
                    track_id: None,
                });
            }
        }
        out
    }
}

impl Detector for OracleDetector {
    fn detect(&self, frame: &Frame) -> FrameDetections {
        let detections = if self.noise.is_perfect() {
            frame
                .objects
                .iter()
                .map(|o| Detection {
                    class: o.class,
                    color: Some(o.color),
                    bbox: o.bbox,
                    score: 1.0,
                    track_id: Some(o.track_id),
                })
                .collect()
        } else {
            self.apply_noise(frame)
        };
        FrameDetections { frame_id: frame.frame_id, detections }
    }

    fn stage(&self) -> Stage {
        Stage::MaskRcnn
    }

    fn name(&self) -> &'static str {
        "oracle (Mask R-CNN stand-in)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostLedger;
    use vmq_video::{Color, SceneObject};

    fn frame(n: usize) -> Frame {
        frame_with_id(42, n)
    }

    fn frame_with_id(frame_id: u64, n: usize) -> Frame {
        let objects = (0..n)
            .map(|i| SceneObject {
                track_id: i as u64,
                class: ObjectClass::Car,
                color: Color::Red,
                bbox: BoundingBox::new(0.1 * i as f32, 0.2, 0.1, 0.1),
                velocity: (0.0, 0.0),
            })
            .collect();
        Frame { camera_id: 0, frame_id, timestamp: 0.0, objects }
    }

    #[test]
    fn perfect_oracle_reproduces_ground_truth() {
        let oracle = OracleDetector::perfect();
        let f = frame(4);
        let d = oracle.detect(&f);
        assert_eq!(d.count(), 4);
        assert_eq!(d.frame_id, 42);
        for (det, obj) in d.detections.iter().zip(&f.objects) {
            assert_eq!(det.class, obj.class);
            assert_eq!(det.bbox, obj.bbox);
            assert_eq!(det.color, Some(obj.color));
            assert_eq!(det.track_id, Some(obj.track_id));
            assert_eq!(det.score, 1.0);
        }
    }

    /// The oracle bills nothing itself: whoever runs it charges its stage,
    /// which prices every fresh detection at Mask R-CNN's 200 ms.
    #[test]
    fn oracle_charges_mask_rcnn_cost() {
        let ledger = CostLedger::paper();
        let oracle = OracleDetector::perfect();
        let cache = crate::DetectionCache::new();
        let charged = crate::CachedDetector::new(&oracle, &cache, 0, Some(ledger.clone()));
        for id in 0..5 {
            let _ = charged.detect(&frame_with_id(id, 1));
        }
        assert_eq!(ledger.invocations(Stage::MaskRcnn), 5);
        assert!((ledger.total_ms() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_oracle_misses_objects() {
        let noise = NoiseModel { miss_rate: 1.0, ..NoiseModel::perfect() };
        let oracle = OracleDetector::with_noise(noise, 7);
        assert_eq!(oracle.detect(&frame(5)).count(), 0);
    }

    #[test]
    fn noisy_oracle_adds_false_positives() {
        let noise = NoiseModel { false_positives_per_frame: 2.0, ..NoiseModel::perfect() };
        let oracle = OracleDetector::with_noise(noise, 7);
        let d = oracle.detect(&frame(0));
        assert_eq!(d.count(), 2);
        assert!(d.detections.iter().all(|det| det.track_id.is_none()));
    }

    /// The satellite guarantee of the shared runtime: a noisy oracle's output
    /// for a frame is a pure function of `(seed, frame_id)` — repeated,
    /// reordered or interleaved invocations cannot change it.
    #[test]
    fn noisy_detections_are_invocation_order_independent() {
        let noise = NoiseModel::mid_tier();
        let a = OracleDetector::with_noise(noise, 11);
        let b = OracleDetector::with_noise(noise, 11);
        // `a` detects frames 0..20 in order; `b` detects them reversed and
        // with repeats. Every per-frame result must still agree.
        let frames: Vec<Frame> = (0..20).map(|id| frame_with_id(id, 5)).collect();
        let forward: Vec<FrameDetections> = frames.iter().map(|f| a.detect(f)).collect();
        for f in frames.iter().rev() {
            let _ = b.detect(f); // burn "stream position" — must not matter
        }
        for (f, expected) in frames.iter().zip(&forward) {
            let again = b.detect(f);
            assert_eq!(again.count(), expected.count(), "frame {}", f.frame_id);
            for (x, y) in again.detections.iter().zip(&expected.detections) {
                assert_eq!(x.class, y.class);
                assert_eq!(x.bbox, y.bbox);
                assert_eq!(x.color, y.color);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
        // Different seeds still produce different noise.
        let c = OracleDetector::with_noise(noise, 12);
        let differs = frames.iter().any(|f| {
            let x = c.detect(f);
            let y = a.detect(f);
            x.count() != y.count() || x.detections.iter().zip(&y.detections).any(|(p, q)| p.bbox != q.bbox)
        });
        assert!(differs, "seed must still matter");
    }

    #[test]
    fn detector_trait_metadata() {
        let oracle = OracleDetector::perfect();
        assert_eq!(oracle.stage(), Stage::MaskRcnn);
        assert!(oracle.name().contains("oracle"));
    }
}
