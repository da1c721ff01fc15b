//! Differential test of [`DetectionCache`] against the four-map
//! implementation it replaced.
//!
//! `ModelCache` is that implementation, kept as the reference: separate
//! `entries` / `users` / `stamps` / `recency` B-trees and a monotone tick,
//! one user per call. The cache under test keeps one index over a slab with
//! intrusive LRU links and serves a whole batch of users per call; it must
//! agree with the reference — the batch replayed one user at a time — on
//! every counter, on residency, on the consumer lists and on every bit of
//! the settled shares, after every operation of a random interleaving.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vmq_detect::{Detection, DetectionCache, Detector, FrameDetections, OracleDetector};
use vmq_video::{BoundingBox, Color, Frame, ObjectClass, SceneObject};

type FrameKey = (u32, u64);

const CAMERAS: u32 = 3;
const FRAMES: u64 = 10;

/// The cache's byte accounting: fixed overhead plus the detection payload.
fn entry_bytes(detections: &FrameDetections) -> usize {
    128 + detections.detections.len() * std::mem::size_of::<Detection>()
}

/// The reference: the pre-slab `CacheInner`, verbatim in behaviour.
struct ModelCache {
    entries: BTreeMap<FrameKey, Arc<FrameDetections>>,
    users: BTreeMap<FrameKey, BTreeSet<usize>>,
    settled: BTreeMap<usize, f64>,
    tick: u64,
    stamps: BTreeMap<FrameKey, u64>,
    recency: BTreeMap<u64, FrameKey>,
    budget: usize,
    byte_budget: usize,
    resident_bytes: usize,
    evicted_bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ModelCache {
    fn new(budget: usize, byte_budget: usize) -> Self {
        ModelCache {
            entries: BTreeMap::new(),
            users: BTreeMap::new(),
            settled: BTreeMap::new(),
            tick: 0,
            stamps: BTreeMap::new(),
            recency: BTreeMap::new(),
            budget,
            byte_budget,
            resident_bytes: 0,
            evicted_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, key: FrameKey) {
        self.tick += 1;
        if let Some(old) = self.stamps.insert(key, self.tick) {
            self.recency.remove(&old);
        }
        self.recency.insert(self.tick, key);
    }

    fn evict_lru(&mut self) {
        let (&oldest_tick, &oldest_key) = self.recency.iter().next().expect("non-empty recency index");
        self.recency.remove(&oldest_tick);
        self.stamps.remove(&oldest_key);
        if let Some(entry) = self.entries.remove(&oldest_key) {
            self.resident_bytes -= entry_bytes(&entry);
            self.evicted_bytes += entry_bytes(&entry) as u64;
        }
        if let Some(users) = self.users.remove(&oldest_key) {
            let share = 1.0 / users.len() as f64;
            for user in users {
                *self.settled.entry(user).or_insert(0.0) += share;
            }
        }
        self.evictions += 1;
    }

    fn insert_and_evict(&mut self, key: FrameKey, detections: Arc<FrameDetections>) {
        self.resident_bytes += entry_bytes(&detections);
        self.entries.insert(key, detections);
        self.touch(key);
        while self.entries.len() > self.budget || (self.resident_bytes > self.byte_budget && self.entries.len() > 1) {
            self.evict_lru();
        }
    }

    fn fetch(&mut self, detector: &dyn Detector, frame: &Frame, user: usize) -> bool {
        let key = (frame.camera_id, frame.frame_id);
        self.users.entry(key).or_default().insert(user);
        if self.entries.contains_key(&key) {
            self.hits += 1;
            self.touch(key);
            return false;
        }
        self.misses += 1;
        self.insert_and_evict(key, Arc::new(detector.detect(frame)));
        true
    }

    fn get(&mut self, frame: &Frame, user: usize) -> bool {
        let key = (frame.camera_id, frame.frame_id);
        if !self.entries.contains_key(&key) {
            return false;
        }
        self.users.entry(key).or_default().insert(user);
        self.hits += 1;
        self.touch(key);
        true
    }

    fn insert(&mut self, frame: &Frame, detections: Arc<FrameDetections>, user: usize) {
        let key = (frame.camera_id, frame.frame_id);
        self.users.entry(key).or_default().insert(user);
        if self.entries.contains_key(&key) {
            self.touch(key);
            return;
        }
        self.misses += 1;
        self.insert_and_evict(key, detections);
    }

    fn frame_users(&self) -> Vec<(FrameKey, Vec<usize>)> {
        self.users.iter().map(|(&key, users)| (key, users.iter().copied().collect())).collect()
    }

    fn settled_bits(&self) -> Vec<(usize, u64)> {
        self.settled.iter().map(|(&user, share)| (user, share.to_bits())).collect()
    }
}

/// A frame whose object count — hence accounted size — varies with its key,
/// so byte budgets evict at uneven entry counts.
fn frame(camera_id: u32, frame_id: u64) -> Frame {
    let object = SceneObject {
        track_id: 0,
        class: ObjectClass::Car,
        color: Color::Red,
        bbox: BoundingBox::new(0.2, 0.2, 0.1, 0.1),
        velocity: (0.0, 0.0),
    };
    let objects = vec![object; (u64::from(camera_id) + frame_id) as usize % 4];
    Frame { camera_id, frame_id, timestamp: 0.0, objects }
}

fn settled_bits(cache: &DetectionCache) -> Vec<(usize, u64)> {
    cache.settled_shares().into_iter().map(|(user, share)| (user, share.to_bits())).collect()
}

/// Every observable of `cache` equals the reference's.
fn assert_agrees(cache: &DetectionCache, model: &ModelCache, what: &str) {
    assert_eq!(cache.hits(), model.hits, "{what}: hits");
    assert_eq!(cache.misses(), model.misses, "{what}: misses");
    assert_eq!(cache.evictions(), model.evictions, "{what}: evictions");
    assert_eq!(cache.evicted_bytes(), model.evicted_bytes, "{what}: evicted_bytes");
    assert_eq!(cache.resident_bytes(), model.resident_bytes, "{what}: resident_bytes");
    assert_eq!(cache.len(), model.entries.len(), "{what}: len");
    assert_eq!(cache.is_empty(), model.entries.is_empty(), "{what}: is_empty");
    for camera_id in 0..CAMERAS {
        for frame_id in 0..FRAMES {
            let resident = model.entries.contains_key(&(camera_id, frame_id));
            assert_eq!(
                cache.contains(&frame(camera_id, frame_id)),
                resident,
                "{what}: contains {camera_id}/{frame_id}"
            );
        }
    }
    assert_eq!(cache.frame_users(), model.frame_users(), "{what}: frame_users");
    assert_eq!(settled_bits(cache), model.settled_bits(), "{what}: settled_shares");
}

/// One operation: `kind` 0–2 are the single-user `fetch` / `get` / `insert`
/// (taking the first of `users`), 3–4 the batched `get_for` / `insert_for`.
type Op = (u8, u32, u64, Vec<usize>);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // User lists may be empty, repeat an id and descend.
    let users = prop::collection::vec(0usize..6, 0..5);
    prop::collection::vec((0u8..5, 0..CAMERAS, 0..FRAMES, users), 1..120)
}

/// Drives `batched` (batch calls), `serial` (the same users through the
/// single-user API, one call each) and the reference through `ops`,
/// comparing all three after every operation.
fn run_differential(batched: DetectionCache, serial: DetectionCache, mut model: ModelCache, ops: &[Op]) {
    let oracle = OracleDetector::perfect();
    for (step, (kind, camera_id, frame_id, users)) in ops.iter().enumerate() {
        let frame = frame(*camera_id, *frame_id);
        let detections = Arc::new(oracle.detect(&frame));
        let what = format!("step {step} op {kind} on {camera_id}/{frame_id} for {users:?}");
        match (kind, users.first()) {
            (0, Some(&user)) => {
                let (got, fresh) = batched.fetch(&oracle, &frame, user);
                assert_eq!(*got, *detections, "{what}: fetched detections");
                assert_eq!(fresh, serial.fetch(&oracle, &frame, user).1, "{what}: fresh");
                assert_eq!(fresh, model.fetch(&oracle, &frame, user), "{what}: fresh vs reference");
            }
            (1, Some(&user)) => {
                let hit = batched.get(&frame, user).is_some();
                assert_eq!(hit, serial.get(&frame, user).is_some(), "{what}: hit");
                assert_eq!(hit, model.get(&frame, user), "{what}: hit vs reference");
            }
            (2, Some(&user)) => {
                batched.insert(&frame, Arc::clone(&detections), user);
                serial.insert(&frame, Arc::clone(&detections), user);
                model.insert(&frame, detections, user);
            }
            (3, _) => {
                let hit = batched.get_for(&frame, users.iter().copied()).is_some();
                let mut serial_hit = false;
                for &user in users {
                    serial_hit = serial.get(&frame, user).is_some();
                    assert_eq!(serial_hit, model.get(&frame, user), "{what}: hit vs reference");
                }
                assert_eq!(hit, serial_hit, "{what}: batched hit");
            }
            (4, _) => {
                batched.insert_for(&frame, Arc::clone(&detections), users.iter().copied());
                for (nth, &user) in users.iter().enumerate() {
                    if nth == 0 {
                        serial.insert(&frame, Arc::clone(&detections), user);
                        model.insert(&frame, Arc::clone(&detections), user);
                    } else {
                        assert!(serial.get(&frame, user).is_some(), "{what}: an installed frame is resident");
                        assert!(model.get(&frame, user));
                    }
                }
            }
            // A single-user call needs a user.
            _ => continue,
        }
        assert_agrees(&batched, &model, &what);
        assert_agrees(&serial, &model, &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Entry budgets 1–8: the slab's free list and LRU links run at every
    /// small length, including the degenerate single-slot list.
    #[test]
    fn slab_cache_equals_four_map_reference_under_entry_budgets(budget in 1usize..=8, ops in ops()) {
        run_differential(
            DetectionCache::with_entry_budget(budget),
            DetectionCache::with_entry_budget(budget),
            ModelCache::new(budget, usize::MAX),
            &ops,
        );
    }

    /// Small byte budgets (clamped to one entry's overhead from below):
    /// frames of uneven size evict one or several older entries per install.
    #[test]
    fn slab_cache_equals_four_map_reference_under_byte_budgets(byte_budget in 0usize..1600, ops in ops()) {
        run_differential(
            DetectionCache::with_byte_budget(byte_budget),
            DetectionCache::with_byte_budget(byte_budget),
            ModelCache::new(vmq_detect::DEFAULT_ENTRY_BUDGET, byte_budget.max(128)),
            &ops,
        );
    }
}
