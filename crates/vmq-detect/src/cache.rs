//! Shared detection cache: one detector invocation per frame, however many
//! queries ask.
//!
//! In the paper's monitoring setting many standing queries watch the *same*
//! camera stream; the expensive detector's verdict on a frame is identical
//! for all of them. [`DetectionCache`] memoises `(camera_id, frame_id) →
//! Arc<FrameDetections>` so a frame escalated by query A and later needed by
//! query B (or sampled again by an aggregate estimator's next trial) is
//! detected exactly once — and two cameras that happen to reuse a frame id
//! never see each other's detections. The cache records which queries *used* each frame,
//! which is what lets the shared runtime split the single global charge
//! across its users in the [`SharedCost`](crate::SharedCost) breakdown.
//!
//! Correctness rests on detections being a pure function of the frame:
//! [`OracleDetector`](crate::OracleDetector) noise is derived per frame from
//! `(seed, camera_id, frame_id)`, so a cached result is bit-identical to a
//! fresh invocation regardless of order.

use crate::annotation::{Detection, FrameDetections};
use crate::cost::{CostLedger, Stage};
use crate::Detector;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use vmq_video::Frame;

/// Cache key: `(camera_id, frame_id)` — frame ids are only unique per
/// camera stream.
type FrameKey = (u32, u64);

/// Default entry budget: generous enough that every in-process stream pass
/// (tests, benches, the paper-claims fixtures) sees zero evictions — the
/// budget exists so a *long-lived* fleet runtime (ROADMAP item 1) cannot grow
/// without bound, not to make short passes forget anything.
pub const DEFAULT_ENTRY_BUDGET: usize = 1 << 20;

/// Fixed per-entry overhead charged against the byte budget on top of the
/// detections themselves: key, `Arc` header, the index slot and the slab
/// slot (consumer list and LRU links) each resident frame occupies. An
/// accounting constant, not a measurement: every eviction point of a
/// byte-budgeted cache depends on it.
const ENTRY_OVERHEAD_BYTES: usize = 128;

/// Bytes a cached frame is accounted at: fixed bookkeeping overhead plus its
/// detection payload.
fn entry_bytes(detections: &FrameDetections) -> usize {
    ENTRY_OVERHEAD_BYTES + detections.detections.len() * std::mem::size_of::<Detection>()
}

/// "No slot": the end of the LRU list in either direction.
const NIL: usize = usize::MAX;

/// One slab slot: a resident frame, or (with `detections` empty) a link of
/// the free list.
#[derive(Debug)]
struct Slot {
    key: FrameKey,
    /// `None` only while the slot sits on the free list.
    detections: Option<Arc<FrameDetections>>,
    /// The frame's consumers, ascending and de-duplicated. Subscribers of a
    /// shared plan arrive ascending, so recording is almost always a push.
    users: Vec<usize>,
    /// Intrusive LRU links (slab indices): `prev` is the next-older resident
    /// frame, `next` the next-newer.
    prev: usize,
    next: usize,
}

impl Slot {
    /// Records `user` as a consumer (idempotent, keeps `users` ascending).
    fn record(&mut self, user: usize) {
        if self.users.last().is_none_or(|&last| last < user) {
            self.users.push(user);
        } else if let Err(at) = self.users.binary_search(&user) {
            self.users.insert(at, user);
        }
    }
}

/// What a cache call does for the first user of its batch; every further
/// user is a recorded lookup of the (by then resident) frame.
enum Access<'a> {
    /// `get`: a hit when resident, nothing at all when absent.
    Lookup,
    /// `fetch`: a hit when resident, else the frame's one miss — detect and
    /// install.
    Detect(&'a dyn Detector, &'a Frame),
    /// `insert`: the frame's one miss when absent; when resident only the
    /// consumer and the touch are recorded.
    Install(Arc<FrameDetections>),
}

#[derive(Debug)]
struct CacheInner {
    /// The one ordered index: key → slab slot of the resident frame.
    index: BTreeMap<FrameKey, usize>,
    /// Slab of resident frames threaded into one LRU list, plus freed slots
    /// awaiting reuse (their `users` buffers keep their capacity).
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Least- and most-recently-used resident slots ([`NIL`] when empty).
    oldest: usize,
    newest: usize,
    /// Per-user detector shares folded out of evicted keys: when a frame is
    /// evicted its consumer list is settled into these exact aggregate
    /// counters (one unit split equally), so attribution stays correct while
    /// the slab stays bounded — a long-lived fleet must not keep one
    /// consumer list per frame it ever detected.
    settled: BTreeMap<usize, f64>,
    budget: usize,
    byte_budget: usize,
    resident_bytes: usize,
    evicted_bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for CacheInner {
    fn default() -> Self {
        CacheInner {
            index: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
            settled: BTreeMap::new(),
            budget: DEFAULT_ENTRY_BUDGET,
            byte_budget: usize::MAX,
            resident_bytes: 0,
            evicted_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl CacheInner {
    /// Unlinks `slot` from the LRU list.
    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        match prev {
            NIL => self.oldest = next,
            older => self.slots[older].next = next,
        }
        match next {
            NIL => self.newest = prev,
            newer => self.slots[newer].prev = prev,
        }
    }

    /// Links `slot` in as the most-recently-used.
    fn link_newest(&mut self, slot: usize) {
        self.slots[slot].prev = self.newest;
        self.slots[slot].next = NIL;
        match self.newest {
            NIL => self.oldest = slot,
            newest => self.slots[newest].next = slot,
        }
        self.newest = slot;
    }

    /// Marks `slot` most-recently-used: an O(1) splice. Any number of
    /// consecutive touches of one slot leaves the same order as one.
    fn touch(&mut self, slot: usize) {
        if self.newest != slot {
            self.unlink(slot);
            self.link_newest(slot);
        }
    }

    /// Evicts the least-recently-used entry, folding its consumer list into
    /// the `settled` per-user counters: the frame's one paid detector charge
    /// keeps being split among exactly the users recorded at eviction time.
    /// (If the frame is later re-detected, that is a *new* charge with its
    /// own fresh consumer list — attributed units always equal charge events.)
    fn evict_lru(&mut self) {
        let slot = self.oldest;
        self.unlink(slot);
        let Slot { key, detections, users, .. } = &mut self.slots[slot];
        self.index.remove(key);
        if let Some(entry) = detections.take() {
            self.resident_bytes = self.resident_bytes.saturating_sub(entry_bytes(&entry));
            self.evicted_bytes += entry_bytes(&entry) as u64;
        }
        let share = 1.0 / users.len() as f64;
        for user in users.drain(..) {
            *self.settled.entry(user).or_insert(0.0) += share;
        }
        self.free.push(slot);
        self.evictions += 1;
    }

    /// Installs `key → detections` as the most-recently-used entry and
    /// evicts least-recently-used entries until both the entry budget and
    /// the byte budget are respected (the most recent entry always stays
    /// resident, so a single oversized frame cannot empty the cache).
    /// Returns the new entry's slot.
    fn install(&mut self, key: FrameKey, detections: Arc<FrameDetections>) -> usize {
        self.resident_bytes += entry_bytes(&detections);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot].key = key;
                self.slots[slot].detections = Some(detections);
                slot
            }
            None => {
                self.slots.push(Slot { key, detections: Some(detections), users: Vec::new(), prev: NIL, next: NIL });
                self.slots.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.link_newest(slot);
        while self.index.len() > self.budget || (self.resident_bytes > self.byte_budget && self.index.len() > 1) {
            self.evict_lru();
        }
        slot
    }

    /// The one path behind every lookup and insert: serves `key` on behalf
    /// of `users` with one index descent and one LRU touch, and is exactly
    /// equivalent — counters, consumer list, LRU order — to issuing the
    /// first user's `access` and then one recorded lookup per further user.
    /// Returns the detections and whether this call was the frame's miss;
    /// an empty batch, or a [`Access::Lookup`] of an absent frame, does
    /// nothing.
    fn serve(
        &mut self,
        key: FrameKey,
        users: impl IntoIterator<Item = usize>,
        access: Access<'_>,
    ) -> Option<(Arc<FrameDetections>, bool)> {
        let mut users = users.into_iter().peekable();
        users.peek()?;
        let installs = matches!(access, Access::Install(_));
        let (slot, fresh) = match self.index.get(&key) {
            Some(&slot) => {
                self.touch(slot);
                (slot, false)
            }
            None => {
                let detections = match access {
                    Access::Lookup => return None,
                    Access::Detect(detector, frame) => Arc::new(detector.detect(frame)),
                    Access::Install(detections) => detections,
                };
                self.misses += 1;
                (self.install(key, detections), true)
            }
        };
        // Every call but the one that installed (or re-inserted) is a hit.
        let mut hits = 0;
        for user in users {
            self.slots[slot].record(user);
            hits += 1;
        }
        self.hits += hits - u64::from(fresh || installs);
        let detections = self.slots[slot].detections.as_ref().expect("an indexed slot is resident");
        Some((Arc::clone(detections), fresh))
    }

    /// Resident frames' consumer lists in key order.
    fn resident_users(&self) -> impl Iterator<Item = (FrameKey, &[usize])> {
        self.index.iter().map(|(&key, &slot)| (key, self.slots[slot].users.as_slice()))
    }
}

/// Memoised detector results shared by all queries of a stream pass.
///
/// Cheap to clone (`Arc` internally); clones share the same cache. Resident
/// entries are bounded by an entry budget with LRU eviction
/// ([`DetectionCache::with_entry_budget`]); the default
/// [`DEFAULT_ENTRY_BUDGET`] is large enough that ordinary stream passes
/// never evict.
#[derive(Debug, Clone, Default)]
pub struct DetectionCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl DetectionCache {
    /// An empty cache with the default entry budget.
    pub fn new() -> Self {
        DetectionCache::default()
    }

    /// An empty cache holding at most `budget` entries (≥ 1); the
    /// least-recently-used entry is evicted when an insert would exceed it.
    pub fn with_entry_budget(budget: usize) -> Self {
        let cache = DetectionCache::default();
        cache.inner.lock().budget = budget.max(1);
        cache
    }

    /// An empty cache bounded by *bytes* of resident detections (accounted
    /// as a fixed per-entry overhead plus the detection payload) in addition
    /// to the default entry budget. The fleet runtime sizes its one global
    /// cache this way: entry counts say nothing about memory when cameras
    /// produce frames with wildly different object counts.
    pub fn with_byte_budget(byte_budget: usize) -> Self {
        let cache = DetectionCache::default();
        cache.inner.lock().byte_budget = byte_budget.max(ENTRY_OVERHEAD_BYTES);
        cache
    }

    /// The configured entry budget.
    pub fn entry_budget(&self) -> usize {
        self.inner.lock().budget
    }

    /// The configured byte budget (`usize::MAX` when unset).
    pub fn byte_budget(&self) -> usize {
        self.inner.lock().byte_budget
    }

    /// Bytes currently accounted to resident entries.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().resident_bytes
    }

    /// Cumulative bytes reclaimed by LRU eviction over the cache's lifetime.
    pub fn evicted_bytes(&self) -> u64 {
        self.inner.lock().evicted_bytes
    }

    /// Returns the detections for `frame`, invoking `detector` only when the
    /// frame has not been detected before, and records `user` (a query index)
    /// as a consumer of the frame for cost attribution.
    ///
    /// The lock is deliberately held across the detector invocation: a
    /// lock-free check-detect-insert would let two racing callers invoke the
    /// expensive detector twice for one charged miss, corrupting the
    /// invocations == |union| accounting. Callers that want miss-path
    /// parallelism shard the *known-missing* set outside the cache and merge
    /// via [`DetectionCache::insert`], which is exactly what the shared
    /// plan's worker pool does.
    pub fn get_or_detect(&self, detector: &dyn Detector, frame: &Frame, user: usize) -> Arc<FrameDetections> {
        self.fetch(detector, frame, user).0
    }

    /// Like [`DetectionCache::get_or_detect`], additionally reporting
    /// whether the call actually invoked the detector (`true` = this call
    /// was the frame's one miss). Charging decisions must use this flag, not
    /// a before/after delta of the cache-wide [`DetectionCache::misses`]
    /// counter, which can interleave with other users' misses.
    pub fn fetch(&self, detector: &dyn Detector, frame: &Frame, user: usize) -> (Arc<FrameDetections>, bool) {
        let key = (frame.camera_id, frame.frame_id);
        self.inner.lock().serve(key, [user], Access::Detect(detector, frame)).expect("a fetch always resolves")
    }

    /// Cached lookup without detection (records `user` and a hit on success).
    pub fn get(&self, frame: &Frame, user: usize) -> Option<Arc<FrameDetections>> {
        self.get_for(frame, [user])
    }

    /// [`DetectionCache::get`] on behalf of every user in `users` under one
    /// lock, one lookup and one LRU touch: exactly the `get`s issued one by
    /// one (a hit per user, duplicates included), which is how a shared plan
    /// records all of a frame's escalating statements at once. An empty
    /// `users` looks nothing up.
    pub fn get_for(&self, frame: &Frame, users: impl IntoIterator<Item = usize>) -> Option<Arc<FrameDetections>> {
        let key = (frame.camera_id, frame.frame_id);
        self.inner.lock().serve(key, users, Access::Lookup).map(|(detections, _)| detections)
    }

    /// Inserts an externally computed detection of `frame` (the sharded
    /// worker pool detects cache misses in parallel and merges them back
    /// through this), recording `user`. Counts as the frame's one miss;
    /// inserting an already cached frame is a no-op for the entry but still
    /// records the user.
    pub fn insert(&self, frame: &Frame, detections: Arc<FrameDetections>, user: usize) {
        self.insert_for(frame, detections, [user]);
    }

    /// [`DetectionCache::insert`] for the first of `users` followed by a
    /// recorded [`DetectionCache::get`] for each of the rest, under one lock:
    /// an install counts one miss and `users − 1` hits, so same-batch sharing
    /// reads as cache hits exactly like cross-batch sharing does. An empty
    /// `users` inserts nothing.
    pub fn insert_for(&self, frame: &Frame, detections: Arc<FrameDetections>, users: impl IntoIterator<Item = usize>) {
        debug_assert_eq!(frame.frame_id, detections.frame_id, "detections must belong to the keyed frame");
        let key = (frame.camera_id, frame.frame_id);
        self.inner.lock().serve(key, users, Access::Install(detections));
    }

    /// True when `frame` is already cached.
    pub fn contains(&self, frame: &Frame) -> bool {
        self.inner.lock().index.contains_key(&(frame.camera_id, frame.frame_id))
    }

    /// Number of frames currently *resident*. With no evictions this equals
    /// the number of detector invocations the cache allowed through
    /// ([`DetectionCache::misses`]); once the budget forces evictions,
    /// `misses()` remains the invocation count while `len()` only counts
    /// what is still cached.
    pub fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// True when nothing has been detected yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().index.is_empty()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.inner.lock().hits
    }

    /// Lookups that had to invoke the detector (plus external inserts): the
    /// number of actual detector invocations under this cache.
    pub fn misses(&self) -> u64 {
        self.inner.lock().misses
    }

    /// Entries dropped by LRU eviction to respect the entry budget. Zero for
    /// every short-lived pass under the default budget; an evicted frame
    /// that is requested again re-detects (a new miss).
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    /// Per-frame consumer lists of the *resident* (not yet evicted) frames,
    /// in `(camera_id, frame_id)` order, users ascending — a deep copy for
    /// tests and reporting; settlement itself
    /// ([`DetectionCache::attribute_detections`]) walks the index in place.
    /// Evicted frames no longer appear here; their splits were folded into
    /// the settled counters ([`DetectionCache::settled_shares`]) at eviction
    /// time, which is what keeps a long-lived fleet's memory bounded.
    pub fn frame_users(&self) -> Vec<((u32, u64), Vec<usize>)> {
        self.inner.lock().resident_users().map(|(key, users)| (key, users.to_vec())).collect()
    }

    /// Per-user detector shares folded out of evicted frames, in user order.
    /// Each evicted frame contributed exactly one unit split equally among
    /// the consumers recorded at its eviction, so
    /// `Σ settled + Σ resident splits ==` total charge events.
    pub fn settled_shares(&self) -> Vec<(usize, f64)> {
        self.inner.lock().settled.iter().map(|(&user, &share)| (user, share)).collect()
    }

    /// Splits every charged frame's detector cost equally among its recorded
    /// users, writing the fractions into `ledger`'s attribution table for
    /// `stage`: resident frames from their live consumer lists — in key
    /// order, users ascending, the order the f64 sums are defined by — then
    /// evicted frames from the exact per-user counters folded at eviction
    /// time.
    /// *Replaces* any attribution previously settled for `stage`, so
    /// re-settling — a plan executed twice, or several plans sharing one
    /// cache and global ledger — recomputes the split instead of
    /// double-counting. (User indices must be consistent across everything
    /// that shares the cache.)
    pub fn attribute_detections(&self, ledger: &CostLedger, stage: Stage) {
        ledger.clear_attribution(stage);
        let inner = self.inner.lock();
        for (_, users) in inner.resident_users() {
            let share = 1.0 / users.len() as f64;
            for &user in users {
                ledger.attribute(stage, user, share);
            }
        }
        for (&user, &share) in &inner.settled {
            ledger.attribute(stage, user, share);
        }
    }
}

/// A [`Detector`] front-end that routes every invocation through a
/// [`DetectionCache`] on behalf of one query.
///
/// Misses run the inner detector and are charged (once, globally) to the
/// optional ledger; hits cost nothing. This is how aggregate estimators and
/// the adaptive planner participate in shared detection without knowing the
/// cache exists: they receive a `CachedDetector` where they expect a plain
/// detector.
pub struct CachedDetector<'a> {
    inner: &'a dyn Detector,
    cache: &'a DetectionCache,
    user: usize,
    ledger: Option<CostLedger>,
}

impl<'a> CachedDetector<'a> {
    /// Wraps `inner` for query `user`; misses charge `ledger` (when given)
    /// at the inner detector's stage.
    pub fn new(inner: &'a dyn Detector, cache: &'a DetectionCache, user: usize, ledger: Option<CostLedger>) -> Self {
        CachedDetector { inner, cache, user, ledger }
    }
}

impl Detector for CachedDetector<'_> {
    fn detect(&self, frame: &Frame) -> FrameDetections {
        let (detections, fresh) = self.cache.fetch(self.inner, frame, self.user);
        if fresh {
            if let Some(ledger) = &self.ledger {
                ledger.charge(self.inner.stage(), 1);
            }
        }
        (*detections).clone()
    }

    fn stage(&self) -> Stage {
        self.inner.stage()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OracleDetector;
    use vmq_video::{BoundingBox, Color, ObjectClass, SceneObject};

    fn frame(frame_id: u64) -> Frame {
        let objects = vec![SceneObject {
            track_id: 0,
            class: ObjectClass::Car,
            color: Color::Red,
            bbox: BoundingBox::new(0.2, 0.2, 0.1, 0.1),
            velocity: (0.0, 0.0),
        }];
        Frame { camera_id: 0, frame_id, timestamp: 0.0, objects }
    }

    /// The cache's core accounting contract: detector invocations equal the
    /// number of *distinct* frames sampled, never the number of lookups.
    #[test]
    fn detector_invocations_equal_union_of_sampled_frames() {
        let ledger = CostLedger::paper();
        let oracle = OracleDetector::with_ledger(ledger.clone());
        let cache = DetectionCache::new();
        // Query 0 samples frames 0..10, query 1 samples the overlapping
        // 5..15, query 0 re-samples 0..10 (an aggregate's second trial).
        for id in 0..10 {
            let _ = cache.get_or_detect(&oracle, &frame(id), 0);
        }
        for id in 5..15 {
            let _ = cache.get_or_detect(&oracle, &frame(id), 1);
        }
        for id in 0..10 {
            let _ = cache.get_or_detect(&oracle, &frame(id), 0);
        }
        // |union| = |0..15| = 15 invocations; 30 lookups total.
        assert_eq!(cache.misses(), 15);
        assert_eq!(cache.len(), 15);
        assert_eq!(cache.hits(), 30 - 15);
        assert_eq!(ledger.invocations(Stage::MaskRcnn), 15);
    }

    #[test]
    fn frame_users_record_every_consumer_once() {
        let oracle = OracleDetector::perfect();
        let cache = DetectionCache::new();
        let _ = cache.get_or_detect(&oracle, &frame(3), 0);
        let _ = cache.get_or_detect(&oracle, &frame(3), 1);
        let _ = cache.get_or_detect(&oracle, &frame(3), 1);
        let _ = cache.get_or_detect(&oracle, &frame(7), 2);
        assert_eq!(cache.frame_users(), vec![((0, 3), vec![0, 1]), ((0, 7), vec![2])]);
        // Attribution splits frame 3 between queries 0 and 1; frame 7 goes
        // wholly to query 2.
        let ledger = CostLedger::paper();
        cache.attribute_detections(&ledger, Stage::MaskRcnn);
        assert!((ledger.attributed_frames(Stage::MaskRcnn, 0) - 0.5).abs() < 1e-12);
        assert!((ledger.attributed_frames(Stage::MaskRcnn, 1) - 0.5).abs() < 1e-12);
        assert!((ledger.attributed_frames(Stage::MaskRcnn, 2) - 1.0).abs() < 1e-12);
    }

    /// Re-settling attribution — a plan executed twice, or two plans sharing
    /// one cache and global ledger — recomputes the split instead of
    /// accumulating duplicates, so the attributed total always equals the
    /// charged total.
    #[test]
    fn attribution_settlement_is_idempotent_and_covers_late_users() {
        let oracle = OracleDetector::perfect();
        let cache = DetectionCache::new();
        let ledger = CostLedger::paper();
        let _ = cache.get_or_detect(&oracle, &frame(1), 0);
        cache.attribute_detections(&ledger, Stage::MaskRcnn);
        cache.attribute_detections(&ledger, Stage::MaskRcnn);
        assert!((ledger.attributed_frames(Stage::MaskRcnn, 0) - 1.0).abs() < 1e-12, "no double counting");
        // A later consumer (a second plan over the shared cache) re-splits
        // the same single charge across the full user set.
        let _ = cache.get_or_detect(&oracle, &frame(1), 1);
        cache.attribute_detections(&ledger, Stage::MaskRcnn);
        assert!((ledger.attributed_frames(Stage::MaskRcnn, 0) - 0.5).abs() < 1e-12);
        assert!((ledger.attributed_frames(Stage::MaskRcnn, 1) - 0.5).abs() < 1e-12);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn cached_results_are_shared_arcs() {
        let oracle = OracleDetector::perfect();
        let cache = DetectionCache::new();
        let a = cache.get_or_detect(&oracle, &frame(1), 0);
        let b = cache.get_or_detect(&oracle, &frame(1), 1);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the same shared annotation");
        assert_eq!(a.frame_id, 1);
    }

    #[test]
    fn insert_merges_external_detections_without_double_counting() {
        let oracle = OracleDetector::perfect();
        let cache = DetectionCache::new();
        cache.insert(&frame(9), Arc::new(oracle.detect(&frame(9))), 0);
        assert!(cache.contains(&frame(9)));
        assert_eq!(cache.misses(), 1);
        // A second insert of the same frame records the new user only.
        cache.insert(&frame(9), Arc::new(oracle.detect(&frame(9))), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.frame_users(), vec![((0, 9), vec![0, 1])]);
        // And a lookup is a hit.
        assert!(cache.get(&frame(9), 2).is_some());
        assert_eq!(cache.hits(), 1);
        assert!(cache.get(&frame(10), 2).is_none());
        assert!(!cache.is_empty());
    }

    #[test]
    fn lru_eviction_respects_entry_budget_and_recency() {
        let oracle = OracleDetector::perfect();
        let cache = DetectionCache::with_entry_budget(3);
        assert_eq!(cache.entry_budget(), 3);
        for id in 0..3 {
            let _ = cache.get_or_detect(&oracle, &frame(id), 0);
        }
        assert_eq!(cache.evictions(), 0);
        // Touch frame 0 so frame 1 becomes the LRU, then overflow.
        assert!(cache.get(&frame(0), 0).is_some());
        let _ = cache.get_or_detect(&oracle, &frame(3), 0);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 3);
        assert!(cache.contains(&frame(0)), "recently touched entry survives");
        assert!(!cache.contains(&frame(1)), "LRU entry is evicted");
        assert!(cache.contains(&frame(2)) && cache.contains(&frame(3)));
        // Re-requesting the evicted frame re-detects: a new miss, so misses()
        // stays the invocation count while len() stays within budget.
        let _ = cache.get_or_detect(&oracle, &frame(1), 0);
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn eviction_preserves_user_attribution() {
        let oracle = OracleDetector::perfect();
        let cache = DetectionCache::with_entry_budget(1);
        let _ = cache.get_or_detect(&oracle, &frame(0), 0);
        let _ = cache.get_or_detect(&oracle, &frame(0), 1);
        let _ = cache.get_or_detect(&oracle, &frame(5), 2);
        assert_eq!(cache.evictions(), 1);
        // Frame 0 was evicted but its charge was already paid; its consumer
        // set was folded into the settled per-user counters at eviction, so
        // only the resident frame keeps a live set...
        assert_eq!(cache.frame_users(), vec![((0, 5), vec![2])]);
        assert_eq!(cache.settled_shares(), vec![(0, 0.5), (1, 0.5)]);
        // ...and attribution still splits frame 0 between queries 0 and 1.
        let ledger = CostLedger::paper();
        cache.attribute_detections(&ledger, Stage::MaskRcnn);
        assert!((ledger.attributed_frames(Stage::MaskRcnn, 0) - 0.5).abs() < 1e-12);
        assert!((ledger.attributed_frames(Stage::MaskRcnn, 1) - 0.5).abs() < 1e-12);
        assert!((ledger.attributed_frames(Stage::MaskRcnn, 2) - 1.0).abs() < 1e-12);
    }

    /// The leak regression: running far past the budget must keep every
    /// cache-side map bounded by the budget while attribution totals match a
    /// never-evicting cache exactly. (Before the fix the `users` map kept
    /// one `BTreeSet` per frame *forever*.)
    #[test]
    fn users_map_stays_bounded_past_eviction_with_exact_attribution() {
        let oracle = OracleDetector::perfect();
        let bounded = DetectionCache::with_entry_budget(4);
        let unbounded = DetectionCache::new();
        for id in 0..100 {
            let user = (id % 3) as usize;
            let _ = bounded.get_or_detect(&oracle, &frame(id), user);
            let _ = unbounded.get_or_detect(&oracle, &frame(id), user);
        }
        assert_eq!(bounded.misses(), 100);
        assert_eq!(bounded.evictions(), 96);
        assert_eq!(bounded.len(), 4);
        assert!(bounded.frame_users().len() <= 4, "users map must shrink with eviction");
        assert!(bounded.settled_shares().len() <= 3, "settled counters are per *user*, not per frame");
        let (lb, lu) = (CostLedger::paper(), CostLedger::paper());
        bounded.attribute_detections(&lb, Stage::MaskRcnn);
        unbounded.attribute_detections(&lu, Stage::MaskRcnn);
        let mut total = 0.0;
        for user in 0..3 {
            let b = lb.attributed_frames(Stage::MaskRcnn, user);
            let u = lu.attributed_frames(Stage::MaskRcnn, user);
            assert!((b - u).abs() < 1e-9, "user {user}: bounded {b} != unbounded {u}");
            total += b;
        }
        assert!((total - 100.0).abs() < 1e-9, "every charge unit stays attributed, got {total}");
    }

    #[test]
    fn byte_budget_bounds_resident_memory() {
        let oracle = OracleDetector::perfect();
        let cache = DetectionCache::with_byte_budget(4 * 1024);
        assert_eq!(cache.byte_budget(), 4 * 1024);
        assert_eq!(cache.entry_budget(), DEFAULT_ENTRY_BUDGET, "byte budget composes with the entry budget");
        for id in 0..64 {
            let _ = cache.get_or_detect(&oracle, &frame(id), 0);
        }
        assert!(cache.resident_bytes() <= 4 * 1024, "resident bytes exceed budget: {}", cache.resident_bytes());
        assert!(cache.evictions() > 0, "64 single-object frames must overflow 4 KiB");
        assert!(cache.evicted_bytes() > 0);
        assert_eq!(cache.len() as u64 + cache.evictions(), 64, "every miss is resident or evicted");
        // Attribution still covers all 64 charges.
        let ledger = CostLedger::paper();
        cache.attribute_detections(&ledger, Stage::MaskRcnn);
        assert!((ledger.attributed_frames(Stage::MaskRcnn, 0) - 64.0).abs() < 1e-9);
    }

    /// Two cameras reusing a `frame_id` must get distinct cache entries and
    /// — under a noisy oracle — distinct per-frame noise draws, because the
    /// RNG is keyed on `(seed, camera_id, frame_id)`.
    #[test]
    fn cameras_sharing_a_frame_id_get_distinct_entries_and_noise() {
        let noisy = OracleDetector::with_noise(crate::NoiseModel::mid_tier(), None, 77);
        let cache = DetectionCache::new();
        let mut cam0 = frame(42);
        let mut cam1 = frame(42);
        cam1.camera_id = 1;
        // Give both frames enough objects that jitter has something to move.
        for _ in 0..6 {
            cam0.objects.push(cam0.objects[0]);
            cam1.objects.push(cam1.objects[0]);
        }
        let a = cache.get_or_detect(&noisy, &cam0, 0);
        let b = cache.get_or_detect(&noisy, &cam1, 1);
        assert_eq!(cache.misses(), 2, "same frame_id on two cameras is two distinct keys");
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.frame_users(), vec![((0, 42), vec![0]), ((1, 42), vec![1])]);
        // Same ground-truth objects, different camera → different noise draw.
        let boxes = |d: &FrameDetections| d.detections.iter().map(|det| det.bbox).collect::<Vec<_>>();
        assert_ne!(boxes(&a), boxes(&b), "per-camera RNG keys must decorrelate the noise streams");
        // And each cached draw is bit-identical to a fresh invocation.
        assert_eq!(boxes(&a), boxes(&noisy.detect(&cam0)));
        assert_eq!(boxes(&b), boxes(&noisy.detect(&cam1)));
    }

    /// LRU order under the full mixed API: `fetch` misses, `get` hits and
    /// external `insert`s all count as touches, in call order.
    #[test]
    fn lru_eviction_order_under_interleaved_get_fetch_insert() {
        let oracle = OracleDetector::perfect();
        let cache = DetectionCache::with_entry_budget(3);
        let (_, fresh) = cache.fetch(&oracle, &frame(0), 0);
        assert!(fresh);
        cache.insert(&frame(1), Arc::new(oracle.detect(&frame(1))), 0);
        let (_, fresh) = cache.fetch(&oracle, &frame(2), 0);
        assert!(fresh);
        // Recency now 0 < 1 < 2. A `get` hit on 0 promotes it: 1 < 2 < 0.
        assert!(cache.get(&frame(0), 1).is_some());
        // Overflow via external insert evicts 1 (the LRU), not 0.
        cache.insert(&frame(3), Arc::new(oracle.detect(&frame(3))), 0);
        assert!(!cache.contains(&frame(1)));
        assert!(cache.contains(&frame(0)));
        // A `fetch` hit on 2 promotes it: 0 < 3 < 2; overflow evicts 0.
        let (_, fresh) = cache.fetch(&oracle, &frame(2), 1);
        assert!(!fresh);
        let _ = cache.get_or_detect(&oracle, &frame(4), 0);
        assert!(!cache.contains(&frame(0)));
        assert!(cache.contains(&frame(2)) && cache.contains(&frame(3)) && cache.contains(&frame(4)));
        assert_eq!(cache.evictions(), 2);
        // The two evicted frames' consumer sets were folded: frame 1 had
        // user 0 only; frame 0 had users {0, 1}.
        assert_eq!(cache.settled_shares(), vec![(0, 1.5), (1, 0.5)]);
    }

    #[test]
    fn default_budget_is_generous() {
        let cache = DetectionCache::new();
        assert_eq!(cache.entry_budget(), DEFAULT_ENTRY_BUDGET);
        assert!(cache.entry_budget() >= 1 << 20);
        // Budgets clamp to at least one entry.
        assert_eq!(DetectionCache::with_entry_budget(0).entry_budget(), 1);
    }

    #[test]
    fn insert_touches_existing_entries() {
        let oracle = OracleDetector::perfect();
        let cache = DetectionCache::with_entry_budget(2);
        cache.insert(&frame(0), Arc::new(oracle.detect(&frame(0))), 0);
        cache.insert(&frame(1), Arc::new(oracle.detect(&frame(1))), 0);
        // Re-inserting frame 0 marks it most-recently-used...
        cache.insert(&frame(0), Arc::new(oracle.detect(&frame(0))), 1);
        assert_eq!(cache.misses(), 2, "re-insert is not a new invocation");
        // ...so the overflow evicts frame 1.
        cache.insert(&frame(2), Arc::new(oracle.detect(&frame(2))), 0);
        assert!(cache.contains(&frame(0)));
        assert!(!cache.contains(&frame(1)));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn cached_detector_charges_misses_only() {
        let ledger = CostLedger::paper();
        let oracle = OracleDetector::perfect();
        let cache = DetectionCache::new();
        let cached = CachedDetector::new(&oracle, &cache, 4, Some(ledger.clone()));
        assert_eq!(cached.stage(), Stage::MaskRcnn);
        assert!(cached.name().contains("oracle"));
        let first = cached.detect(&frame(5));
        let second = cached.detect(&frame(5));
        assert_eq!(first.frame_id, second.frame_id);
        assert_eq!(first.count(), second.count());
        assert_eq!(ledger.invocations(Stage::MaskRcnn), 1, "the hit must not re-charge");
        assert_eq!(cache.frame_users(), vec![((0, 5), vec![4])]);
    }
}
