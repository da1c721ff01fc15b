//! The virtual-time cost model.
//!
//! The paper reports end-to-end query times that are dominated by *how many
//! frames reach each processing stage*, priced at the per-frame costs
//! measured on their hardware (Sec. IV): ~1.5 ms for an IC filter, ~1.9 ms
//! for an OD filter and ~200 ms for Mask R-CNN. To
//! reproduce the *shape* of Tables III and IV on any machine, every stage
//! charges its per-frame cost to a shared [`CostLedger`] (a virtual clock);
//! the executor additionally measures real wall-clock time of our own filter
//! implementations so both numbers can be reported side by side.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A processing stage with an associated per-frame virtual cost.
///
/// A stage's discriminant is a stable id that reports and digests fold, so
/// ids are never reused: 3 was a retired full-YOLOv2 detector stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Decode / bookkeeping per frame (negligible but non-zero).
    Decode,
    /// An IC-family filter evaluation (branch at VGG19 layer 5 in the paper).
    IcFilter,
    /// An OD-family filter evaluation (branch at YOLOv2 layer 8 in the paper).
    OdFilter,
    /// The full Mask R-CNN detector (final stage / ground-truth annotator).
    MaskRcnn = 4,
    /// An int8-quantized IC-family filter evaluation: roughly half the
    /// arithmetic cost of [`Stage::IcFilter`] (8-bit multiplies with i32
    /// accumulation in place of f32 FMAs), priced accordingly. Cheaper but
    /// riskier — the planner only certifies it through its own recall
    /// calibration, never as a silent substitute for the f32 filter.
    IcInt8Filter,
    /// An int8-quantized OD-family filter evaluation (same cheaper-but-
    /// riskier contract as [`Stage::IcInt8Filter`]).
    OdInt8Filter,
}

impl Stage {
    /// All stages. The int8 variants are appended after the original four so
    /// that every pre-existing iteration over `ALL` (ledger totals, the
    /// synthetic brute-force baseline) sums the same stages in the same
    /// order first — un-charged trailing stages contribute exact zeros, so
    /// historical float totals are bitwise unchanged.
    pub const ALL: [Stage; 6] =
        [Stage::Decode, Stage::IcFilter, Stage::OdFilter, Stage::MaskRcnn, Stage::IcInt8Filter, Stage::OdInt8Filter];

    /// Position of the stage in [`Stage::ALL`].
    fn index(self) -> usize {
        match self {
            Stage::Decode => 0,
            Stage::IcFilter => 1,
            Stage::OdFilter => 2,
            Stage::MaskRcnn => 3,
            Stage::IcInt8Filter => 4,
            Stage::OdInt8Filter => 5,
        }
    }

    /// Short stage name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::IcFilter => "ic-filter",
            Stage::OdFilter => "od-filter",
            Stage::MaskRcnn => "mask-rcnn",
            Stage::IcInt8Filter => "ic-int8-filter",
            Stage::OdInt8Filter => "od-int8-filter",
        }
    }
}

/// Per-frame costs (in milliseconds of virtual time) for each stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    costs: BTreeMap<Stage, f64>,
}

impl CostModel {
    /// The per-frame costs reported in Sec. IV of the paper.
    pub fn paper() -> Self {
        let mut costs = BTreeMap::new();
        costs.insert(Stage::Decode, 0.05);
        costs.insert(Stage::IcFilter, 1.5);
        costs.insert(Stage::OdFilter, 1.9);
        costs.insert(Stage::MaskRcnn, 200.0);
        // Int8 filters: half-ish the f32 filter price. The paper does not
        // quantize its filters; these prices extend its Sec. IV cost model
        // with the arithmetic ratio of the int8 kernels (8-bit multiplies,
        // i32 accumulates) to the f32 ones on commodity SIMD hardware.
        costs.insert(Stage::IcInt8Filter, 0.75);
        costs.insert(Stage::OdInt8Filter, 0.95);
        CostModel { costs }
    }

    /// Per-frame cost of a stage in milliseconds.
    pub fn cost_ms(&self, stage: Stage) -> f64 {
        *self.costs.get(&stage).unwrap_or(&0.0)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper()
    }
}

/// Virtual cost charged to one stage: the [`Stage`]-tagged entry of a
/// ledger's per-operator cost breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// The stage the cost was charged to.
    pub stage: Stage,
    /// Number of frames charged.
    pub frames: u64,
    /// Virtual milliseconds charged (`frames × per-frame cost`).
    pub virtual_ms: f64,
}

/// Accumulated virtual time and per-stage invocation counts.
///
/// Cheap to clone (`Arc` internally); clones share the same ledger.
///
/// The ledger stores only *frame counts* per stage; all millisecond totals
/// are derived as `count × per-frame cost` on read. This makes charging
/// exactly associative: charging a stage once for a whole batch produces the
/// same totals, bit for bit, as charging it frame by frame — the property
/// the batched operator pipeline's parity guarantee rests on. Counts live in
/// per-stage arrays in [`Stage::ALL`] order and attribution in one row per
/// user; every reader walks [`Stage::ALL`] and reads an absent user as zero.
///
/// Detector attribution is settled after the pass
/// ([`DetectionCache::attribute_detections`](crate::DetectionCache::attribute_detections)):
/// the cache sums each user's shares under its own lock, releases it, and
/// hands the sums over in one [`CostLedger::settle_attribution`] call. No
/// ledger method takes another lock while holding the ledger's, and no
/// caller holds the cache lock while charging the ledger.
#[derive(Debug, Clone)]
pub struct CostLedger {
    model: CostModel,
    inner: Arc<Mutex<LedgerInner>>,
}

/// Per-query attributed share of the shared bill, one row of a
/// [`SharedCost`] breakdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryCostShare {
    /// Query name (registration label in the shared runtime).
    pub query: String,
    /// Virtual milliseconds attributed to this query: its equal split of
    /// every shared charge it participated in (decode across all queries,
    /// filter inference across the backend's users, each detected frame
    /// across the queries that used it).
    pub attributed_ms: f64,
    /// Virtual milliseconds the query would have paid running in isolation
    /// (its private as-if-isolated ledger total).
    pub isolated_ms: f64,
}

impl QueryCostShare {
    /// Virtual milliseconds the query saved by sharing the stream pass.
    pub fn saved_ms(&self) -> f64 {
        self.isolated_ms - self.attributed_ms
    }
}

/// The shared-vs-isolated cost breakdown of a multi-query stream pass: work
/// performed once (one decode, one filter inference per backend×frame, one
/// detector invocation per frame in the union) is charged once globally and
/// split among the queries that consumed it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharedCost {
    /// Per-query attribution rows, in registration order. The attributed
    /// columns sum to [`SharedCost::shared_total_ms`] (up to rounding).
    pub queries: Vec<QueryCostShare>,
    /// Total virtual milliseconds the shared pass actually charged.
    pub shared_total_ms: f64,
    /// Total virtual milliseconds the same queries would have charged run in
    /// isolation (sum of the per-query isolated ledgers).
    pub isolated_total_ms: f64,
}

impl SharedCost {
    /// Virtual milliseconds saved by sharing (isolated − shared).
    pub fn saved_ms(&self) -> f64 {
        self.isolated_total_ms - self.shared_total_ms
    }

    /// Speedup factor of the shared pass over isolated execution.
    pub fn speedup(&self) -> f64 {
        if self.shared_total_ms <= 0.0 {
            1.0
        } else {
            self.isolated_total_ms / self.shared_total_ms
        }
    }

    /// A multi-line human-readable breakdown.
    pub fn summary(&self) -> String {
        let mut lines = vec![format!(
            "shared pass: {:.2} s vs {:.2} s isolated ({:.2}x)",
            self.shared_total_ms / 1000.0,
            self.isolated_total_ms / 1000.0,
            self.speedup()
        )];
        for share in &self.queries {
            lines.push(format!(
                "  {:<12} attributed={:.2} s  isolated={:.2} s  saved={:.2} s",
                share.query,
                share.attributed_ms / 1000.0,
                share.isolated_ms / 1000.0,
                share.saved_ms() / 1000.0
            ));
        }
        lines.join("\n")
    }

    /// Rolls the per-statement rows up into named groups — the fleet
    /// runtime's per-camera and per-tenant billing views. `group_of` maps a
    /// row index (registration order, i.e. the global user id under the
    /// fleet's identity assignment) to its group key; rows mapping to the
    /// same key sum. Groups come back sorted by key, and their attributed /
    /// isolated columns sum to the corresponding [`SharedCost`] totals.
    pub fn rollup(&self, group_of: impl Fn(usize) -> String) -> Vec<GroupCost> {
        let mut groups: std::collections::BTreeMap<String, GroupCost> = std::collections::BTreeMap::new();
        for (i, share) in self.queries.iter().enumerate() {
            let key = group_of(i);
            let entry = groups.entry(key.clone()).or_insert_with(|| GroupCost {
                group: key,
                statements: 0,
                attributed_ms: 0.0,
                isolated_ms: 0.0,
            });
            entry.statements += 1;
            entry.attributed_ms += share.attributed_ms;
            entry.isolated_ms += share.isolated_ms;
        }
        groups.into_values().collect()
    }
}

/// One rolled-up row of a [`SharedCost::rollup`]: the summed attribution of
/// every statement in a group (a camera, a tenant, …).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupCost {
    /// Group key (e.g. `camera-17` or a tenant name).
    pub group: String,
    /// Number of statements rolled into the group.
    pub statements: usize,
    /// Summed attributed share of the shared bill.
    pub attributed_ms: f64,
    /// Summed as-if-isolated cost.
    pub isolated_ms: f64,
}

impl GroupCost {
    /// Virtual milliseconds the group saved by sharing the fleet pass.
    pub fn saved_ms(&self) -> f64 {
        self.isolated_ms - self.attributed_ms
    }
}

/// Per-stage frame counts, indexed in [`Stage::ALL`] order.
type StageFrames = [u64; Stage::ALL.len()];

#[derive(Debug, Default)]
struct LedgerInner {
    invocations: StageFrames,
    calibration: StageFrames,
    audit: StageFrames,
    /// Fractional per-query frame attribution of shared charges: row `user`,
    /// column [`Stage::index`] (fractions from equal splits). A user past
    /// the end has nothing attributed.
    attribution: Vec<[f64; Stage::ALL.len()]>,
}

impl LedgerInner {
    /// `user`'s attribution row, grown on first use.
    fn row(&mut self, user: usize) -> &mut [f64; Stage::ALL.len()] {
        if user >= self.attribution.len() {
            self.attribution.resize(user + 1, [0.0; Stage::ALL.len()]);
        }
        &mut self.attribution[user]
    }

    fn attributed(&self, user: usize, stage: Stage) -> f64 {
        self.attribution.get(user).map_or(0.0, |row| row[stage.index()])
    }
}

impl CostLedger {
    /// Creates a ledger with the given cost model.
    pub fn new(model: CostModel) -> Self {
        CostLedger { model, inner: Arc::new(Mutex::new(LedgerInner::default())) }
    }

    /// Creates a ledger priced with the paper's costs.
    pub fn paper() -> Self {
        CostLedger::new(CostModel::paper())
    }

    /// Charges `frames` frames to `stage` (a batch of one for the eager,
    /// per-frame call sites).
    pub fn charge(&self, stage: Stage, frames: u64) {
        self.inner.lock().invocations[stage.index()] += frames;
    }

    /// Charges `frames` frames to `stage` as *calibration* work: the charge
    /// counts towards all totals exactly like [`CostLedger::charge`] (so
    /// speedup accounting stays honest), but is additionally tracked
    /// separately so reports can state how much of the bill the adaptive
    /// planner's calibration phase was responsible for.
    pub fn charge_calibration(&self, stage: Stage, frames: u64) {
        let mut inner = self.inner.lock();
        inner.invocations[stage.index()] += frames;
        inner.calibration[stage.index()] += frames;
    }

    /// Charges `frames` frames to `stage` as *audit* work: the drift
    /// monitor's recall sentinel (randomly escalated filter-rejected frames)
    /// and any catch-up detections a mid-stream replan triggers. Like
    /// [`CostLedger::charge_calibration`] the charge counts towards all
    /// totals — audit work is never free — but is additionally tracked
    /// separately so reports can state what the drift monitor cost.
    pub fn charge_audit(&self, stage: Stage, frames: u64) {
        let mut inner = self.inner.lock();
        inner.invocations[stage.index()] += frames;
        inner.audit[stage.index()] += frames;
    }

    /// Charges `frames` frames to `stage` once globally and splits the
    /// attribution equally among `users` (query indices): the shared
    /// runtime's charging primitive for work performed once on behalf of
    /// several queries (decode, shared filter inference).
    pub fn charge_shared(&self, stage: Stage, frames: u64, users: &[usize]) {
        let mut inner = self.inner.lock();
        inner.invocations[stage.index()] += frames;
        if users.is_empty() {
            return;
        }
        let share = frames as f64 / users.len() as f64;
        for &user in users {
            inner.row(user)[stage.index()] += share;
        }
    }

    /// Adds `frames` (fractional) to `user`'s attribution for `stage`
    /// *without* charging the global totals — used when the global charge
    /// already happened (a detection cache miss) and only the split is being
    /// settled afterwards, once the full set of consumers is known.
    pub fn attribute(&self, stage: Stage, user: usize, frames: f64) {
        self.inner.lock().row(user)[stage.index()] += frames;
    }

    /// Clears every user's attribution for `stage` (the global charges are
    /// untouched). Lets a settlement pass that knows the *full* consumer
    /// sets — [`DetectionCache::attribute_detections`](crate::DetectionCache) —
    /// recompute the split idempotently instead of accumulating duplicates.
    pub fn clear_attribution(&self, stage: Stage) {
        for row in &mut self.inner.lock().attribution {
            row[stage.index()] = 0.0;
        }
    }

    /// Replaces every user's attribution for `stage` with `frames[user]`
    /// (none for a user past its end) under one lock: the settlement step of
    /// [`DetectionCache::attribute_detections`](crate::DetectionCache::attribute_detections),
    /// which sums each user's shares first and hands the sums over at once.
    /// Equals [`CostLedger::clear_attribution`] followed by one
    /// [`CostLedger::attribute`] per user, bit for bit: a cleared entry is
    /// `0.0`, and `0.0 + s == s`.
    pub fn settle_attribution(&self, stage: Stage, frames: &[f64]) {
        let mut inner = self.inner.lock();
        if frames.len() > inner.attribution.len() {
            inner.row(frames.len() - 1);
        }
        for (user, row) in inner.attribution.iter_mut().enumerate() {
            row[stage.index()] = frames.get(user).copied().unwrap_or(0.0);
        }
    }

    /// Fractional frames attributed to `user` for `stage`.
    pub fn attributed_frames(&self, stage: Stage, user: usize) -> f64 {
        self.inner.lock().attributed(user, stage)
    }

    /// Virtual milliseconds attributed to `user` across all stages.
    pub fn attributed_ms(&self, user: usize) -> f64 {
        let inner = self.inner.lock();
        Stage::ALL.iter().map(|&s| self.model.cost_ms(s) * inner.attributed(user, s)).sum()
    }

    /// Builds the [`SharedCost`] breakdown of this (global) ledger:
    /// one row per query, pairing its attributed share of the shared bill
    /// with the isolated cost the caller measured for it.
    pub fn shared_cost(&self, queries: &[(String, f64)]) -> SharedCost {
        let rows: Vec<QueryCostShare> = queries
            .iter()
            .enumerate()
            .map(|(user, (query, isolated_ms))| QueryCostShare {
                query: query.clone(),
                attributed_ms: self.attributed_ms(user),
                isolated_ms: *isolated_ms,
            })
            .collect();
        let isolated_total_ms = rows.iter().map(|r| r.isolated_ms).sum();
        SharedCost { queries: rows, shared_total_ms: self.total_ms(), isolated_total_ms }
    }

    /// Number of frames charged to a stage during calibration.
    pub fn calibration_invocations(&self, stage: Stage) -> u64 {
        self.inner.lock().calibration[stage.index()]
    }

    /// Number of frames charged to a stage by the drift monitor's audit
    /// channel.
    pub fn audit_invocations(&self, stage: Stage) -> u64 {
        self.inner.lock().audit[stage.index()]
    }

    /// Virtual milliseconds charged by the drift monitor's audit channel (a
    /// subset of [`CostLedger::total_ms`], never an addition to it).
    pub fn audit_ms(&self) -> f64 {
        self.frames_ms(&self.inner.lock().audit)
    }

    /// The [`Stage`]-tagged audit cost breakdown, in [`Stage::ALL`] order
    /// (one entry per stage charged at least one audit frame).
    pub fn audit_breakdown(&self) -> Vec<StageCost> {
        self.stage_costs(&self.inner.lock().audit)
    }

    /// Virtual milliseconds charged during the calibration phase (a subset of
    /// [`CostLedger::total_ms`], never an addition to it).
    pub fn calibration_ms(&self) -> f64 {
        self.frames_ms(&self.inner.lock().calibration)
    }

    /// The [`Stage`]-tagged calibration cost breakdown, in [`Stage::ALL`]
    /// order (one entry per stage charged at least one calibration frame).
    pub fn calibration_breakdown(&self) -> Vec<StageCost> {
        self.stage_costs(&self.inner.lock().calibration)
    }

    /// Total accumulated virtual time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.frames_ms(&self.inner.lock().invocations)
    }

    /// Number of frames charged to a stage.
    pub fn invocations(&self, stage: Stage) -> u64 {
        self.inner.lock().invocations[stage.index()]
    }

    /// Virtual milliseconds charged to a stage.
    pub fn stage_ms(&self, stage: Stage) -> f64 {
        self.model.cost_ms(stage) * self.invocations(stage) as f64
    }

    /// The [`Stage`]-tagged cost breakdown: one entry per stage that was
    /// charged at least one frame, in [`Stage::ALL`] order.
    pub fn breakdown(&self) -> Vec<StageCost> {
        self.stage_costs(&self.inner.lock().invocations)
    }

    /// Virtual milliseconds of `frames`, summed in [`Stage::ALL`] order.
    fn frames_ms(&self, frames: &StageFrames) -> f64 {
        Stage::ALL.iter().zip(frames).map(|(&stage, &frames)| self.model.cost_ms(stage) * frames as f64).sum()
    }

    /// One [`StageCost`] per stage with at least one frame in `frames`, in
    /// [`Stage::ALL`] order.
    fn stage_costs(&self, frames: &StageFrames) -> Vec<StageCost> {
        Stage::ALL
            .iter()
            .zip(frames)
            .filter(|(_, &frames)| frames > 0)
            .map(|(&stage, &frames)| StageCost { stage, frames, virtual_ms: self.model.cost_ms(stage) * frames as f64 })
            .collect()
    }

    /// The underlying cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Resets the ledger to zero (the cost model is kept).
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        *inner = LedgerInner::default();
    }

    /// A multi-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut lines = vec![format!("total virtual time: {:.2} s", self.total_ms() / 1000.0)];
        for cost in self.breakdown() {
            lines.push(format!(
                "  {:<10} frames={:<8} time={:.2} s",
                cost.stage.name(),
                cost.frames,
                cost.virtual_ms / 1000.0
            ));
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_costs_match_section_iv() {
        let m = CostModel::paper();
        assert_eq!(m.cost_ms(Stage::MaskRcnn), 200.0);
        assert_eq!(m.cost_ms(Stage::IcFilter), 1.5);
        assert_eq!(m.cost_ms(Stage::OdFilter), 1.9);
    }

    #[test]
    fn stage_index_is_the_position_in_all() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i, "{stage:?}");
        }
    }

    #[test]
    fn ledger_accumulates() {
        let ledger = CostLedger::paper();
        ledger.charge(Stage::MaskRcnn, 10);
        ledger.charge(Stage::IcFilter, 100);
        assert_eq!(ledger.invocations(Stage::MaskRcnn), 10);
        assert_eq!(ledger.invocations(Stage::IcFilter), 100);
        assert!((ledger.total_ms() - (2000.0 + 150.0)).abs() < 1e-9);
        assert!((ledger.stage_ms(Stage::IcFilter) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn clones_share_state() {
        let ledger = CostLedger::paper();
        let clone = ledger.clone();
        clone.charge(Stage::OdFilter, 2);
        assert_eq!(ledger.invocations(Stage::OdFilter), 2);
    }

    #[test]
    fn reset_clears_totals() {
        let ledger = CostLedger::paper();
        ledger.charge(Stage::Decode, 5);
        ledger.reset();
        assert_eq!(ledger.total_ms(), 0.0);
        assert_eq!(ledger.invocations(Stage::Decode), 0);
    }

    #[test]
    fn batch_charging_matches_eager_charging_exactly() {
        let eager = CostLedger::paper();
        for _ in 0..7 {
            eager.charge(Stage::OdFilter, 1);
            eager.charge(Stage::Decode, 1);
        }
        let batched = CostLedger::paper();
        batched.charge(Stage::OdFilter, 7);
        batched.charge(Stage::Decode, 7);
        assert_eq!(eager.total_ms().to_bits(), batched.total_ms().to_bits());
        assert_eq!(eager.stage_ms(Stage::OdFilter).to_bits(), batched.stage_ms(Stage::OdFilter).to_bits());
    }

    #[test]
    fn breakdown_is_stage_tagged_and_ordered() {
        let ledger = CostLedger::paper();
        ledger.charge(Stage::MaskRcnn, 3);
        ledger.charge(Stage::Decode, 10);
        let breakdown = ledger.breakdown();
        assert_eq!(breakdown.len(), 2);
        assert_eq!(breakdown[0].stage, Stage::Decode);
        assert_eq!(breakdown[0].frames, 10);
        assert!((breakdown[0].virtual_ms - 0.5).abs() < 1e-12);
        assert_eq!(breakdown[1].stage, Stage::MaskRcnn);
        assert!((breakdown[1].virtual_ms - 600.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_charges_count_towards_totals_and_are_tracked() {
        let ledger = CostLedger::paper();
        ledger.charge_calibration(Stage::MaskRcnn, 4);
        ledger.charge(Stage::MaskRcnn, 6);
        ledger.charge(Stage::OdFilter, 10);
        assert_eq!(ledger.invocations(Stage::MaskRcnn), 10);
        assert_eq!(ledger.calibration_invocations(Stage::MaskRcnn), 4);
        assert_eq!(ledger.calibration_invocations(Stage::OdFilter), 0);
        assert!((ledger.calibration_ms() - 800.0).abs() < 1e-9);
        assert!((ledger.total_ms() - (2000.0 + 19.0)).abs() < 1e-9);
        let breakdown = ledger.calibration_breakdown();
        assert_eq!(breakdown.len(), 1);
        assert_eq!(breakdown[0].stage, Stage::MaskRcnn);
        assert_eq!(breakdown[0].frames, 4);
    }

    #[test]
    fn audit_charges_count_towards_totals_and_are_tracked() {
        let ledger = CostLedger::paper();
        ledger.charge_audit(Stage::MaskRcnn, 3);
        ledger.charge(Stage::MaskRcnn, 7);
        ledger.charge_calibration(Stage::MaskRcnn, 2);
        assert_eq!(ledger.invocations(Stage::MaskRcnn), 12);
        assert_eq!(ledger.audit_invocations(Stage::MaskRcnn), 3);
        assert_eq!(ledger.calibration_invocations(Stage::MaskRcnn), 2);
        assert_eq!(ledger.audit_invocations(Stage::OdFilter), 0);
        assert!((ledger.audit_ms() - 600.0).abs() < 1e-9);
        assert!((ledger.total_ms() - 2400.0).abs() < 1e-9, "audit is a subset of the total, not an addition");
        let breakdown = ledger.audit_breakdown();
        assert_eq!(breakdown.len(), 1);
        assert_eq!(breakdown[0].stage, Stage::MaskRcnn);
        assert_eq!(breakdown[0].frames, 3);
        assert!((breakdown[0].virtual_ms - 600.0).abs() < 1e-12);
    }

    #[test]
    fn audit_resets_with_the_ledger() {
        let ledger = CostLedger::paper();
        ledger.charge_audit(Stage::MaskRcnn, 5);
        ledger.reset();
        assert_eq!(ledger.audit_ms(), 0.0);
        assert!(ledger.audit_breakdown().is_empty());
        assert_eq!(ledger.audit_invocations(Stage::MaskRcnn), 0);
    }

    #[test]
    fn calibration_resets_with_the_ledger() {
        let ledger = CostLedger::paper();
        ledger.charge_calibration(Stage::IcFilter, 7);
        ledger.reset();
        assert_eq!(ledger.calibration_ms(), 0.0);
        assert!(ledger.calibration_breakdown().is_empty());
    }

    #[test]
    fn shared_charges_split_attribution_but_count_once_globally() {
        let ledger = CostLedger::paper();
        // Decode shared by three queries, OD inference by two, and one
        // detected frame settled after the fact between queries 0 and 2.
        ledger.charge_shared(Stage::Decode, 90, &[0, 1, 2]);
        ledger.charge_shared(Stage::OdFilter, 90, &[0, 2]);
        ledger.charge(Stage::MaskRcnn, 1);
        ledger.attribute(Stage::MaskRcnn, 0, 0.5);
        ledger.attribute(Stage::MaskRcnn, 2, 0.5);
        assert_eq!(ledger.invocations(Stage::Decode), 90);
        assert_eq!(ledger.invocations(Stage::OdFilter), 90);
        assert!((ledger.attributed_frames(Stage::Decode, 1) - 30.0).abs() < 1e-12);
        assert!((ledger.attributed_frames(Stage::OdFilter, 1)).abs() < 1e-12);
        assert!((ledger.attributed_frames(Stage::OdFilter, 0) - 45.0).abs() < 1e-12);
        // attributed_ms: q0 = 30×0.05 + 45×1.9 + 0.5×200.
        assert!((ledger.attributed_ms(0) - (30.0 * 0.05 + 45.0 * 1.9 + 100.0)).abs() < 1e-9);
        // The per-query attributions sum to the global total.
        let total: f64 = (0..3).map(|q| ledger.attributed_ms(q)).sum();
        assert!((total - ledger.total_ms()).abs() < 1e-9, "attributed {total} vs charged {}", ledger.total_ms());
    }

    #[test]
    fn shared_cost_breakdown_pairs_attribution_with_isolated_bills() {
        let ledger = CostLedger::paper();
        ledger.charge_shared(Stage::MaskRcnn, 10, &[0, 1]);
        let report = ledger.shared_cost(&[("q1".to_string(), 2000.0), ("q2".to_string(), 2000.0)]);
        assert_eq!(report.queries.len(), 2);
        assert_eq!(report.queries[0].query, "q1");
        assert!((report.queries[0].attributed_ms - 1000.0).abs() < 1e-9);
        assert!((report.queries[0].saved_ms() - 1000.0).abs() < 1e-9);
        assert!((report.shared_total_ms - 2000.0).abs() < 1e-9);
        assert!((report.isolated_total_ms - 4000.0).abs() < 1e-9);
        assert!((report.speedup() - 2.0).abs() < 1e-9);
        assert!((report.saved_ms() - 2000.0).abs() < 1e-9);
        assert!(report.summary().contains("q2"));
    }

    #[test]
    fn attribution_resets_with_the_ledger_too() {
        let ledger = CostLedger::paper();
        ledger.charge_shared(Stage::IcFilter, 8, &[0]);
        ledger.reset();
        assert_eq!(ledger.attributed_ms(0), 0.0);
        assert_eq!(ledger.attributed_frames(Stage::IcFilter, 0), 0.0);
    }

    #[test]
    fn summary_mentions_used_stages() {
        let ledger = CostLedger::paper();
        ledger.charge(Stage::MaskRcnn, 1);
        let s = ledger.summary();
        assert!(s.contains("mask-rcnn"));
        assert!(!s.contains("od-filter"));
    }
}
