//! Filter-cascade planning: deciding whether a frame can possibly satisfy a
//! query from the cheap filter estimate alone.
//!
//! The paper's Table III pairs each query with the most selective filter
//! combination that still reaches 100 % accuracy — e.g. `OD-CCF-1 / OD-CLF-2`
//! means per-class counts are checked with a ±1 tolerance and spatial
//! constraints with a 2-cell location tolerance. [`CascadeConfig`] carries
//! those tolerances and [`FilterCascade`] performs the approximate check; a
//! frame that fails is dropped without ever reaching the expensive detector.
//!
//! The check itself is compiled. An [`AtomTable`] holds every *distinct*
//! check ("atom") of the statements registered against one filter backend,
//! keyed by what its verdict depends on; per frame the estimate is reduced
//! once to a bit-packed [`OccupancySummary`] and each atom is evaluated at
//! most once, so N statements built from the same few predicates cost those
//! few atoms plus one AND each. A [`FilterCascade`] is a table holding a
//! single statement.

use crate::ast::{CountOp, CountTarget, Predicate, Query};
use crate::catalog::RegionCatalog;
use crate::spatial::SpatialRelation;
use serde::{Deserialize, Serialize};
use vmq_filters::{BitGrid, CountEstimate, FilterEstimate, FrameFilter, OccupancySummary, SummarySpec};

/// Tolerances of the approximate cascade check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CascadeConfig {
    /// Count tolerance: a count predicate is considered possibly-satisfied
    /// when the estimate is within this distance of satisfying it
    /// (0 ⇒ `CCF`, 1 ⇒ `CCF-1`, 2 ⇒ `CCF-2`).
    pub count_tolerance: u32,
    /// Location tolerance in grid cells: predicted occupancy grids are
    /// dilated by this Manhattan radius before spatial predicates are
    /// evaluated (0 ⇒ `CLF`, 1 ⇒ `CLF-1`, 2 ⇒ `CLF-2`).
    pub location_tolerance: usize,
}

impl CascadeConfig {
    /// Exact counts, exact locations (the most selective, least safe combo).
    pub fn strict() -> Self {
        CascadeConfig { count_tolerance: 0, location_tolerance: 0 }
    }

    /// The combination most of Table III settles on: counts within ±1,
    /// locations dilated by one cell.
    pub fn tolerant() -> Self {
        CascadeConfig { count_tolerance: 1, location_tolerance: 1 }
    }

    /// The loosest combination used in Table III (q7): ±1 counts, 2-cell
    /// location tolerance.
    pub fn loose() -> Self {
        CascadeConfig { count_tolerance: 1, location_tolerance: 2 }
    }

    /// The full Table III candidate lattice: every CCF/CCF-1/CCF-2 ×
    /// CLF/CLF-1/CLF-2 combination, scanned count-tolerance-major from most
    /// to least selective. This is the search space of the adaptive planner;
    /// the named presets cover only three of its nine points.
    pub fn lattice() -> Vec<CascadeConfig> {
        let mut configs = Vec::with_capacity(9);
        for count_tolerance in 0..=2u32 {
            for location_tolerance in 0..=2usize {
                configs.push(CascadeConfig { count_tolerance, location_tolerance });
            }
        }
        configs
    }

    /// A Table III style label for running `query` under these tolerances
    /// behind `filter`, e.g. "OD-CCF-1/OD-CLF-2" for an OD filter.
    pub fn label_for(&self, query: &Query, filter: &dyn FrameFilter) -> String {
        let prefix = filter.kind().name();
        self.label(query.has_spatial_constraints())
            .split('/')
            .map(|part| format!("{prefix}-{part}"))
            .collect::<Vec<_>>()
            .join("/")
    }

    /// A short name in the style of Table III, e.g. "CCF-1/CLF-2".
    pub fn label(&self, has_spatial: bool) -> String {
        let ccf = if self.count_tolerance == 0 { "CCF".to_string() } else { format!("CCF-{}", self.count_tolerance) };
        if has_spatial {
            let clf = if self.location_tolerance == 0 {
                "CLF".to_string()
            } else {
                format!("CLF-{}", self.location_tolerance)
            };
            format!("{ccf}/{clf}")
        } else {
            ccf
        }
    }
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig::tolerant()
    }
}

/// Index of a compiled cascade atom in its [`AtomTable`].
pub type AtomId = u32;
/// Index of a compiled control-variate indicator in its [`AtomTable`].
pub type IndicatorId = u32;

/// Which count estimate a count atom reads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CountSlot {
    Total,
    /// A slot of the table's [`SummarySpec`].
    Class(usize),
}

/// One distinct approximate check, keyed by exactly what its verdict depends
/// on, so equal predicates of different statements — or of one statement at
/// the same tolerance — compile to the same atom. Layers and masks are
/// slots of the table's [`SummarySpec`].
#[derive(Debug, Clone, PartialEq)]
enum Atom {
    /// Nothing the filter sees can refute the predicate (a colour-blind
    /// upper bound, `min_count = 0`).
    Always,
    Count {
        slot: CountSlot,
        op: CountOp,
        value: i64,
        tolerance: i64,
    },
    Spatial {
        first: usize,
        second: usize,
        relation: SpatialRelation,
        tolerance: usize,
    },
    /// Presence inside a region; `mask` is `None` for a region name the
    /// catalogue does not know, which no frame can satisfy.
    Region {
        layer: usize,
        mask: Option<usize>,
    },
}

/// One distinct graded control of [`FilterCascade::cv_indicators`].
#[derive(Debug, Clone, PartialEq)]
enum Indicator {
    /// The cascade atom's verdict as `0.0` / `1.0`.
    Atom(AtomId),
    CountExactly {
        slot: CountSlot,
        value: i64,
        tolerance: i64,
    },
    Spatial {
        first: usize,
        second: usize,
        relation: SpatialRelation,
    },
    Region {
        layer: usize,
        mask: usize,
        min_count: u32,
    },
}

/// Every distinct cascade atom and control-variate indicator compiled
/// against one filter backend.
///
/// Statements compile into ids ([`AtomTable::compile_select`],
/// [`AtomTable::compile_indicators`]); [`AtomTable::evaluate`] then reduces
/// each estimate to an [`OccupancySummary`] once and evaluates every atom at
/// most once per frame, however many statements subscribe to it. Verdicts on
/// finite estimates equal the per-statement threshold → dilate → scan check
/// bit for bit (indicators by `f64::to_bits`); a count or grid the filter
/// reports as NaN or infinite makes the atoms reading it *possible*, exactly
/// like a class the filter was never trained on, so a broken estimate can
/// escalate a frame but never drop one.
#[derive(Debug, Clone, Default)]
pub struct AtomTable {
    thresholds: Vec<f32>,
    spec: SummarySpec,
    atoms: Vec<Atom>,
    indicators: Vec<Indicator>,
}

/// Verdicts of one [`AtomTable`] over a batch of estimates.
///
/// Each atom's verdicts are kept as frame bit-words: bit `i % 64` of the
/// atom's word `i / 64` is its verdict on the batch's `i`-th estimate, so a
/// statement's cascade decision over the whole batch is an AND of a few
/// words ([`AtomVerdicts::pass_words`]).
#[derive(Debug)]
pub struct AtomVerdicts {
    /// Words per atom: the batch length over 64, rounded up.
    words: usize,
    frames: usize,
    indicators: usize,
    /// Atom-major: atom `a`'s words are `bits[a * words..][..words]`.
    bits: Vec<u64>,
    values: Vec<f64>,
}

impl AtomVerdicts {
    /// Verdict of one atom on the batch's `frame`-th estimate.
    pub fn atom(&self, frame: usize, id: AtomId) -> bool {
        self.bits[id as usize * self.words + frame / 64] >> (frame % 64) & 1 == 1
    }

    /// The batch positions on which every listed atom holds — the cascade
    /// decision of the statement the ids were compiled for — as frame
    /// bit-words written to `out` (bit `i % 64` of word `i / 64` for the
    /// `i`-th estimate; bits past the batch stay clear). An empty list passes
    /// every frame.
    pub fn pass_words(&self, atoms: &[AtomId], out: &mut Vec<u64>) {
        out.clear();
        out.extend(frame_words(self.frames));
        for &id in atoms {
            let words = &self.bits[id as usize * self.words..][..self.words];
            for (word, &atom) in out.iter_mut().zip(words) {
                *word &= atom;
            }
        }
    }

    /// Value of one indicator on the batch's `frame`-th estimate.
    pub fn indicator(&self, frame: usize, id: IndicatorId) -> f64 {
        self.values[frame * self.indicators + id as usize]
    }
}

/// The bit-words of a batch of `frames` frames with every frame set.
pub(crate) fn frame_words(frames: usize) -> impl Iterator<Item = u64> {
    (0..frames.div_ceil(64)).map(move |w| u64::MAX >> (64 - (frames - w * 64).min(64)))
}

pub(crate) fn intern<T: PartialEq>(items: &mut Vec<T>, item: T) -> u32 {
    let index = items.iter().position(|known| *known == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    });
    u32::try_from(index).expect("fewer than 2^32 distinct atoms")
}

fn count_possible(op: CountOp, estimated: i64, value: i64, tolerance: i64) -> bool {
    match op {
        CountOp::Exactly => (estimated - value).abs() <= tolerance,
        CountOp::AtLeast => estimated >= value - tolerance,
        CountOp::AtMost => estimated <= value + tolerance,
    }
}

/// [`SpatialRelation::pair_fraction`] on bit grids: the fraction of occupied
/// cell pairs `(x, y)` with `index(x) < index(y)` along the chosen axis.
fn ordered_pair_fraction(x: &BitGrid, y: &BitGrid, by_col: bool) -> f64 {
    let (hx, hy) = (x.axis_counts(by_col), y.axis_counts(by_col));
    let (tx, ty) = (hx.iter().sum::<u64>(), hy.iter().sum::<u64>());
    if tx == 0 || ty == 0 {
        return 0.0;
    }
    let mut pairs = 0u64;
    let mut x_before = 0u64;
    for i in 1..x.size() {
        x_before += hx[i - 1];
        pairs += x_before * hy[i];
    }
    pairs as f64 / (tx as f64 * ty as f64)
}

impl AtomTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct cascade atoms compiled so far.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    fn count_slot(&mut self, target: &CountTarget) -> CountSlot {
        match target {
            CountTarget::Total => CountSlot::Total,
            CountTarget::Class(class) | CountTarget::ClassColor(class, _) => {
                CountSlot::Class(self.spec.count_slot(*class))
            }
        }
    }

    /// Compiles a predicate's cascade check; grids are binarised at the
    /// threshold in `slot`.
    fn atom_for(&mut self, predicate: &Predicate, catalog: &RegionCatalog, config: CascadeConfig, slot: usize) -> Atom {
        match predicate {
            Predicate::Count { target, op, value } => {
                let op = match (target, op) {
                    // Filters are colour-blind: the class count upper-bounds
                    // the coloured count, so only a lower bound can be
                    // refuted.
                    (CountTarget::ClassColor(..), CountOp::AtMost) => return Atom::Always,
                    (CountTarget::ClassColor(..), _) => CountOp::AtLeast,
                    (_, op) => *op,
                };
                Atom::Count {
                    slot: self.count_slot(target),
                    op,
                    value: i64::from(*value),
                    tolerance: i64::from(config.count_tolerance),
                }
            }
            Predicate::Spatial { first, relation, second } => Atom::Spatial {
                first: self.spec.layer_slot(first.class, slot),
                second: self.spec.layer_slot(second.class, slot),
                relation: *relation,
                tolerance: config.location_tolerance,
            },
            Predicate::Region { object, region, min_count } => {
                let layer = self.spec.layer_slot(object.class, slot);
                match catalog.get(region) {
                    None => Atom::Region { layer, mask: None },
                    Some(_) if *min_count == 0 => Atom::Always,
                    // A grid cannot count objects inside the region
                    // reliably, so the cascade only requires presence (an
                    // occupied cell within the location tolerance of the
                    // region) — a conservative, no-false-drop check for any
                    // min_count ≥ 1.
                    Some(r) => Atom::Region { layer, mask: Some(self.spec.mask_slot(r, config.location_tolerance)) },
                }
            }
        }
    }

    fn threshold_slot(&mut self, threshold: f32) -> usize {
        intern(&mut self.thresholds, threshold) as usize
    }

    /// Compiles the cascade of `query` under `config`, with grids binarised
    /// at `threshold`: one atom id per predicate, in declaration order. The
    /// statement passes a frame when all of them hold
    /// ([`AtomVerdicts::pass_words`]).
    pub fn compile_select(&mut self, query: &Query, config: CascadeConfig, threshold: f32) -> Box<[AtomId]> {
        let slot = self.threshold_slot(threshold);
        query
            .predicates
            .iter()
            .map(|predicate| {
                let atom = self.atom_for(predicate, &query.catalog, config, slot);
                intern(&mut self.atoms, atom)
            })
            .collect()
    }

    /// Compiles the control-variate indicators of `query` (see
    /// [`FilterCascade::cv_indicators`]): one indicator id per predicate, in
    /// declaration order.
    pub fn compile_indicators(&mut self, query: &Query, config: CascadeConfig, threshold: f32) -> Box<[IndicatorId]> {
        let slot = self.threshold_slot(threshold);
        query
            .predicates
            .iter()
            .map(|predicate| {
                let indicator = match predicate {
                    Predicate::Region { object, region, min_count } if *min_count > 0 => {
                        query.catalog.get(region).map(|r| Indicator::Region {
                            layer: self.spec.layer_slot(object.class, slot),
                            // No dilation: tolerance is a conservativeness
                            // mechanism a control does not need.
                            mask: self.spec.mask_slot(r, 0),
                            min_count: *min_count,
                        })
                    }
                    Predicate::Spatial { first, relation, second } => Some(Indicator::Spatial {
                        first: self.spec.layer_slot(first.class, slot),
                        second: self.spec.layer_slot(second.class, slot),
                        relation: *relation,
                    }),
                    Predicate::Count {
                        target: target @ (CountTarget::Total | CountTarget::Class(_)),
                        op: CountOp::Exactly,
                        value,
                    } => Some(Indicator::CountExactly {
                        slot: self.count_slot(target),
                        value: i64::from(*value),
                        tolerance: i64::from(config.count_tolerance),
                    }),
                    _ => None,
                };
                let indicator = indicator.unwrap_or_else(|| {
                    let atom = self.atom_for(predicate, &query.catalog, config, slot);
                    Indicator::Atom(intern(&mut self.atoms, atom))
                });
                intern(&mut self.indicators, indicator)
            })
            .collect()
    }

    /// Evaluates every atom and indicator once per estimate, in batch order.
    pub fn evaluate(&self, estimates: &[FilterEstimate]) -> AtomVerdicts {
        self.evaluate_at(&self.thresholds, estimates, true)
    }

    /// [`AtomTable::evaluate`] with the binarisation thresholds supplied by
    /// the caller (slot order), optionally skipping the indicators.
    fn evaluate_at(&self, thresholds: &[f32], estimates: &[FilterEstimate], graded: bool) -> AtomVerdicts {
        let (frames, indicators) = (estimates.len(), if graded { self.indicators.len() } else { 0 });
        let words = frames.div_ceil(64);
        let mut bits = vec![0u64; self.atoms.len() * words];
        let mut values = Vec::with_capacity(frames * indicators);
        // One summary for the batch: its buffers and the region masks
        // (which depend only on the grid side) carry over from frame to
        // frame.
        let mut summary = OccupancySummary::default();
        let mut row = Vec::with_capacity(self.atoms.len());
        for (i, estimate) in estimates.iter().enumerate() {
            summary.load(estimate, &self.spec, thresholds);
            row.clear();
            row.extend(self.atoms.iter().map(|atom| atom.holds(&summary)));
            for (a, &holds) in row.iter().enumerate() {
                bits[a * words + i / 64] |= u64::from(holds) << (i % 64);
            }
            if graded {
                values.extend(self.indicators.iter().map(|indicator| indicator.grade(&row, &summary)));
            }
        }
        AtomVerdicts { words, frames, indicators, bits, values }
    }
}

impl CountSlot {
    fn read(self, summary: &OccupancySummary) -> Option<CountEstimate> {
        match self {
            CountSlot::Total => summary.total(),
            CountSlot::Class(slot) => summary.count(slot),
        }
    }
}

impl Atom {
    /// Whether the frame could satisfy the atom's predicate. An unknown
    /// count or layer (untrained class, non-finite output) cannot rule the
    /// frame out.
    fn holds(&self, summary: &OccupancySummary) -> bool {
        match *self {
            Atom::Always => true,
            Atom::Count { slot, op, value, tolerance } => {
                slot.read(summary).is_none_or(|count| count_possible(op, count.rounded, value, tolerance))
            }
            Atom::Spatial { first, second, relation, tolerance } => {
                let (Some(a), Some(b)) = (summary.layer(first), summary.layer(second)) else { return true };
                let (x, y, by_col) = relation.ordered(a, b);
                let (x, y) = if by_col { (x.cols, y.cols) } else { (x.rows, y.rows) };
                let (Some((x_first, _)), Some((_, y_last))) = (x, y) else { return false };
                // Dilating by Manhattan radius `t` moves an extent out by
                // exactly `t` cells, clamped to the grid.
                x_first.saturating_sub(tolerance) < y_last.saturating_add(tolerance).min(summary.side() - 1)
            }
            Atom::Region { layer, mask } => {
                let Some(layer) = summary.layer(layer) else { return true };
                // The mask, not the occupancy, carries the dilation: a cell
                // within the tolerance of the region ⇔ the dilated occupancy
                // meets it.
                mask.is_some_and(|mask| layer.bits.intersects(summary.mask(mask)))
            }
        }
    }
}

impl Indicator {
    /// The graded control on one frame; `bits` are the frame's atom
    /// verdicts.
    fn grade(&self, bits: &[bool], summary: &OccupancySummary) -> f64 {
        let boolean = |b: bool| if b { 1.0 } else { 0.0 };
        let blend = |b: bool, score: f64| (boolean(b) + score) / 2.0;
        match *self {
            Indicator::Atom(id) => boolean(bits[id as usize]),
            Indicator::CountExactly { slot, value, tolerance } => match slot.read(summary) {
                Some(count) => {
                    let d = count.raw as f64 - value as f64;
                    blend(count_possible(CountOp::Exactly, count.rounded, value, tolerance), 1.0 / (1.0 + d * d))
                }
                None => 1.0,
            },
            Indicator::Spatial { first, second, relation } => {
                let (Some(a), Some(b)) = (summary.layer(first), summary.layer(second)) else { return 1.0 };
                let (x, y, by_col) = relation.ordered(&a.bits, &b.bits);
                let fraction = ordered_pair_fraction(x, y, by_col);
                blend(fraction > 0.0, fraction)
            }
            Indicator::Region { layer, mask, min_count } => {
                let Some(layer) = summary.layer(layer) else { return 1.0 };
                let occupied = layer.bits.count_in(summary.mask(mask));
                blend(occupied >= min_count as usize, (occupied as f64 / min_count as f64).min(1.0))
            }
        }
    }
}

/// A planned cascade: the query plus the tolerances to apply to a filter's
/// estimates, compiled into an [`AtomTable`] of its own — the same evaluator
/// the shared runtime fans N statements out of, holding one.
#[derive(Debug, Clone)]
pub struct FilterCascade {
    query: Query,
    config: CascadeConfig,
    table: AtomTable,
    atoms: Box<[AtomId]>,
    indicators: Box<[IndicatorId]>,
}

impl FilterCascade {
    /// Plans a cascade for a query.
    pub fn new(query: Query, config: CascadeConfig) -> Self {
        // The binarisation threshold arrives with each estimate, so the
        // table's single threshold slot is a placeholder.
        let mut table = AtomTable::new();
        let atoms = table.compile_select(&query, config, 0.0);
        let indicators = table.compile_indicators(&query, config, 0.0);
        FilterCascade { query, config, table, atoms, indicators }
    }

    /// The cascade configuration.
    pub fn config(&self) -> &CascadeConfig {
        &self.config
    }

    /// The query being filtered.
    pub fn query(&self) -> &Query {
        &self.query
    }

    fn verdicts(&self, estimate: &FilterEstimate, threshold: f32, graded: bool) -> AtomVerdicts {
        self.table.evaluate_at(&[threshold], std::slice::from_ref(estimate), graded)
    }

    /// Decides whether the frame could satisfy the query, given only the
    /// filter estimate. Returning `false` means the frame is safely dropped;
    /// returning `true` sends it to the expensive detector.
    pub fn passes(&self, estimate: &FilterEstimate, threshold: f32) -> bool {
        let mut pass = Vec::with_capacity(1);
        self.verdicts(estimate, threshold, false).pass_words(&self.atoms, &mut pass);
        pass[0] & 1 == 1
    }

    /// Per-predicate approximate indicators (one boolean per query predicate,
    /// in declaration order). Their conjunction equals [`FilterCascade::passes`].
    pub fn predicate_indicators(&self, estimate: &FilterEstimate, threshold: f32) -> Vec<bool> {
        let verdicts = self.verdicts(estimate, threshold, false);
        self.atoms.iter().map(|&id| verdicts.atom(0, id)).collect()
    }

    /// Per-predicate *control-variate* indicators (one value in `[0, 1]` per
    /// query predicate, in declaration order) — the controls of the
    /// (multiple-) control-variate estimators of Sec. III.
    ///
    /// Unlike [`FilterCascade::predicate_indicators`] these are tuned for
    /// *correlation* with the detector verdict rather than for
    /// conservativeness: a cascade check may never drop a true frame, but an
    /// estimator control is free to — and free to be *graded* rather than
    /// boolean, because a control only needs to co-vary with the truth. A
    /// boolean that is (nearly) constant over a stream is a dead control:
    /// zero variance means zero correlation and no variance reduction at
    /// all, which is exactly what shipped for a2/a3/a5 in the committed
    /// baseline. The graded arms below keep each column varying:
    ///
    /// Each gradable arm blends the old boolean decision with a graded score
    /// in `[0, 1]` — `(boolean + score) / 2` — so the column keeps the
    /// boolean's discrimination where the boolean varies (an accurate
    /// calibrated backend on a rare-event window) *and* keeps varying where
    /// the boolean saturates to a constant (a noisy trained backend on a
    /// busy scene, which is exactly what shipped dead columns for a2/a3/a5
    /// in the committed baseline):
    ///
    /// * **Region** — boolean `occupied ≥ min_count` inside the region,
    ///   graded by `occupied / min_count` clamped to 1 (identical to the old
    ///   boolean when `min_count ≤ 1`). No dilation: tolerance is a
    ///   conservativeness mechanism the control does not need.
    /// * **Spatial** — boolean existential relation check, graded by the
    ///   fraction of occupied cell pairs satisfying the relation
    ///   ([`SpatialRelation::pair_fraction`](crate::SpatialRelation::pair_fraction)
    ///   is positive exactly when the existential check holds, and
    ///   continuous in how robustly it holds).
    /// * **Count `Exactly`** — the tolerance boolean on the rounded
    ///   estimate, graded by the closeness kernel `1 / (1 + (est − value)²)`
    ///   of the *unrounded* estimate (the rounded equality test alone is
    ///   almost never satisfied under a noisy count head).
    /// * Everything else (`AtLeast`/`AtMost`, colour-blind class-colour
    ///   counts) — the cascade boolean as `0.0`/`1.0`.
    pub fn cv_indicators(&self, estimate: &FilterEstimate, threshold: f32) -> Vec<f64> {
        let verdicts = self.verdicts(estimate, threshold, true);
        self.indicators.iter().map(|&id| verdicts.indicator(0, id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ObjectRef;

    use vmq_filters::{ClassGrid, FilterKind};
    use vmq_video::{BoundingBox, ObjectClass};

    fn estimate(car_count: f32, car_box: Option<BoundingBox>, person_box: Option<BoundingBox>) -> FilterEstimate {
        let g = 8;
        FilterEstimate {
            classes: vec![ObjectClass::Car, ObjectClass::Person],
            counts: vec![car_count, if person_box.is_some() { 1.0 } else { 0.0 }],
            grids: vec![
                ClassGrid::from_boxes(g, &car_box.into_iter().collect::<Vec<_>>()),
                ClassGrid::from_boxes(g, &person_box.into_iter().collect::<Vec<_>>()),
            ],
            kind: FilterKind::Od,
            total_hint: None,
        }
    }

    #[test]
    fn exact_count_with_tolerance() {
        let q = Query::paper_q3();
        let strict = FilterCascade::new(q.clone(), CascadeConfig::strict());
        let tolerant = FilterCascade::new(q, CascadeConfig::tolerant());
        // estimate says 2 cars, query wants exactly 1
        let e = estimate(2.0, Some(BoundingBox::new(0.1, 0.1, 0.1, 0.1)), Some(BoundingBox::new(0.6, 0.6, 0.1, 0.1)));
        assert!(!strict.passes(&e, 0.5));
        assert!(tolerant.passes(&e, 0.5));
        // estimate says 4 cars: even the tolerant cascade drops it
        let e4 = estimate(4.0, Some(BoundingBox::new(0.1, 0.1, 0.1, 0.1)), Some(BoundingBox::new(0.6, 0.6, 0.1, 0.1)));
        assert!(!tolerant.passes(&e4, 0.5));
    }

    #[test]
    fn spatial_predicate_uses_grids() {
        let q = Query::paper_q5();
        let cascade = FilterCascade::new(q, CascadeConfig::tolerant());
        let car_left =
            estimate(1.0, Some(BoundingBox::new(0.05, 0.4, 0.1, 0.1)), Some(BoundingBox::new(0.8, 0.4, 0.1, 0.1)));
        let car_right =
            estimate(1.0, Some(BoundingBox::new(0.8, 0.4, 0.1, 0.1)), Some(BoundingBox::new(0.05, 0.4, 0.1, 0.1)));
        assert!(cascade.passes(&car_left, 0.5));
        assert!(!cascade.passes(&car_right, 0.5));
    }

    #[test]
    fn location_tolerance_is_more_permissive() {
        // Car and person in the same column: strictly "left of" fails, but a
        // 2-cell dilation makes the cascade keep the frame.
        let q = Query::paper_q5();
        let same_col =
            estimate(1.0, Some(BoundingBox::new(0.5, 0.2, 0.05, 0.05)), Some(BoundingBox::new(0.5, 0.7, 0.05, 0.05)));
        let strict = FilterCascade::new(q.clone(), CascadeConfig::strict());
        let loose = FilterCascade::new(q, CascadeConfig::loose());
        assert!(!strict.passes(&same_col, 0.5));
        assert!(loose.passes(&same_col, 0.5));
    }

    #[test]
    fn region_predicate_presence_check() {
        let q = Query::new("region").in_region(ObjectRef::class(ObjectClass::Car), "lower-right", 1);
        let cascade = FilterCascade::new(q, CascadeConfig::strict());
        let in_region = estimate(1.0, Some(BoundingBox::new(0.7, 0.7, 0.1, 0.1)), None);
        let out_of_region = estimate(1.0, Some(BoundingBox::new(0.1, 0.1, 0.1, 0.1)), None);
        assert!(cascade.passes(&in_region, 0.5));
        assert!(!cascade.passes(&out_of_region, 0.5));
    }

    #[test]
    fn untrained_class_never_drops_frames() {
        // Query on buses, estimate trained only on cars/persons -> must pass.
        let q = Query::paper_q6();
        let cascade = FilterCascade::new(q, CascadeConfig::strict());
        let e = estimate(1.0, Some(BoundingBox::new(0.1, 0.1, 0.1, 0.1)), None);
        assert!(cascade.passes(&e, 0.5));
    }

    #[test]
    fn colored_counts_only_refute_lower_bounds() {
        use vmq_video::Color;
        let wants_red_car = Query::new("red").colored_count(ObjectClass::Car, Color::Red, CountOp::AtLeast, 1);
        let cascade = FilterCascade::new(wants_red_car, CascadeConfig::strict());
        let no_cars = estimate(0.0, None, None);
        let some_cars = estimate(2.0, Some(BoundingBox::new(0.1, 0.1, 0.1, 0.1)), None);
        assert!(!cascade.passes(&no_cars, 0.5), "zero cars cannot contain a red car");
        assert!(cascade.passes(&some_cars, 0.5));
    }

    #[test]
    fn lattice_covers_all_nine_combinations_and_contains_the_presets() {
        let lattice = CascadeConfig::lattice();
        assert_eq!(lattice.len(), 9);
        for preset in [CascadeConfig::strict(), CascadeConfig::tolerant(), CascadeConfig::loose()] {
            assert!(lattice.contains(&preset), "{preset:?} missing from lattice");
        }
        let mut unique = lattice.clone();
        unique.dedup();
        assert_eq!(unique.len(), 9, "lattice entries are distinct");
        assert_eq!(lattice[0], CascadeConfig::strict());
    }

    #[test]
    fn labels_follow_table3_convention() {
        assert_eq!(CascadeConfig::tolerant().label(false), "CCF-1");
        assert_eq!(CascadeConfig::loose().label(true), "CCF-1/CLF-2");
        assert_eq!(CascadeConfig::strict().label(true), "CCF/CLF");
        let q = Query::paper_q5();
        let cascade = FilterCascade::new(q, CascadeConfig::loose());
        assert!(cascade.config().count_tolerance == 1);
        assert_eq!(cascade.query().name, "q5");
    }

    #[test]
    fn spatial_rejects_when_object_absent_from_grid() {
        // Query needs car left of person but the car grid is empty.
        let q = Query::paper_q5();
        let cascade = FilterCascade::new(q, CascadeConfig::tolerant());
        let e = estimate(0.0, None, Some(BoundingBox::new(0.8, 0.4, 0.1, 0.1)));
        assert!(!cascade.passes(&e, 0.5));
    }
}
