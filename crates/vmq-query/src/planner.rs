//! The adaptive cascade planner: calibration-driven choice of filter
//! backend and cascade tolerances.
//!
//! The paper's headline result (Table III) is not one fixed pipeline but a
//! *per-query* choice: for every query it reports "the most selective filter
//! combinations that yield 100 % accuracy" — IC vs OD backends crossed with
//! CCF/CCF-1/CCF-2 count tolerances and CLF/CLF-1/CLF-2 location tolerances.
//! The fixed presets (`strict` / `tolerant` / `loose`) force the caller to
//! guess that combination. This module makes the system decide itself:
//!
//! 1. A *calibration prefix* of the stream is annotated once with the
//!    expensive detector (charged to the ledger as calibration-phase work,
//!    so speedup accounting stays honest).
//! 2. Every candidate backend is profiled over the prefix via
//!    [`FrameFilter::profile`] (one batched inference pass per backend,
//!    charged at the backend's virtual price), and every `(backend ×
//!    tolerance)` combination is scored: pass rate (selectivity) and recall
//!    against the prefix ground truth.
//! 3. The planner picks the candidate with the lowest *expected per-frame
//!    cost* `decode + filter + pass_ucb × detector` (where `pass_ucb` is a
//!    conservative upper-confidence pass rate — see
//!    [`conservative_pass_rate`]) among those with 100 % recall on the
//!    prefix, exactly mirroring how Table III's combinations were selected —
//!    **and always includes brute force (no cascade) as a candidate**. Brute
//!    force is lossless by construction and costs `decode + detector` per
//!    frame, so it floors the search: the chosen plan's expected cost is
//!    never above brute force, and an adaptive run can cost at most
//!    brute force + calibration. A prefix with no true frames certifies
//!    nothing, so only the most tolerant cascade stays admissible there
//!    (the safest selective plan for rare-event queries); a cascade that
//!    demonstrably dropped a true frame never ships — brute force does.
//!
//! Profiling feeds frames to `estimate_batch` in pipeline-sized chunks, so a
//! plan choice is invariant across pipeline batch sizes (the same batch
//! parity guarantee the executor relies on).

use crate::ast::Query;
use crate::plan::{AtomTable, CascadeConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use vmq_detect::{CostLedger, CostModel, Detector, Stage};
use vmq_filters::FrameFilter;
use vmq_video::Frame;

/// Recall at or above this is treated as lossless (recall is an integer
/// ratio, so 100 % recall compares exactly equal to 1.0).
const LOSSLESS: f32 = 1.0;

/// Profile of one `(backend × tolerance)` candidate measured on the
/// calibration prefix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateProfile {
    /// Index of the backend in the planner's candidate list.
    pub backend_index: usize,
    /// Backend family name ("IC", "OD", "OD-COF", "CAL").
    pub backend: String,
    /// The cascade tolerances of this candidate.
    pub cascade: CascadeConfig,
    /// Table III style label, e.g. "OD-CCF-1/OD-CLF-2".
    pub label: String,
    /// Fraction of calibration frames the cascade passed (selectivity).
    pub pass_rate: f64,
    /// Recall against the prefix ground truth. Only meaningful when
    /// [`CandidateProfile::recall_certified`] is true; a prefix with no true
    /// frames reports 1.0 vacuously.
    pub recall: f32,
    /// True when the calibration prefix contained at least one true frame,
    /// i.e. `recall` rests on actual evidence rather than an empty truth
    /// set.
    pub recall_certified: bool,
    /// Virtual per-frame cost of the backend's filter stage.
    pub filter_cost_ms: f64,
    /// Expected virtual per-frame cost of running this candidate:
    /// `decode + filter + pass_ucb × detector`, where `pass_ucb` is the
    /// conservative upper-confidence pass rate of
    /// [`conservative_pass_rate`] (≥ the raw [`CandidateProfile::pass_rate`],
    /// so a near-unselective cascade cannot plan itself in under the
    /// brute-force floor on sampling noise alone).
    pub expected_cost_ms: f64,
}

impl CandidateProfile {
    /// True when the calibration prefix *demonstrated* the candidate loses
    /// no true frame: full recall on a prefix that actually contained true
    /// frames. Vacuous recall (no true frames to lose) does not certify.
    pub fn is_lossless(&self) -> bool {
        self.recall_certified && self.recall >= LOSSLESS
    }
}

/// The plan the calibration selected.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanChoice {
    /// True when the planner chose the brute-force floor: no cascade, every
    /// frame goes to the detector. `backend_index` / `cascade` are then
    /// placeholders and must not be compiled into a filter stage.
    pub brute_force: bool,
    /// Index of the chosen backend in the planner's candidate list
    /// (meaningless when [`PlanChoice::brute_force`] is set).
    pub backend_index: usize,
    /// Chosen backend family name (`"NONE"` for brute force).
    pub backend: String,
    /// Chosen cascade tolerances (placeholder for brute force).
    pub cascade: CascadeConfig,
    /// Table III style label of the chosen combination (`"brute-force"` for
    /// the floor).
    pub label: String,
    /// Expected virtual per-frame cost of the chosen plan.
    pub expected_cost: f64,
    /// Expected selectivity (calibration pass rate) of the chosen plan.
    pub expected_selectivity: f64,
}

/// Everything the calibration run produced: per-candidate profiles, the
/// selected plan and the virtual cost the calibration itself incurred.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Number of frames in the calibration prefix.
    pub prefix_frames: usize,
    /// Number of prefix frames that truly satisfy the query.
    pub true_prefix_frames: usize,
    /// Virtual milliseconds charged for calibration (detector annotation of
    /// the prefix plus one filter pass per candidate backend).
    pub calibration_ms: f64,
    /// Real wall-clock milliseconds the calibration took.
    pub calibration_wall_ms: f64,
    /// All candidate profiles, in (backend, tolerance) scan order.
    pub profiles: Vec<CandidateProfile>,
    /// The selected plan.
    pub choice: PlanChoice,
}

impl CalibrationReport {
    /// Profiles of the candidates that were lossless on the prefix.
    pub fn lossless_candidates(&self) -> Vec<&CandidateProfile> {
        self.profiles.iter().filter(|p| p.is_lossless()).collect()
    }
}

/// Profiles every `(backend × tolerance)` combination on the calibration
/// prefix and selects the cheapest expected-cost plan subject to 100 %
/// recall on the prefix.
///
/// Charges the detector annotation of the prefix and one filter pass per
/// backend to `ledger` as calibration-phase work. The candidate scan order
/// is deterministic (backends in the given order, tolerances in the given
/// order) and ties are broken towards the earlier candidate, so the same
/// seed and inputs always yield the same [`PlanChoice`].
///
/// With an empty prefix there are no measurements at all, so the planner
/// ships the brute-force floor. A non-empty prefix with no true frames
/// certifies nothing about recall; the planner then admits only the most
/// tolerant cascade (the safest selective plan) and still ships brute force
/// unless that cascade's conservative expected cost beats the floor.
pub fn plan_cascade(
    query: &Query,
    prefix: &[Frame],
    backends: &[&dyn FrameFilter],
    tolerances: &[CascadeConfig],
    detector: &dyn Detector,
    ledger: &CostLedger,
    batch_size: usize,
) -> CalibrationReport {
    assert!(!backends.is_empty(), "plan_cascade requires at least one candidate backend");
    // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only the
    // report's `calibration_wall_ms` diagnostic; plan selection ranks by
    // virtual ledger cost, never the measured span.
    let wall_start = Instant::now();
    let model = ledger.model().clone();

    if prefix.is_empty() {
        return plan_cascade_from_profiles(
            query,
            &[],
            backends,
            &[],
            tolerances,
            detector.stage(),
            &model,
            wall_start.elapsed().as_secs_f64() * 1000.0,
        );
    }

    // 1. Annotate the prefix once with the expensive detector.
    ledger.charge_calibration(detector.stage(), prefix.len() as u64);
    let truth: Vec<bool> = prefix.iter().map(|f| query.matches_detections(&detector.detect(f))).collect();

    // 2. One inference pass per backend over the prefix (the scoring below
    //    re-applies every tolerance to the same estimates).
    let profiles: Vec<vmq_filters::FilterProfile> = backends
        .iter()
        .map(|&filter| {
            ledger.charge_calibration(filter.kind().stage(), prefix.len() as u64);
            filter.profile(prefix, &model, batch_size)
        })
        .collect();

    let mut report =
        plan_cascade_from_profiles(query, &truth, backends, &profiles, tolerances, detector.stage(), &model, 0.0);
    // The wall clock covers annotation, profiling *and* scoring, exactly as
    // before the scoring core was extracted.
    report.calibration_wall_ms = wall_start.elapsed().as_secs_f64() * 1000.0;
    report
}

/// The scoring core of [`plan_cascade`], decoupled from inference: given the
/// prefix's detector `truth` and one pre-computed
/// [`FilterProfile`](vmq_filters::FilterProfile) per
/// backend (parallel to `backends`), profiles every `(backend × tolerance)`
/// candidate and selects the plan. This is how the shared multi-query
/// runtime plans N statements adaptively off **one** calibration pass per
/// backend: inference and detector annotation are shared (and charged
/// per-query by the caller), while each query scores the shared estimates
/// against its own predicates. Byte-identical to [`plan_cascade`] for equal
/// inputs — the wrapper is itself implemented on top of this.
///
/// An empty `truth` (empty prefix) certifies nothing and ships the
/// brute-force floor, exactly like [`plan_cascade`].
#[allow(clippy::too_many_arguments)]
pub fn plan_cascade_from_profiles(
    query: &Query,
    truth: &[bool],
    backends: &[&dyn FrameFilter],
    profiles: &[vmq_filters::FilterProfile],
    tolerances: &[CascadeConfig],
    detector_stage: Stage,
    model: &CostModel,
    calibration_wall_ms: f64,
) -> CalibrationReport {
    assert!(!backends.is_empty(), "plan_cascade requires at least one candidate backend");
    assert!(!tolerances.is_empty(), "plan_cascade requires at least one candidate tolerance");
    // The brute-force floor: no cascade, every decoded frame pays the
    // detector. Lossless by construction, so it is always an admissible
    // candidate — the chosen plan's expected cost can never exceed it.
    let most_tolerant =
        *tolerances.iter().max_by_key(|c| (c.count_tolerance, c.location_tolerance)).expect("non-empty tolerances");
    let brute_cost = model.cost_ms(Stage::Decode) + model.cost_ms(detector_stage);
    let brute_choice = || PlanChoice {
        brute_force: true,
        backend_index: 0,
        backend: "NONE".to_string(),
        cascade: most_tolerant,
        label: "brute-force".to_string(),
        expected_cost: brute_cost,
        expected_selectivity: 1.0,
    };

    if truth.is_empty() {
        return CalibrationReport {
            prefix_frames: 0,
            true_prefix_frames: 0,
            calibration_ms: 0.0,
            calibration_wall_ms,
            profiles: Vec::new(),
            choice: brute_choice(),
        };
    }

    assert_eq!(profiles.len(), backends.len(), "one profile per backend");
    let prefix_len = truth.len();
    let true_prefix_frames = truth.iter().filter(|&&t| t).count();

    let mut calibration_ms = model.cost_ms(detector_stage) * prefix_len as f64;
    let mut candidates: Vec<CandidateProfile> = Vec::with_capacity(backends.len() * tolerances.len());
    for (backend_index, (&filter, profile)) in backends.iter().zip(profiles).enumerate() {
        assert_eq!(profile.estimates.len(), prefix_len, "profile must cover the prefix");
        calibration_ms += profile.virtual_ms_per_frame * prefix_len as f64;
        // Every tolerance of the lattice compiles into one atom table, so
        // each prefix estimate is summarised once and each distinct atom
        // evaluated once, whatever the lattice size.
        let mut table = AtomTable::new();
        let compiled: Vec<_> =
            tolerances.iter().map(|&cascade| table.compile_select(query, cascade, filter.threshold())).collect();
        let verdicts = table.evaluate(&profile.estimates);
        for (&cascade, atoms) in tolerances.iter().zip(&compiled) {
            let mut passes = 0usize;
            let mut kept_true = 0usize;
            for (frame, &is_true) in truth.iter().enumerate() {
                if verdicts.passes(frame, atoms) {
                    passes += 1;
                    if is_true {
                        kept_true += 1;
                    }
                }
            }
            let pass_rate = passes as f64 / prefix_len as f64;
            let recall = if true_prefix_frames == 0 { 1.0 } else { kept_true as f32 / true_prefix_frames as f32 };
            let expected_cost_ms = model.cost_ms(Stage::Decode)
                + profile.virtual_ms_per_frame
                + conservative_pass_rate(pass_rate, prefix_len) * model.cost_ms(detector_stage);
            candidates.push(CandidateProfile {
                backend_index,
                backend: filter.kind().name().to_string(),
                cascade,
                label: cascade.label_for(query, filter),
                pass_rate,
                recall,
                recall_certified: true_prefix_frames > 0,
                filter_cost_ms: profile.virtual_ms_per_frame,
                expected_cost_ms,
            });
        }
    }

    // 3. Select: the cheapest expected cost among the admissible cascades
    //    *and the brute-force floor*. Admissible means:
    //
    //    * prefix contained true frames → the certified-lossless candidates
    //      (a cascade that demonstrably dropped a true frame never ships);
    //    * prefix contained none → recall is uncertifiable either way, so
    //      the safest cascade — the most tolerant tolerance — remains
    //      admissible (this is what lets rare-event queries keep a
    //      selective plan instead of degrading to brute force whenever the
    //      prefix happens to carry no true frame).
    //
    //    A cascade must strictly beat the floor's expected cost to be worth
    //    its risk — at equal cost brute force wins, because its recall is
    //    guaranteed on the whole stream rather than estimated on a prefix.
    let admissible = |p: &&CandidateProfile| {
        if true_prefix_frames > 0 {
            p.is_lossless()
        } else {
            p.cascade == most_tolerant
        }
    };
    let chosen = candidates
        .iter()
        .filter(admissible)
        .enumerate()
        .min_by(|(ai, a), (bi, b)| {
            a.expected_cost_ms.total_cmp(&b.expected_cost_ms).then(a.pass_rate.total_cmp(&b.pass_rate)).then(ai.cmp(bi))
        })
        .map(|(_, p)| p);

    let choice = match chosen {
        Some(p) if p.expected_cost_ms < brute_cost => PlanChoice {
            brute_force: false,
            backend_index: p.backend_index,
            backend: p.backend.clone(),
            cascade: p.cascade,
            label: p.label.clone(),
            expected_cost: p.expected_cost_ms,
            expected_selectivity: p.pass_rate,
        },
        _ => brute_choice(),
    };
    CalibrationReport {
        prefix_frames: prefix_len,
        true_prefix_frames,
        calibration_ms,
        calibration_wall_ms,
        profiles: candidates,
        choice,
    }
}

/// Conservative upper-confidence bound on a cascade's pass rate measured on
/// a calibration prefix of `n` frames: the raw estimate plus one binomial
/// standard error plus a `1/n` continuity margin, clamped to 1.
///
/// Planning against the raw estimate lets sampling noise on a near-1 pass
/// rate make an unselective cascade look marginally cheaper than the
/// brute-force floor while realising costlier on the full stream; the bound
/// makes the planner prefer the floor unless the prefix demonstrates real
/// selectivity.
pub fn conservative_pass_rate(pass_rate: f64, n: usize) -> f64 {
    debug_assert!(n > 0, "conservative_pass_rate needs a non-empty prefix");
    (pass_rate + (pass_rate * (1.0 - pass_rate) / n as f64).sqrt() + 1.0 / n as f64).min(1.0)
}

// ---------------------------------------------------------------------------
// Control-variate backend selection (the planner's aggregate extension)
// ---------------------------------------------------------------------------

/// One candidate control-variate backend as seen on a window's calibration
/// prefix: its cascade-pass indicator aligned with the detector truth.
#[derive(Debug, Clone)]
pub struct CvCandidate<'a> {
    /// Backend family name ("IC", "OD", "OD-COF", "CAL").
    pub backend: &'a str,
    /// The cost-model stage of the backend's filter.
    pub stage: Stage,
    /// The backend's cascade-pass indicator on the prefix frames (`1.0` /
    /// `0.0`), parallel to the truth series.
    pub pass: &'a [f64],
}

/// The control-variate backend the planner selected for one window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CvBackendChoice {
    /// Index of the chosen backend in the candidate list.
    pub backend_index: usize,
    /// Chosen backend family name.
    pub backend: String,
    /// Sample correlation of the chosen backend's indicator with the
    /// detector truth on the calibration prefix.
    pub correlation: f64,
    /// Per-candidate correlations, in candidate order.
    pub correlations: Vec<f64>,
}

/// Picks the control-variate backend for one window from a calibration
/// prefix: the candidate whose cascade-pass indicator is most correlated
/// with the detector truth.
///
/// This extends the Table III cascade planner to the aggregate workload of
/// Sec. III: a single-CV estimator's variance is `(1 − ρ²)·Var(Ȳ)`, so
/// maximising `ρ²` on the prefix minimises the expected variance of the
/// window's estimate. Ties (within nothing — exact `ρ²` equality) break
/// toward the cheaper filter stage, then the earlier candidate, mirroring
/// [`plan_cascade`]'s deterministic tie-breaking. A degenerate prefix (truth
/// or indicator constant) scores `ρ = 0`, so with no usable evidence the
/// cheapest backend wins.
pub fn select_cv_backend(truth: &[f64], candidates: &[CvCandidate], model: &CostModel) -> CvBackendChoice {
    assert!(!candidates.is_empty(), "select_cv_backend requires at least one candidate");
    let correlations: Vec<f64> = candidates
        .iter()
        .map(|c| {
            assert_eq!(c.pass.len(), truth.len(), "candidate indicator must be parallel to the truth");
            sample_correlation(truth, c.pass)
        })
        .collect();
    let chosen = correlations
        .iter()
        .enumerate()
        .min_by(|(ai, a), (bi, b)| {
            let a_sq = *a * *a;
            let b_sq = *b * *b;
            b_sq.total_cmp(&a_sq)
                .then_with(|| model.cost_ms(candidates[*ai].stage).total_cmp(&model.cost_ms(candidates[*bi].stage)))
                .then(ai.cmp(bi))
        })
        .map(|(i, _)| i)
        .expect("at least one candidate");
    CvBackendChoice {
        backend_index: chosen,
        backend: candidates[chosen].backend.to_string(),
        correlation: correlations[chosen],
        correlations,
    }
}

/// Sample correlation of two parallel series (0 when either is constant or
/// shorter than two observations).
fn sample_correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / n as f64;
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 1e-15 || vb <= 1e-15 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmq_detect::OracleDetector;
    use vmq_filters::{CalibratedFilter, CalibrationProfile, FilterKind};
    use vmq_video::{Dataset, DatasetProfile};

    fn lattice() -> Vec<CascadeConfig> {
        CascadeConfig::lattice()
    }

    #[test]
    fn planner_prefers_lossless_and_cheap() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 10, 200, 41);
        let oracle = OracleDetector::perfect();
        // A perfect IC-priced backend and a perfect OD-priced backend produce
        // identical estimates, so the cheaper IC stage must win with the most
        // selective tolerance.
        let ic =
            CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::perfect().emulating(FilterKind::Ic), 7);
        let od =
            CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::perfect().emulating(FilterKind::Od), 7);
        let backends: Vec<&dyn FrameFilter> = vec![&od, &ic];
        let ledger = CostLedger::paper();
        let report = plan_cascade(&Query::paper_q3(), &ds.test()[..64], &backends, &lattice(), &oracle, &ledger, 32);
        assert_eq!(report.choice.backend, "IC");
        assert_eq!(report.choice.cascade, CascadeConfig::strict(), "perfect filter makes strict lossless");
        assert_eq!(report.choice.label, "IC-CCF");
        assert!(report.choice.expected_selectivity < 1.0);
        assert_eq!(report.profiles.len(), backends.len() * lattice().len());
        assert!(!report.lossless_candidates().is_empty());
        // calibration charged the detector once per prefix frame and each
        // backend once per prefix frame
        assert_eq!(ledger.calibration_invocations(vmq_detect::Stage::MaskRcnn), 64);
        assert_eq!(ledger.calibration_invocations(vmq_detect::Stage::OdFilter), 64);
        assert_eq!(ledger.calibration_invocations(vmq_detect::Stage::IcFilter), 64);
        assert!((ledger.calibration_ms() - report.calibration_ms).abs() < 1e-9);
    }

    #[test]
    fn planner_widens_tolerance_for_outlier_counts() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 10, 300, 5);
        let oracle = OracleDetector::perfect();
        // Heavy count outliers: exact and ±1 tolerances drop true frames, so
        // only the CCF-2 candidates survive the recall constraint.
        let noisy_profile =
            CalibrationProfile { count_std: 0.15, ..CalibrationProfile::od_like() }.with_count_outliers(0.25);
        let filter = CalibratedFilter::new(profile.class_list(), 14, noisy_profile, 3);
        let backends: Vec<&dyn FrameFilter> = vec![&filter];
        let ledger = CostLedger::paper();
        let query = Query::paper_q3();
        let report = plan_cascade(&query, &ds.test()[..200], &backends, &lattice(), &oracle, &ledger, 32);
        assert!(report.true_prefix_frames > 0, "prefix must contain true frames for this test");
        assert!(
            report.profiles.iter().filter(|p| p.cascade.count_tolerance < 2).all(|p| !p.is_lossless()),
            "outliers must break every narrower count tolerance"
        );
        assert!(
            report.profiles.iter().any(|p| p.cascade.count_tolerance == 2 && p.is_lossless()),
            "CCF-2 absorbs the ±2 outliers"
        );
        // A cascade this tolerant passes nearly everything here, so the
        // certified CCF-2 candidates cannot undercut `decode + detector` —
        // the planner ships the brute-force floor instead of a plan that
        // would realise costlier than the baseline (the exact regression
        // this floor exists to prevent).
        assert!(report.choice.brute_force, "choice {:?}", report.choice);
    }

    #[test]
    fn unselective_uncertified_prefix_ships_the_brute_force_floor() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 10, 120, 8);
        let oracle = OracleDetector::perfect();
        // No Jackson frame carries a stop sign and the filter was not even
        // trained for the class, so every cascade passes every frame: the
        // most tolerant fallback buys no selectivity and the floor wins.
        let query = Query::new("never").class_count(vmq_video::ObjectClass::StopSign, crate::ast::CountOp::AtLeast, 3);
        let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 2);
        let backends: Vec<&dyn FrameFilter> = vec![&filter];
        let ledger = CostLedger::paper();
        let report = plan_cascade(&query, &ds.test()[..60], &backends, &lattice(), &oracle, &ledger, 32);
        assert_eq!(report.true_prefix_frames, 0);
        assert!(report.choice.brute_force, "no selectivity to buy => brute force: {:?}", report.choice);
        assert_eq!(report.choice.label, "brute-force");
        assert_eq!(report.choice.expected_selectivity, 1.0);
        // Vacuous recall is reported as uncertified, never as lossless.
        assert!(report.profiles.iter().all(|p| !p.recall_certified && !p.is_lossless()));
        assert!(report.lossless_candidates().is_empty());
    }

    #[test]
    fn uncertified_prefix_keeps_a_selective_most_tolerant_cascade() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 10, 200, 13);
        let oracle = OracleDetector::perfect();
        // Rare-event query: no true frame in the prefix, so recall is
        // uncertifiable — yet the most tolerant cascade is demonstrably
        // selective (Jackson carries ~1.2 cars/frame, six is far out in the
        // tail) and far cheaper than the floor, so it ships.
        let query = Query::new("rare").class_count(vmq_video::ObjectClass::Car, crate::ast::CountOp::AtLeast, 6);
        let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 4);
        let backends: Vec<&dyn FrameFilter> = vec![&filter];
        let ledger = CostLedger::paper();
        let report = plan_cascade(&query, &ds.test()[..64], &backends, &lattice(), &oracle, &ledger, 32);
        assert_eq!(report.true_prefix_frames, 0);
        assert!(!report.choice.brute_force, "selective fallback must ship: {:?}", report.choice);
        assert_eq!(report.choice.cascade, *CascadeConfig::lattice().last().unwrap(), "most tolerant cascade only");
        let model = CostLedger::paper().model().clone();
        assert!(report.choice.expected_cost < model.cost_ms(Stage::Decode) + model.cost_ms(Stage::MaskRcnn));
    }

    #[test]
    fn empty_prefix_ships_the_brute_force_floor() {
        let profile = DatasetProfile::jackson();
        let oracle = OracleDetector::perfect();
        let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 1);
        let backends: Vec<&dyn FrameFilter> = vec![&filter];
        let ledger = CostLedger::paper();
        let report = plan_cascade(&Query::paper_q5(), &[], &backends, &lattice(), &oracle, &ledger, 32);
        assert_eq!(report.prefix_frames, 0);
        assert_eq!(report.calibration_ms, 0.0);
        assert!(report.choice.brute_force);
        assert_eq!(report.choice.expected_selectivity, 1.0);
        assert_eq!(ledger.total_ms(), 0.0);
    }

    #[test]
    fn unselective_lossless_cascade_loses_to_the_brute_force_floor() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 10, 200, 17);
        let oracle = OracleDetector::perfect();
        // "At least zero cars" is true on every frame, so every cascade is
        // lossless but passes everything: expected cost = decode + filter +
        // ~1.0 × detector, strictly above the floor's decode + detector.
        let query = Query::new("always").class_count(vmq_video::ObjectClass::Car, crate::ast::CountOp::AtLeast, 0);
        let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 3);
        let backends: Vec<&dyn FrameFilter> = vec![&filter];
        let ledger = CostLedger::paper();
        let report = plan_cascade(&query, &ds.test()[..64], &backends, &lattice(), &oracle, &ledger, 32);
        assert!(report.true_prefix_frames > 0);
        assert!(report.choice.brute_force, "unselective cascade must lose to brute force: {:?}", report.choice);
        let model = CostLedger::paper().model().clone();
        let brute_cost = model.cost_ms(Stage::Decode) + model.cost_ms(Stage::MaskRcnn);
        assert_eq!(report.choice.expected_cost, brute_cost);
    }

    #[test]
    fn chosen_expected_cost_never_exceeds_the_brute_force_floor() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 10, 240, 29);
        let oracle = OracleDetector::perfect();
        let model = CostLedger::paper().model().clone();
        let brute_cost = model.cost_ms(Stage::Decode) + model.cost_ms(Stage::MaskRcnn);
        for query in [Query::paper_q3(), Query::paper_q4(), Query::paper_q5()] {
            let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 31);
            let backends: Vec<&dyn FrameFilter> = vec![&filter];
            let report =
                plan_cascade(&query, &ds.test()[..64], &backends, &lattice(), &oracle, &CostLedger::paper(), 32);
            assert!(
                report.choice.expected_cost <= brute_cost,
                "{}: expected {} > brute floor {}",
                query.name,
                report.choice.expected_cost,
                brute_cost
            );
        }
    }

    #[test]
    fn conservative_pass_rate_bounds() {
        assert_eq!(conservative_pass_rate(1.0, 48), 1.0);
        assert_eq!(conservative_pass_rate(0.98, 48), 1.0, "near-1 estimates saturate");
        let p = conservative_pass_rate(0.5, 48);
        assert!(p > 0.5 && p < 0.65, "one standard error + continuity: {p}");
        assert!(conservative_pass_rate(0.0, 48) > 0.0, "zero passes still budget 1/n");
    }

    #[test]
    fn cv_backend_selection_prefers_the_most_correlated() {
        let truth = vec![1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        let perfect = truth.clone();
        let noisy = vec![1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0];
        let candidates = vec![
            CvCandidate { backend: "OD", stage: Stage::OdFilter, pass: &noisy },
            CvCandidate { backend: "IC", stage: Stage::IcFilter, pass: &perfect },
        ];
        let choice = select_cv_backend(&truth, &candidates, &CostModel::paper());
        assert_eq!(choice.backend_index, 1);
        assert_eq!(choice.backend, "IC");
        assert!((choice.correlation - 1.0).abs() < 1e-12);
        assert_eq!(choice.correlations.len(), 2);
        assert!(choice.correlations[0].abs() < 1.0);
    }

    #[test]
    fn cv_backend_selection_ties_break_to_the_cheaper_stage() {
        let truth = vec![1.0, 0.0, 1.0, 0.0];
        let same = truth.clone();
        let same2 = truth.clone();
        // Identical correlation: the IC-priced candidate (1.5 ms) must win
        // over the OD-priced one (1.9 ms) even though it is listed second.
        let candidates = vec![
            CvCandidate { backend: "OD", stage: Stage::OdFilter, pass: &same },
            CvCandidate { backend: "IC", stage: Stage::IcFilter, pass: &same2 },
        ];
        let choice = select_cv_backend(&truth, &candidates, &CostModel::paper());
        assert_eq!(choice.backend, "IC");
    }

    #[test]
    fn cv_backend_selection_degenerate_prefix_falls_back_to_cheapest() {
        // Constant truth certifies nothing: all correlations are zero and
        // the cheapest backend wins.
        let truth = vec![1.0, 1.0, 1.0, 1.0];
        let a = vec![1.0, 0.0, 1.0, 0.0];
        let b = vec![0.0, 1.0, 0.0, 1.0];
        let candidates = vec![
            CvCandidate { backend: "OD", stage: Stage::OdFilter, pass: &a },
            CvCandidate { backend: "IC", stage: Stage::IcFilter, pass: &b },
        ];
        let choice = select_cv_backend(&truth, &candidates, &CostModel::paper());
        assert_eq!(choice.backend, "IC");
        assert_eq!(choice.correlations, vec![0.0, 0.0]);
    }

    #[test]
    fn plan_choice_is_batch_size_invariant() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 10, 160, 23);
        let oracle = OracleDetector::perfect();
        let choices: Vec<PlanChoice> = [1usize, 7, 64]
            .iter()
            .map(|&bs| {
                let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 99);
                let backends: Vec<&dyn FrameFilter> = vec![&filter];
                let ledger = CostLedger::paper();
                plan_cascade(&Query::paper_q4(), &ds.test()[..48], &backends, &lattice(), &oracle, &ledger, bs).choice
            })
            .collect();
        for choice in &choices[1..] {
            assert_eq!(choice.label, choices[0].label);
            assert_eq!(choice.cascade, choices[0].cascade);
            assert_eq!(choice.expected_cost.to_bits(), choices[0].expected_cost.to_bits());
            assert_eq!(choice.expected_selectivity.to_bits(), choices[0].expected_selectivity.to_bits());
        }
    }
}
