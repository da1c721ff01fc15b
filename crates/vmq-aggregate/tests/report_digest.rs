//! Pins every numeric field of the aggregate reports bit for bit.
//!
//! `trial_engine_differential.rs` compares the trial engine against a
//! reference built from the same public estimators and sampler, so a change
//! to those pieces moves both sides at once. This test folds the raw bits of
//! every numeric [`AggregateReport`] field (and each window's charge) over a
//! fixed grid of cases into one digest recorded from the engine as first
//! written: any drift in any estimate, on any case, changes the digest.
//!
//! The grid covers the region (a1), spatial (a2) and four-control (a3: three
//! predicates plus the conjunction column) queries; windows of 1, 2, 3, 7 and
//! 250 frames with sample sizes below, at and above the window; a constant
//! control, a constant detector verdict, shed level 2 and the adaptive
//! calibration prefix; and whole streams run through the plan, whose
//! indicator columns come from a real filter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use vmq_aggregate::{AggregateReport, WindowedAggregator};
use vmq_detect::{CostLedger, NoiseModel, OracleDetector, Stage};
use vmq_filters::{CalibratedFilter, CalibrationProfile, FrameFilter};
use vmq_query::{AggregateSpec, Query, QueryExecutor, WindowBackendColumns, WindowCharge, WindowData, WindowEstimator};
use vmq_video::{Dataset, DatasetProfile, Frame};

/// Order-sensitive 64-bit fold of a word sequence.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(23) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn report(&mut self, r: &AggregateReport) {
        for v in [r.trials, r.sample_size, r.window_frames, r.window_index, r.window_start] {
            self.word(v as u64);
        }
        for v in [
            r.true_fraction,
            r.plain_mean,
            r.cv_mean,
            r.mcv_mean,
            r.plain_variance,
            r.cv_variance,
            r.mcv_variance,
            r.mean_correlation,
            r.time_per_sample_ms,
        ] {
            self.word(v.to_bits());
        }
    }

    fn charge(&mut self, c: WindowCharge) {
        self.word(c.estimation_frames);
        self.word(c.calibration_frames);
    }
}

fn indicator(hit: bool) -> f64 {
    if hit {
        1.0
    } else {
        0.0
    }
}

/// 250 frames of the Jackson scene (cars and people: a1, a2).
fn jackson() -> &'static [Frame] {
    static FRAMES: OnceLock<Vec<Frame>> = OnceLock::new();
    FRAMES.get_or_init(|| Dataset::generate(&DatasetProfile::jackson(), 32, 250, 31).test().to_vec())
}

/// The sparsified DETRAC profile the Table IV golden uses, where a3 ("exactly
/// three objects, a car lower-left, a bus upper-left") holds on some frames.
fn sparse_detrac() -> DatasetProfile {
    let mut profile = DatasetProfile::detrac();
    profile.mean_objects = 3.0;
    profile.std_objects = 1.2;
    profile.classes[0].fraction = 0.58;
    profile.classes[1].fraction = 0.38;
    profile.classes[2].fraction = 0.04;
    profile.count_reversion = 0.5;
    profile
}

/// 250 frames of the sparsified DETRAC scene (a3).
fn detrac() -> &'static [Frame] {
    static FRAMES: OnceLock<Vec<Frame>> = OnceLock::new();
    FRAMES.get_or_init(|| Dataset::generate(&sparse_detrac(), 32, 250, 31).test().to_vec())
}

/// How a case's control columns are built.
#[derive(Debug, Clone, Copy)]
enum Controls {
    /// Ground truth with a share of flips, plus graded per-predicate series.
    Noisy(f64),
    /// Every control series constant.
    Constant,
}

/// One backend's hand-built control columns: a pass column and one series
/// per predicate, plus the trailing conjunction series for multi-predicate
/// queries, exactly as the plan lays them out.
fn columns(
    query: &Query,
    frames: &[Frame],
    stage: Stage,
    controls: Controls,
    rng: &mut StdRng,
) -> WindowBackendColumns {
    let (backend, d) = (if stage == Stage::OdFilter { "OD" } else { "IC" }, query.predicates.len());
    let (pass, mut predicates): (Vec<f64>, Vec<Vec<f64>>) = match controls {
        Controls::Noisy(flip_rate) => {
            let pass: Vec<f64> = frames
                .iter()
                .map(|f| indicator(query.matches_ground_truth(f) != (rng.gen::<f64>() < flip_rate)))
                .collect();
            let series =
                (0..d).map(|_| pass.iter().map(|p| (0.6 * p + 0.4 * rng.gen::<f64>()).clamp(0.0, 1.0)).collect());
            let predicates = series.collect();
            (pass, predicates)
        }
        Controls::Constant => (vec![1.0; frames.len()], vec![vec![0.5; frames.len()]; d]),
    };
    if d > 1 {
        predicates.push(pass.clone());
    }
    WindowBackendColumns { backend, stage, pass, predicates }
}

/// A generated scene's frames.
type Scene = fn() -> &'static [Frame];

/// One directly driven window.
#[derive(Debug, Clone, Copy)]
struct Case {
    query: fn() -> Query,
    scene: Scene,
    n: usize,
    sample_size: usize,
    trials: usize,
    seed: u64,
    window_index: usize,
    shed_level: u32,
    prefix: Option<usize>,
    controls: Controls,
    noisy_detector: bool,
}

fn run_case(case: Case, digest: &mut Digest) {
    let query = (case.query)();
    let frames = &(case.scene)()[..case.n];
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0xD16E57);
    let backends = [
        columns(&query, frames, Stage::OdFilter, case.controls, &mut rng),
        columns(&query, frames, Stage::IcFilter, Controls::Noisy(0.35), &mut rng),
    ];
    let backends = if case.prefix.is_some() { &backends[..] } else { &backends[..1] };
    let window = WindowData { index: case.window_index, start: case.window_index * 40, frames, backends };
    let oracle = if case.noisy_detector {
        OracleDetector::with_noise(NoiseModel::mild(), 77)
    } else {
        OracleDetector::perfect()
    };
    let mut agg = WindowedAggregator::new(query, case.sample_size, case.trials, case.seed);
    if let Some(prefix) = case.prefix {
        agg = agg.with_adaptive_backend(prefix);
    }
    agg.set_shed_level(case.shed_level);
    let charge = agg.estimate_window(window, &oracle, &CostLedger::paper());
    let [report] = agg.reports() else { panic!("one report per non-empty window: {case:?}") };
    digest.report(report);
    digest.charge(charge);
}

/// Every directly driven case of the grid.
fn cases() -> Vec<Case> {
    let base = Case {
        query: Query::paper_a1,
        scene: jackson,
        n: 250,
        sample_size: 50,
        trials: 100,
        seed: 11,
        window_index: 0,
        shed_level: 0,
        prefix: None,
        controls: Controls::Noisy(0.15),
        noisy_detector: false,
    };
    let mut cases = Vec::new();
    let queries: [(fn() -> Query, Scene); 3] =
        [(Query::paper_a1, jackson), (Query::paper_a2, jackson), (Query::paper_a3, detrac)];
    for (query, scene) in queries {
        for n in [1usize, 2, 3, 7, 250] {
            for sample_size in [2, n.saturating_sub(1), n, n + 5, 50] {
                cases.push(Case { query, scene, n, sample_size, trials: 20, ..base });
            }
        }
        let full = Case { query, scene, ..base };
        cases.push(full);
        cases.push(Case { window_index: 5, seed: 29, ..full });
        cases.push(Case { controls: Controls::Constant, ..full });
        cases.push(Case { shed_level: 2, ..full });
        cases.push(Case { prefix: Some(40), ..full });
        cases.push(Case { prefix: Some(1), n: 7, trials: 10, ..full });
        cases.push(Case { noisy_detector: true, ..full });
    }
    // A detector verdict that never holds on the scene: a3's bus is absent
    // from Jackson, so `y` is constant on every trial.
    cases.push(Case { query: Query::paper_a3, ..base });
    cases
}

/// Whole streams through the plan: hopping windows over a calibrated
/// filter's real indicator columns (one and two backends).
fn run_streams(digest: &mut Digest) {
    for (query, frames, seed) in
        [(Query::paper_a1(), jackson(), 7), (Query::paper_a2(), jackson(), 8), (Query::paper_a3(), detrac(), 9)]
    {
        let classes = if query.name == "a3" { sparse_detrac() } else { DatasetProfile::jackson() }.class_list();
        let od = CalibratedFilter::new(classes.clone(), 16, CalibrationProfile::od_like(), seed);
        let perfect = CalibratedFilter::new(classes, 16, CalibrationProfile::perfect(), seed + 1);
        for adaptive in [false, true] {
            let backends: Vec<&dyn FrameFilter> = if adaptive { vec![&od, &perfect] } else { vec![&od] };
            let mut agg = WindowedAggregator::new(query.clone(), 30, 40, seed);
            if adaptive {
                agg = agg.with_adaptive_backend(20);
            }
            let exec = QueryExecutor::new(query.clone());
            let run = exec.run_aggregate(
                frames,
                AggregateSpec::new(100, 50),
                &backends,
                &OracleDetector::perfect(),
                &mut agg,
            );
            assert_eq!(agg.reports().len(), 4, "250 frames, size 100, advance 50");
            for report in agg.reports() {
                digest.report(report);
            }
            digest.word(run.frames_detected as u64);
            digest.word(run.virtual_ms.to_bits());
        }
    }
}

/// The digest of the whole grid, recorded from the first implementation of
/// the trial engine. A deliberate change to the estimates must update it and
/// say why.
const PINNED: u64 = 0x7395_2132_30bc_3fc9;

#[test]
fn aggregate_reports_match_the_pinned_digest() {
    let mut digest = Digest::new();
    let cases = cases();
    assert_eq!(cases.len(), 3 * (5 * 5 + 7) + 1);
    for case in cases {
        run_case(case, &mut digest);
    }
    run_streams(&mut digest);
    assert_eq!(digest.0, PINNED, "aggregate report digest drifted: {:#018x}", digest.0);
}
