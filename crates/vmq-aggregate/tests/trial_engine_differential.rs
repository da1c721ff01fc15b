//! Differential test of the windowed trial engine against the naive loop it
//! replaced.
//!
//! `naive_estimate_window` is that loop, kept as the reference and built from
//! public pieces only: every trial draws its sample, runs the detector on
//! *every* sampled frame, evaluates the query on the detections and feeds the
//! estimators. [`WindowedAggregator`] evaluates each frame's truth once per
//! window instead and must agree with the reference on every bit of the
//! report and on the charge — while invoking the detector exactly once per
//! distinct frame, in the reference's first-touch order, and never for a frame
//! the reference did not touch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, OnceLock};
use vmq_aggregate::linalg::variance;
use vmq_aggregate::{AggregateReport, CvEstimate, FrameSampler, McvEstimate, WindowedAggregator};
use vmq_detect::{CostLedger, Detector, FrameDetections, NoiseModel, OracleDetector, Stage};
use vmq_query::ast::CountOp;
use vmq_query::{
    select_cv_backend, CvCandidate, ObjectRef, Query, WindowBackendColumns, WindowCharge, WindowData, WindowEstimator,
};
use vmq_video::{Dataset, DatasetProfile, Frame, ObjectClass};

/// Records the frame id of every invocation, in call order.
struct CountingDetector<'a> {
    inner: &'a dyn Detector,
    calls: Mutex<Vec<u64>>,
}

impl<'a> CountingDetector<'a> {
    fn new(inner: &'a dyn Detector) -> Self {
        CountingDetector { inner, calls: Mutex::new(Vec::new()) }
    }

    fn calls(&self) -> Vec<u64> {
        self.calls.lock().expect("no panic while counting").clone()
    }
}

impl Detector for CountingDetector<'_> {
    fn detect(&self, frame: &Frame) -> FrameDetections {
        self.calls.lock().expect("no panic while counting").push(frame.frame_id);
        self.inner.detect(frame)
    }

    fn stage(&self) -> Stage {
        self.inner.stage()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Estimator configuration shared by the engine under test and the reference.
#[derive(Debug, Clone, Copy)]
struct Config {
    sample_size: usize,
    trials: usize,
    seed: u64,
    shed_level: u32,
    /// `with_adaptive_backend` prefix, when enabled.
    prefix: Option<usize>,
}

fn indicator(hit: bool) -> f64 {
    if hit {
        1.0
    } else {
        0.0
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The per-trial detect-and-match loop: the reference the engine is compared
/// against. Returns the window's report and charge.
fn naive_estimate_window(
    query: &Query,
    config: Config,
    window: &WindowData<'_>,
    detector: &dyn Detector,
    ledger: &CostLedger,
) -> (AggregateReport, WindowCharge) {
    let frames = window.frames;
    let n = frames.len();
    let truth_of = |frame: &Frame| indicator(query.matches_detections(&detector.detect(frame)));

    let mut calibration_frames = 0u64;
    let mut backend_index = 0;
    if let (true, Some(prefix)) = (window.backends.len() > 1, config.prefix) {
        let k = prefix.max(2).min(n);
        let truth: Vec<f64> = frames[..k].iter().map(truth_of).collect();
        calibration_frames = k as u64;
        let candidates: Vec<CvCandidate> = window
            .backends
            .iter()
            .map(|b| CvCandidate { backend: b.backend, stage: b.stage, pass: &b.pass[..k] })
            .collect();
        backend_index = select_cv_backend(&truth, &candidates, ledger.model()).backend_index;
    }
    let columns = &window.backends[backend_index];
    let (x_full, z_full) = (&columns.pass, &columns.predicates);
    let mu_x = x_full.iter().sum::<f64>() / n as f64;
    let mu_z: Vec<f64> = z_full.iter().map(|s| s.iter().sum::<f64>() / n as f64).collect();

    let sample_size = (config.sample_size.max(2) >> config.shed_level).max(2);
    let sampler = FrameSampler::new(config.seed);
    let (mut plain, mut cv_means, mut mcv_means, mut correlations) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut estimation_frames = 0u64;
    for trial in 0..config.trials {
        let idx = sampler.sample_indices(n, sample_size, ((window.index as u64) << 32) | trial as u64);
        estimation_frames += idx.len() as u64;
        let y: Vec<f64> = idx.iter().map(|&i| truth_of(&frames[i])).collect();
        let x: Vec<f64> = idx.iter().map(|&i| x_full[i]).collect();
        let z: Vec<Vec<f64>> = z_full.iter().map(|series| idx.iter().map(|&i| series[i]).collect()).collect();
        let cv = CvEstimate::from_pairs(&y, &x, mu_x);
        let mcv = McvEstimate::from_samples(&y, &z, &mu_z);
        plain.push(cv.plain.mean);
        cv_means.push(cv.mean);
        mcv_means.push(mcv.mean);
        correlations.push(cv.correlation);
    }
    if z_full.len() > 1 && variance(&mcv_means) > variance(&cv_means) {
        mcv_means = cv_means.clone();
    }

    let report = AggregateReport {
        query: query.name.clone(),
        trials: config.trials,
        sample_size: sample_size.min(n),
        window_frames: n,
        true_fraction: frames.iter().filter(|f| query.matches_ground_truth(f)).count() as f64 / n as f64,
        plain_mean: mean(&plain),
        cv_mean: mean(&cv_means),
        mcv_mean: mean(&mcv_means),
        plain_variance: variance(&plain),
        cv_variance: variance(&cv_means),
        mcv_variance: variance(&mcv_means),
        mean_correlation: mean(&correlations),
        time_per_sample_ms: ledger.model().cost_ms(columns.stage) + ledger.model().cost_ms(detector.stage()),
        window_index: window.index,
        window_start: window.start,
        backend: columns.backend.to_string(),
    };
    (report, WindowCharge { estimation_frames, calibration_frames })
}

fn assert_bit_identical(got: &AggregateReport, want: &AggregateReport) {
    assert_eq!(got.query, want.query);
    assert_eq!(got.trials, want.trials);
    assert_eq!(got.sample_size, want.sample_size);
    assert_eq!(got.window_frames, want.window_frames);
    assert_eq!(got.window_index, want.window_index);
    assert_eq!(got.window_start, want.window_start);
    assert_eq!(got.backend, want.backend);
    for (name, a, b) in [
        ("true_fraction", got.true_fraction, want.true_fraction),
        ("plain_mean", got.plain_mean, want.plain_mean),
        ("cv_mean", got.cv_mean, want.cv_mean),
        ("mcv_mean", got.mcv_mean, want.mcv_mean),
        ("plain_variance", got.plain_variance, want.plain_variance),
        ("cv_variance", got.cv_variance, want.cv_variance),
        ("mcv_variance", got.mcv_variance, want.mcv_variance),
        ("mean_correlation", got.mean_correlation, want.mean_correlation),
        ("time_per_sample_ms", got.time_per_sample_ms, want.time_per_sample_ms),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a} vs {b}");
    }
}

/// 250 frames of the Jackson scene, generated once.
fn scene_frames() -> &'static [Frame] {
    static FRAMES: OnceLock<Vec<Frame>> = OnceLock::new();
    FRAMES.get_or_init(|| Dataset::generate(&DatasetProfile::jackson(), 32, 250, 31).test().to_vec())
}

/// A query with one to three predicates, each true on a fair share of the
/// Jackson scene so the detector indicator is not constant.
fn query_with(predicates: usize) -> Query {
    let car = ObjectRef::class(ObjectClass::Car);
    let one = Query::new("one").in_region(car, "lower-right", 1);
    match predicates {
        1 => one,
        2 => Query::new("two").class_count(ObjectClass::Car, CountOp::AtLeast, 1).in_region(car, "lower-right", 1),
        _ => Query::new("three")
            .total_count(CountOp::AtLeast, 2)
            .class_count(ObjectClass::Car, CountOp::AtLeast, 1)
            .in_region(car, "lower-right", 1),
    }
}

/// Hand-built indicator columns: a cascade-pass column that agrees with the
/// ground truth except on a `flip_rate` share of frames, and one graded
/// series per predicate (plus, for multi-predicate queries, the trailing
/// conjunction series the pipeline carries).
fn columns(
    query: &Query,
    frames: &[Frame],
    backend: &'static str,
    stage: Stage,
    flip_rate: f64,
    rng: &mut StdRng,
) -> WindowBackendColumns {
    let pass: Vec<f64> =
        frames.iter().map(|f| indicator(query.matches_ground_truth(f) != (rng.gen::<f64>() < flip_rate))).collect();
    let mut predicates: Vec<Vec<f64>> = (0..query.predicates.len())
        .map(|_| pass.iter().map(|p| (0.6 * p + 0.4 * rng.gen::<f64>()).clamp(0.0, 1.0)).collect())
        .collect();
    if predicates.len() > 1 {
        predicates.push(pass.clone());
    }
    WindowBackendColumns { backend, stage, pass, predicates }
}

/// One differential case: a window of the first `n` scene frames.
#[derive(Debug, Clone, Copy)]
struct Case {
    n: usize,
    predicates: usize,
    window_index: usize,
    noisy_detector: bool,
    config: Config,
}

/// Runs the engine and the reference over the same window and checks report,
/// charge and detector invocations.
fn check(case: Case) {
    let Case { n, predicates, window_index, noisy_detector, config } = case;
    let frames = &scene_frames()[..n];
    let query = query_with(predicates);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC01);
    let backends = [
        columns(&query, frames, "OD", Stage::OdFilter, 0.15, &mut rng),
        columns(&query, frames, "IC", Stage::IcFilter, 0.35, &mut rng),
    ];
    // A single backend unless the adaptive prefix is on (it is a no-op
    // without a choice to make).
    let backends = if config.prefix.is_some() { &backends[..] } else { &backends[..1] };
    let window = || WindowData { index: window_index, start: window_index * 40, frames, backends };
    let oracle = if noisy_detector {
        OracleDetector::with_noise(NoiseModel::mild(), None, 77)
    } else {
        OracleDetector::perfect()
    };
    let ledger = CostLedger::paper();

    let naive_detector = CountingDetector::new(&oracle);
    let (want, want_charge) = naive_estimate_window(&query, config, &window(), &naive_detector, &ledger);

    let detector = CountingDetector::new(&oracle);
    let mut agg = WindowedAggregator::new(query.clone(), config.sample_size, config.trials, config.seed);
    if let Some(prefix) = config.prefix {
        agg = agg.with_adaptive_backend(prefix);
    }
    agg.set_shed_level(config.shed_level);
    let charge = agg.estimate_window(window(), &detector, &ledger);

    assert_eq!(agg.reports().len(), 1, "{case:?}");
    assert_bit_identical(&agg.reports()[0], &want);
    assert_eq!(charge.estimation_frames, want_charge.estimation_frames, "{case:?}");
    assert_eq!(charge.calibration_frames, want_charge.calibration_frames, "{case:?}");
    assert_eq!(
        charge.estimation_frames,
        (config.trials * agg.reports()[0].sample_size) as u64,
        "the bill stays trials × min(samples, n): {case:?}"
    );
    assert_eq!(agg.selections().len(), usize::from(config.prefix.is_some()), "{case:?}");
    assert_eq!(agg.shed_windows(), usize::from(config.shed_level > 0), "{case:?}");

    // The engine invokes the detector once per distinct frame the reference
    // touched, in the reference's first-touch order, and on no other frame.
    let mut first_touches = Vec::new();
    for id in naive_detector.calls() {
        if !first_touches.contains(&id) {
            first_touches.push(id);
        }
    }
    assert_eq!(detector.calls(), first_touches, "{case:?}");
}

const SIZES: [usize; 6] = [1, 2, 3, 7, 50, 250];
const TRIALS: [usize; 3] = [1, 3, 20];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn windowed_aggregator_matches_the_naive_trial_loop(
        shape in (0usize..SIZES.len(), 0usize..4, 0usize..TRIALS.len(), 1usize..=3),
        window_index in prop::bool::ANY.prop_map(|later| if later { 5 } else { 0 }),
        shed_level in 0u32..=3,
        noisy_detector in prop::bool::ANY,
        adaptive in prop::bool::ANY,
        prefix in 0usize..60,
        seed in 0u64..u64::MAX,
    ) {
        let (size, samples, trials, predicates) = shape;
        let n = SIZES[size];
        let sample_size = [2, n.saturating_sub(1), n, n + 5][samples];
        check(Case {
            n,
            predicates,
            window_index,
            noisy_detector,
            config: Config { sample_size, trials: TRIALS[trials], seed, shed_level, prefix: adaptive.then_some(prefix) },
        });
    }
}

fn case(n: usize, sample_size: usize, trials: usize) -> Case {
    Case {
        n,
        predicates: 2,
        window_index: 0,
        noisy_detector: false,
        config: Config { sample_size, trials, seed: 11, shed_level: 0, prefix: None },
    }
}

fn with_prefix(case: Case, prefix: Option<usize>) -> Case {
    Case { config: Config { prefix, ..case.config }, ..case }
}

#[test]
fn one_frame_window() {
    check(case(1, 10, 5));
    check(with_prefix(case(1, 10, 5), Some(8)));
}

#[test]
fn window_smaller_than_the_sample_evaluates_every_frame_every_trial() {
    let small = case(7, 12, 4);
    check(small);
    check(Case { window_index: 5, ..small });
}

#[test]
fn shed_levels_halve_the_sample_down_to_the_floor() {
    for shed_level in 1..=3 {
        // 20 → 10, 5, 2 samples per trial.
        let base = case(50, 20, 6);
        check(Case { config: Config { shed_level, ..base.config }, ..base });
    }
}

#[test]
fn no_frame_is_detected_twice_with_or_without_the_prefix() {
    for prefix in [None, Some(40)] {
        check(with_prefix(case(250, 50, 100), prefix));
    }
}

#[test]
fn empty_window_costs_nothing_and_reports_nothing() {
    let oracle = OracleDetector::perfect();
    let detector = CountingDetector::new(&oracle);
    for prefix in [None, Some(4)] {
        let mut agg = WindowedAggregator::new(query_with(1), 10, 5, 3);
        if let Some(prefix) = prefix {
            agg = agg.with_adaptive_backend(prefix);
        }
        let window = WindowData { index: 2, start: 80, frames: &[], backends: &[] };
        let charge = agg.estimate_window(window, &detector, &CostLedger::paper());
        assert_eq!(charge.total(), 0);
        assert!(agg.reports().is_empty());
        assert!(agg.selections().is_empty());
    }
    assert!(detector.calls().is_empty());
}
