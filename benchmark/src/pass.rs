//! The three single-camera workloads: a round is one full pass of the
//! statement set over a fixed stream through `SharedStreamPlan`, the
//! execution core under `StreamRuntime`.
//!
//! The plan is driven directly rather than through `VmqEngine`, because the
//! engine generates its own continuous dataset from a seed and cannot take
//! frames; see [`crate::inputs::snapshot_stream`] for why the benchmark
//! needs to supply them.

use std::time::Instant;

use vmq_aggregate::{AggregateReport, WindowedAggregator};
use vmq_detect::{CachedDetector, CostLedger, DetectionCache, Detector, OracleDetector, Stage};
use vmq_filters::{CalibratedFilter, CalibrationProfile, FilterConfig, FrameFilter, TrainedFilters};
use vmq_query::{
    plan_cascade, AggregateSpec, CascadeConfig, PipelineConfig, Query, QueryRun, SharedStreamPlan, StageMetrics,
    WindowEstimator,
};
use vmq_video::{Dataset, DatasetProfile, Frame};

use crate::inputs::{self, derive, tag};
use crate::trace::{span, TracedDetector, TracedEstimator, TracedFilter, Tracer};

/// Frames per plan batch (the pipeline's default).
pub const BATCH: usize = 32;
/// Grid side of every filter, learned or calibrated.
const GRID: usize = 14;
/// Trials at or above this make a window's variance a measured quantity.
pub const HEAVY_TRIALS: usize = 100;

pub enum Backend {
    Calibrated(CalibrationProfile),
    LearnedIc,
    LearnedOd,
}

pub enum Shape {
    /// A select with a fixed cascade.
    Select { cascade: CascadeConfig },
    /// A select whose cascade the planner picks on a calibration prefix,
    /// inside the round.
    Adaptive { prefix: usize },
    /// A tumbling-window aggregate.
    Aggregate { window: usize, trials: usize, samples: usize },
}

pub struct Statement {
    pub name: String,
    pub query: Query,
    pub backend: usize,
    pub shape: Shape,
}

impl Statement {
    pub fn is_select(&self) -> bool {
        !matches!(self.shape, Shape::Aggregate { .. })
    }
}

/// The camera side of a pass, made once in set-up from `--seed`: the
/// stream and the filter backends in front of the detector.
pub struct Camera {
    pub profile: DatasetProfile,
    pub frames: Vec<Frame>,
    pub backends: Vec<Backend>,
    pub trained: Option<TrainedFilters>,
    /// The first training frames, kept to calibrate an int8 twin on.
    pub train_prefix: Vec<Frame>,
    pub seed: u64,
    /// Wall seconds spent training filters (inside set-up).
    pub train_s: f64,
}

/// Everything one pass needs: a camera and its standing statements.
pub struct PassInputs {
    pub camera: Camera,
    pub statements: Vec<Statement>,
}

/// The deduplicated bill of one pass, split the way the ledger tracks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bill {
    pub total_ms: f64,
    /// Decode plus filter inference.
    pub filter_ms: f64,
    /// Every detector invocation, calibration and audit included.
    pub detector_ms: f64,
    pub detector_frames: u64,
}

impl Bill {
    pub fn of(ledger: &CostLedger) -> Self {
        let total_ms = ledger.total_ms();
        let detector_ms = ledger.stage_ms(Stage::MaskRcnn);
        Bill {
            total_ms,
            filter_ms: total_ms - detector_ms,
            detector_ms,
            detector_frames: ledger.invocations(Stage::MaskRcnn),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_bytes: usize,
}

impl CacheStats {
    pub fn of(cache: &DetectionCache) -> Self {
        CacheStats {
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: cache.evictions(),
            resident_bytes: cache.resident_bytes(),
        }
    }
}

pub struct PassOutcome {
    /// One run per statement, in statement order.
    pub runs: Vec<QueryRun>,
    /// Per-window reports per statement (empty for selects).
    pub reports: Vec<Vec<AggregateReport>>,
    pub bill: Bill,
    pub cache: CacheStats,
}

impl PassOutcome {
    /// A hash of every count-derived result: two passes over the same inputs
    /// must agree on it exactly.
    pub fn digest(&self) -> u64 {
        let mut h = self.bill.total_ms.to_bits() ^ self.bill.detector_frames;
        let mut fold = |x: u64| h = inputs::mix64(h ^ x);
        for run in &self.runs {
            fold(run.matched_frames.len() as u64);
            fold(run.matched_frames.iter().fold(0, |a, &f| inputs::mix64(a ^ f)));
            fold(run.frames_detected as u64);
            fold(run.frames_passed_filter as u64);
        }
        for report in self.reports.iter().flatten() {
            fold(report.plain_variance.to_bits());
            fold(report.cv_variance.to_bits());
            fold(report.mcv_variance.to_bits());
        }
        h
    }
}

/// One round: every statement over the camera's whole stream, from fresh
/// caches, ledgers, noise streams and samplers — a fixed amount of work.
/// With a tracer, the injected filters, estimators and detector and the plan
/// phases are wrapped in spans; without one the library is called directly.
pub fn run_pass(camera: &Camera, statements: &[Statement], tracer: Option<&Tracer>) -> PassOutcome {
    run_pass_over(camera, &camera.frames, statements, tracer)
}

/// [`run_pass`] over `frames` instead of the camera's own stream.
pub fn run_pass_over(
    camera: &Camera,
    frames: &[Frame],
    statements: &[Statement],
    tracer: Option<&Tracer>,
) -> PassOutcome {
    let oracle = OracleDetector::perfect();
    let traced_detector = tracer.map(|t| TracedDetector { inner: &oracle, tracer: t });
    let detector: &dyn Detector = match &traced_detector {
        Some(d) => d,
        None => &oracle,
    };
    let cache = DetectionCache::new();
    let global = CostLedger::paper();
    let classes = camera.profile.class_list();

    // The calibrated filter draws its noise from a sequential stream, so
    // every round starts from a freshly seeded instance.
    let calibrated: Vec<Option<CalibratedFilter>> = camera
        .backends
        .iter()
        .enumerate()
        .map(|(b, backend)| match backend {
            Backend::Calibrated(profile) => {
                let seed = derive(camera.seed, tag::FILTER_NOISE ^ ((b as u64) << 8));
                Some(CalibratedFilter::new(classes.clone(), GRID, *profile, seed))
            }
            _ => None,
        })
        .collect();
    let raw: Vec<&dyn FrameFilter> = camera
        .backends
        .iter()
        .zip(&calibrated)
        .map(|(backend, made)| -> &dyn FrameFilter {
            let trained = || camera.trained.as_ref().expect("learned backends are trained in set-up");
            match backend {
                Backend::Calibrated(_) => made.as_ref().expect("made above"),
                Backend::LearnedIc => &trained().ic,
                Backend::LearnedOd => &trained().od,
            }
        })
        .collect();
    let traced_filters: Vec<TracedFilter> =
        tracer.map_or(Vec::new(), |t| raw.iter().map(|&inner| TracedFilter { inner, tracer: t }).collect());
    let filters: Vec<&dyn FrameFilter> =
        if tracer.is_some() { traced_filters.iter().map(|f| f as &dyn FrameFilter).collect() } else { raw };

    // One sampler seed for every aggregate, as `StreamRuntime` does: monitors
    // over the same window geometry then sample the same frames.
    let sampler_seed = derive(camera.seed, tag::SAMPLER);
    let mut estimators: Vec<WindowedAggregator> = statements
        .iter()
        .filter_map(|s| match s.shape {
            Shape::Aggregate { trials, samples, .. } => {
                Some(WindowedAggregator::new(s.query.clone(), samples, trials, sampler_seed))
            }
            _ => None,
        })
        .collect();
    let mut traced_estimators: Vec<TracedEstimator> = Vec::new();
    let mut slots: Vec<&mut dyn WindowEstimator> = match tracer {
        Some(t) => {
            traced_estimators = estimators
                .iter_mut()
                .map(|e| TracedEstimator { inner: e as &mut dyn WindowEstimator, tracer: t })
                .collect();
            traced_estimators.iter_mut().map(|e| e as &mut dyn WindowEstimator).collect()
        }
        None => estimators.iter_mut().map(|e| e as &mut dyn WindowEstimator).collect(),
    };
    slots.reverse(); // popped in statement order below

    let mut plan =
        SharedStreamPlan::new(detector, cache.clone(), global.clone(), PipelineConfig::with_batch_size(BATCH));
    let plan_backends: Vec<usize> = filters.iter().map(|&f| plan.add_backend(f)).collect();
    for (q, statement) in statements.iter().enumerate() {
        let backend = plan_backends[statement.backend];
        let ledger = CostLedger::paper();
        match statement.shape {
            Shape::Select { cascade } => {
                plan.register_select(statement.query.clone(), cascade, Some(backend), ledger);
            }
            Shape::Adaptive { prefix } => {
                // The same accounting `StreamRuntime::run` does for one
                // adaptive statement: the prefix is annotated through the
                // shared cache (so the global ledger pays each frame once),
                // profiled with a filter instance of its own (profiling
                // consumes noise draws), and the private ledger pays the
                // full as-if-isolated calibration bill inside `plan_cascade`.
                let Backend::Calibrated(profile) = &camera.backends[statement.backend] else {
                    panic!("adaptive statements calibrate a calibrated backend");
                };
                let probe =
                    CalibratedFilter::new(classes.clone(), GRID, *profile, derive(camera.seed, tag::PLANNER_NOISE));
                let report = span(tracer, "query.planner.plan", || {
                    let prefix = &frames[..prefix.min(frames.len())];
                    global.charge_shared(probe.kind().stage(), prefix.len() as u64, &[q]);
                    let annotator = CachedDetector::new(detector, &cache, q, Some(global.clone()));
                    plan_cascade(
                        &statement.query,
                        prefix,
                        &[&probe],
                        &CascadeConfig::lattice(),
                        &annotator,
                        &ledger,
                        BATCH,
                    )
                });
                let calibrate_row = StageMetrics {
                    operator: "calibrate".to_string(),
                    stage: None,
                    frames_in: report.prefix_frames,
                    frames_out: report.prefix_frames,
                    virtual_ms: report.calibration_ms,
                    wall_ms: report.calibration_wall_ms,
                    workers: 1,
                    kernel_backend: None,
                };
                plan.register_select_with(
                    statement.query.clone(),
                    report.choice.cascade,
                    (!report.choice.brute_force).then_some(backend),
                    ledger,
                    format!("adaptive {}", report.choice.label),
                    Some(calibrate_row),
                );
            }
            Shape::Aggregate { window, .. } => {
                let estimator = slots.pop().expect("one estimator per aggregate statement");
                plan.register_aggregate(
                    statement.query.clone(),
                    AggregateSpec::new(window, window),
                    &[backend],
                    estimator,
                    ledger,
                );
            }
        }
    }

    for chunk in frames.chunks(BATCH) {
        let pending = span(tracer, "query.plan.prepare", || plan.prepare_batch(chunk));
        let start = Instant::now();
        let detections = span(tracer, "query.plan.detect", || plan.detect_pending(&pending));
        let detect_ms = start.elapsed().as_secs_f64() * 1000.0;
        span(tracer, "query.plan.complete", || plan.complete_batch(pending, detections, detect_ms));
    }
    let runs = span(tracer, "query.plan.finish", || plan.finish());
    drop(plan);
    drop(traced_estimators);

    let mut made = estimators.into_iter();
    let reports = statements
        .iter()
        .map(|s| if s.is_select() { Vec::new() } else { made.next().expect("one per aggregate").into_reports() })
        .collect();
    PassOutcome { runs, reports, bill: Bill::of(&global), cache: CacheStats::of(&cache) }
}

pub fn select(name: String, where_clause: &str, backend: usize, cascade: CascadeConfig) -> Statement {
    let query = inputs::parse(&name, &inputs::statement_sql(where_clause, None)).query;
    Statement { name, query, backend, shape: Shape::Select { cascade } }
}

pub fn aggregate(name: String, where_clause: &str, window: usize, trials: usize, samples: usize) -> Statement {
    let parsed = inputs::parse(&name, &inputs::statement_sql(where_clause, Some(window)));
    let (size, _) = parsed.window.expect("the generated statement carries a window clause");
    Statement { name, query: parsed.query, backend: 0, shape: Shape::Aggregate { window: size, trials, samples } }
}

pub const A1: &str = "IN(car, lower-right) >= 1";
pub const A2: &str = "ORDER(car, person) = RIGHT";

/// The seed, size and schedule of `nn_select`'s training split — constants
/// of the workload, not functions of `--seed`. At this scale the operating
/// point of a learned filter is decided by its training seed (IC passes
/// anywhere from 0.24 to 1.00 of the a1 stream across training seeds 1–6,
/// OD from 0.38 to 1.00), a swing no later change could be told apart from.
/// Seed 6 puts both filters at an intermediate point with recall 1.0; the
/// guards in `check.rs` assert that it stays there. `--seed` drives the
/// test stream the statements run over.
const TRAIN_SEED: u64 = 6;
const TRAIN_FRAMES: usize = 240;
const TRAIN_EPOCHS: usize = 3;

/// `nn_select`: one stock-Jackson camera, learned f32 IC and OD filters, two
/// selects on the a1 predicate so both networks run on every frame.
pub fn nn_select(seed: u64, frames: usize) -> PassInputs {
    let profile = DatasetProfile::jackson();
    let start = Instant::now();
    let dataset = Dataset::generate(&profile, TRAIN_FRAMES, 0, TRAIN_SEED);
    let mut config = FilterConfig::experiment(profile.class_list()).with_seed(TRAIN_SEED);
    config.schedule.epochs = TRAIN_EPOCHS;
    config.schedule.count_only_epochs = 1;
    let trained = TrainedFilters::train_ic_od(&dataset, &config, &OracleDetector::perfect());
    let train_s = start.elapsed().as_secs_f64();
    PassInputs {
        camera: Camera {
            frames: inputs::snapshot_stream(&profile, derive(seed, tag::STREAM), frames),
            profile,
            backends: vec![Backend::LearnedIc, Backend::LearnedOd],
            trained: Some(trained),
            train_prefix: dataset.train()[..48].to_vec(),
            seed,
            train_s,
        },
        statements: vec![
            select("a1_ic".into(), A1, 0, CascadeConfig::strict()),
            select("a1_od".into(), A1, 1, CascadeConfig { count_tolerance: 0, location_tolerance: 1 }),
        ],
    }
}

/// A dense-Jackson camera behind one calibrated OD-like filter, over the
/// given stream.
pub fn dense_camera(seed: u64, frames: Vec<Frame>) -> Camera {
    Camera {
        profile: inputs::dense_jackson(),
        frames,
        backends: vec![Backend::Calibrated(CalibrationProfile::od_like())],
        trained: None,
        train_prefix: Vec::new(),
        seed,
        train_s: 0.0,
    }
}

fn dense_snapshots(seed: u64, tag: u64, frames: usize) -> Vec<Frame> {
    inputs::snapshot_stream(&inputs::dense_jackson(), derive(seed, tag), frames)
}

pub const STANDING_SELECTS: usize = 39;
pub const ADAPTIVE: &str = "COUNT(car) = 0 AND COUNT(person) >= 1";
const LIGHT_WINDOW: usize = 500;

/// `standing_many`: one dense-Jackson camera, a calibrated OD-like filter
/// (no network), 50 standing statements parsed from SQL text.
pub fn standing_many(seed: u64, frames: usize) -> PassInputs {
    let mut statements: Vec<Statement> = inputs::draw_selects(derive(seed, tag::STATEMENTS), STANDING_SELECTS)
        .iter()
        .enumerate()
        .map(|(i, clause)| select(format!("s{i:02}"), clause, 0, CascadeConfig::tolerant()))
        .collect();
    // Count-only, so the lattice's location axis is moot and the planner
    // settles on count tolerance 1 or 2 (one seed in ten sees a miss at
    // tolerance 1 on the prefix). With no car wanted, even tolerance 2
    // escalates only frames of at most two estimated cars, which the fixed
    // selects escalate anyway: the plan choice cannot move the detector
    // share from seed to seed.
    let adaptive = inputs::parse("adaptive", &inputs::statement_sql(ADAPTIVE, None));
    statements.push(Statement {
        name: "adaptive".into(),
        query: adaptive.query,
        backend: 0,
        shape: Shape::Adaptive { prefix: 300 },
    });
    for (i, clause) in inputs::aggregate_family().iter().enumerate() {
        statements.push(aggregate(format!("g{i:02}"), clause, LIGHT_WINDOW, 3, 8));
    }
    PassInputs { camera: dense_camera(seed, dense_snapshots(seed, tag::STREAM, frames)), statements }
}

/// `aggregate_cv`: the same stream and filter, six 100-trial windowed
/// aggregates, and one a1 select so `select_recall_min` is measured here
/// too (the contract wants every metric from every workload).
pub fn aggregate_cv(seed: u64, frames: usize) -> PassInputs {
    let mut statements = Vec::new();
    for window in [250, 500, 1000] {
        statements.push(aggregate(format!("a1_w{window}"), A1, window, HEAVY_TRIALS, 50));
        statements.push(aggregate(format!("a2_w{window}"), A2, window, HEAVY_TRIALS, 50));
    }
    statements.push(select("a1_select".into(), A1, 0, CascadeConfig::tolerant()));
    PassInputs { camera: dense_camera(seed, dense_snapshots(seed, tag::STREAM, frames)), statements }
}

/// Frames of a variance probe's stream: snapshots of the workload's scene
/// process, drawn apart from its own stream. The reduction factor 1/(1 − ρ²)
/// turns a 1 % difference in the filter–detector correlation ρ into a 13 %
/// difference at ρ = 0.92, so it takes thousands of independent frames for
/// the factor to repeat across seeds.
pub const PROBE_FRAMES: usize = 6_000;
pub const PROBE_WINDOW: usize = 250;

/// Trials per window of a variance probe. A ratio of two 100-trial variances
/// is good to about 15 %; four times the trials halve that, and the probe is
/// not timed.
pub const PROBE_TRIALS: usize = 400;

/// The statements of a variance probe: Table-IV-style many-trial aggregates
/// (every clause at every window size) with a workload's own filter as the
/// control. They run as a pass of their own — own stream, plan, cache and
/// ledger — so the sampling never reaches the workload's bill (this many
/// trials sample nearly every frame of a window).
pub fn probe_statements(backend: usize, clauses: &[&str], windows: &[usize]) -> Vec<Statement> {
    let mut statements = Vec::new();
    for (i, clause) in clauses.iter().enumerate() {
        for &window in windows {
            let statement = aggregate(format!("probe{i}_w{window}"), clause, window, PROBE_TRIALS, 50);
            statements.push(Statement { backend, ..statement });
        }
    }
    statements
}

/// Runs a variance probe with `camera`'s filters and returns the outcome
/// together with the stream it ran over.
pub fn run_probe(camera: &Camera, statements: &[Statement]) -> (Vec<Frame>, PassOutcome) {
    let frames = inputs::snapshot_stream(&camera.profile, derive(camera.seed, tag::PROBE), PROBE_FRAMES);
    let outcome = run_pass_over(camera, &frames, statements, None);
    (frames, outcome)
}
