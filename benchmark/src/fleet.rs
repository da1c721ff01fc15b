//! `fleet_poll`: 256 cameras × 7 standing statements through `FleetRuntime`.
//!
//! A round is one ingest quantum drained to empty: `ingest(16)` then
//! `poll()` until the backlog is zero. Rounds come in epochs of
//! [`EPOCH_ROUNDS`]: every epoch builds the fleet afresh from the same
//! seeds (that build plus the warm-up rounds is one `setup_s` sample) and so
//! repeats exactly the same work, which keeps the count-derived metrics
//! independent of how many rounds fit into `--seconds` and lets every later
//! epoch be checked against the first.

use std::collections::BTreeMap;
use std::time::Instant;

use vmq_aggregate::{AggregateReport, WindowedAggregator};
use vmq_core::{FleetConfig, FleetOutcome, FleetRuntime};
use vmq_detect::{Detector, OracleDetector};
use vmq_filters::{CalibratedFilter, CalibrationProfile, FrameFilter};
use vmq_query::{AggregateSpec, CascadeConfig, Query, QueryExecutor, WindowEstimator};
use vmq_video::{Frame, Scene, SceneConfig};

use crate::calibrate::{Calibrated, SETUP_SAMPLES};
use crate::check::Findings;
use crate::inputs::{self, derive, tag};
use crate::pass::{self, Statement};
use crate::run::{Args, Report, Timing};
use crate::trace::{span, TracedEstimator, TracedFilter, Tracer};

pub const CAMERAS: usize = 256;
/// Frames every camera produces per round.
pub const INGEST: usize = 16;
/// Timed rounds per epoch.
pub const EPOCH_ROUNDS: usize = 32;
/// Untimed rounds at the start of every epoch: about the warm-up time of
/// the pass workloads (whose rounds are twice as long), and enough for the
/// cache to fill, so eviction is on the hot path of every timed round.
pub const FLEET_WARMUP_ROUNDS: usize = 6;
pub const SELECTS_PER_CAMERA: usize = 5;
/// Byte budget of the fleet-wide detection cache. A round adds about 3 000
/// detections of about 260 bytes, so 4 MiB is full after five and a half
/// rounds — inside the warm-up — and every timed round evicts.
const CACHE_BYTES: usize = 4 << 20;
const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
/// Seconds of stream time per wall-clock aggregate window: 90 frames at
/// 30 fps, 45 at 15 fps. Three seconds is exact in binary, so window
/// boundaries do not depend on rounding.
const WINDOW_SECONDS: f64 = 3.0;
const WINDOW_FRAMES: usize = 100;
pub const LIGHT_TRIALS: usize = 3;
const LIGHT_SAMPLES: usize = 4;

/// The knobs of one fleet; the timed workload uses [`FleetShape::timed`].
#[derive(Clone)]
pub struct FleetShape {
    pub cameras: usize,
    pub workers: usize,
    pub queue_capacity: usize,
    pub shed_backlog_per_level: usize,
}

impl FleetShape {
    /// 256 cameras, two workers, default coalescing, queues never full.
    pub fn timed() -> Self {
        FleetShape { cameras: CAMERAS, workers: 2, queue_capacity: 4 * INGEST, shed_backlog_per_level: usize::MAX }
    }

    fn config(&self) -> FleetConfig {
        FleetConfig {
            batch_size: INGEST,
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            cache_bytes: CACHE_BYTES,
            shed_backlog_per_level: self.shed_backlog_per_level,
            ..FleetConfig::default()
        }
    }
}

fn fps(camera: usize) -> f32 {
    if camera.is_multiple_of(2) {
        30.0
    } else {
        15.0
    }
}

pub fn scene(seed: u64, camera: usize) -> Scene {
    let config = SceneConfig::from_profile(&inputs::dense_jackson()).with_camera(camera as u32).with_fps(fps(camera));
    Scene::new(config, derive(seed, tag::FLEET_SCENES ^ ((camera as u64) << 8)))
}

/// The five select clauses of one camera, drawn from the guarded family.
fn camera_selects(seed: u64, camera: usize) -> Vec<String> {
    inputs::draw_selects(derive(seed, tag::STATEMENTS ^ ((camera as u64) << 8)), SELECTS_PER_CAMERA)
}

/// Camera `camera`'s statements as a single-camera pass would run them:
/// its five selects and two light a1 aggregates over frame windows (the
/// pass machinery has no wall-clock windows).
pub fn camera_statements(seed: u64, camera: usize) -> Vec<Statement> {
    let mut statements: Vec<Statement> = camera_selects(seed, camera)
        .iter()
        .enumerate()
        .map(|(i, clause)| pass::select(format!("c{camera}s{i}"), clause, 0, CascadeConfig::tolerant()))
        .collect();
    for k in 0..2 {
        statements.push(pass::aggregate(
            format!("c{camera}a{k}"),
            pass::A1,
            WINDOW_FRAMES,
            LIGHT_TRIALS,
            LIGHT_SAMPLES,
        ));
    }
    statements
}

pub fn a1() -> Query {
    inputs::parse("a1", &inputs::statement_sql(pass::A1, None)).query
}

/// What one epoch produced.
pub struct Epoch {
    /// Fleet build plus warm-up rounds, at reference speed.
    pub setup_s: f64,
    /// Timed rounds at reference speed (see [`crate::calibrate`]).
    pub round_ms: Vec<f64>,
    /// Timed rounds as the clock read them.
    pub raw_round_ms: Vec<f64>,
    /// `None` when the epoch was cut short by the clock or not finished.
    pub outcome: Option<FleetOutcome>,
    /// Per-window reports of each camera's two aggregates, camera-major.
    pub reports: Vec<Vec<AggregateReport>>,
    pub dropped: u64,
    /// Threads the executor spawned during the timed rounds.
    pub spawns: u64,
    /// Scratch-workspace growth events during the timed rounds.
    pub scratch_growth: u64,
}

/// One round: an ingest quantum of [`INGEST`] frames per camera, drained.
fn round(fleet: &mut FleetRuntime<'_>, tracer: Option<&Tracer>) {
    span(tracer, "core.fleet.ingest", || fleet.ingest(INGEST));
    while fleet.backlog() > 0 {
        span(tracer, "core.fleet.poll", || fleet.poll());
    }
}

/// Builds the fleet from `seed`, warms it up and runs [`EPOCH_ROUNDS`] timed
/// rounds, stopping early once `budget_ms` of rounds have been measured.
/// With a tracer the injected filters and estimators and the ingest and
/// poll calls are wrapped in spans.
pub fn run_epoch(shape: &FleetShape, seed: u64, budget_ms: f64, finish: bool, tracer: Option<&Tracer>) -> Epoch {
    let mut calibrated = Calibrated::start(SETUP_SAMPLES);
    let start = Instant::now();
    let oracle = OracleDetector::perfect();
    let detector: &dyn Detector = &oracle;
    let classes = inputs::dense_jackson().class_list();
    let filters: Vec<CalibratedFilter> = (0..shape.cameras)
        .map(|c| {
            let seed = derive(seed, tag::FILTER_NOISE ^ ((c as u64) << 8));
            CalibratedFilter::new(classes.clone(), 14, CalibrationProfile::od_like(), seed)
        })
        .collect();
    let traced_filters: Vec<TracedFilter> = tracer.map_or(Vec::new(), |t| {
        filters.iter().map(|f| TracedFilter { inner: f as &dyn FrameFilter, tracer: t }).collect()
    });
    let a1 = a1();
    let mut estimators: Vec<WindowedAggregator> = (0..2 * shape.cameras)
        .map(|e| {
            let seed = derive(seed, tag::SAMPLER ^ ((e as u64) << 8));
            WindowedAggregator::new(a1.clone(), LIGHT_SAMPLES, LIGHT_TRIALS, seed)
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
    slots.reverse(); // popped in camera order below

    let mut fleet = FleetRuntime::new(detector, shape.config());
    for c in 0..shape.cameras {
        let camera = fleet.add_camera(scene(seed, c));
        let filter: &dyn FrameFilter = if tracer.is_some() { &traced_filters[c] } else { &filters[c] };
        let backend = fleet.add_backend(camera, filter);
        let tenant = TENANTS[c % TENANTS.len()];
        for (i, clause) in camera_selects(seed, c).iter().enumerate() {
            let query = inputs::parse(&format!("c{c}s{i}"), &inputs::statement_sql(clause, None)).query;
            fleet.register_select(camera, tenant, query, CascadeConfig::tolerant(), Some(backend));
        }
        let specs = [
            AggregateSpec::new(WINDOW_FRAMES, WINDOW_FRAMES),
            AggregateSpec::hopping_seconds(WINDOW_SECONDS, WINDOW_SECONDS),
        ];
        for spec in specs {
            let estimator = slots.pop().expect("two estimators per camera");
            fleet.register_aggregate(camera, tenant, a1.clone(), spec, &[backend], estimator);
        }
    }
    for _ in 0..FLEET_WARMUP_ROUNDS {
        round(&mut fleet, None);
    }
    let setup_s = calibrated.close(start.elapsed().as_secs_f64() * 1e3) / 1e3;
    let mut calibrated = Calibrated::start(1);

    let spawns_before = vmq_exec::stats().threads_spawned;
    let growth_before = vmq_nn::scratch_growth_events();
    let (mut round_ms, mut raw_round_ms) = (Vec::with_capacity(EPOCH_ROUNDS), Vec::with_capacity(EPOCH_ROUNDS));
    let mut measured_ms = 0.0;
    while round_ms.len() < EPOCH_ROUNDS && measured_ms < budget_ms {
        let ((), raw_ms, reference_ms) = calibrated.time(|| match tracer {
            Some(t) => t.round(round_ms.len() as u32, || round(&mut fleet, tracer)),
            None => round(&mut fleet, None),
        });
        measured_ms += raw_ms;
        raw_round_ms.push(raw_ms);
        round_ms.push(reference_ms);
    }
    let spawns = vmq_exec::stats().threads_spawned - spawns_before;
    let scratch_growth = vmq_nn::scratch_growth_events() - growth_before;
    let dropped = fleet.dropped();
    // `finish` settles the fleet-wide cache attribution once per camera plan
    // (2.3 s at 256 cameras), so only the epoch that is checked pays for it.
    let outcome = (finish && round_ms.len() == EPOCH_ROUNDS).then(|| fleet.finish());
    drop(traced_estimators);
    let reports = estimators.into_iter().map(|e| e.into_reports()).collect();
    Epoch { setup_s, round_ms, raw_round_ms, outcome, reports, dropped, spawns, scratch_growth }
}

/// A hash of every aggregate window an epoch estimated: later epochs must
/// reproduce the first one's exactly.
pub fn digest(epoch: &Epoch) -> u64 {
    let mut h = epoch.reports.len() as u64;
    for report in epoch.reports.iter().flatten() {
        for x in [report.plain_mean, report.cv_mean, report.true_fraction] {
            h = inputs::mix64(h ^ x.to_bits());
        }
    }
    h
}

/// The frames camera `camera` produces in its first `frames` steps.
pub fn reference_stream(seed: u64, camera: usize, frames: usize) -> Vec<Frame> {
    let mut scene = scene(seed, camera);
    (0..frames).map(|_| scene.step()).collect()
}

/// Checks a complete epoch of the timed fleet against the reference: every
/// select per camera for false positives, the operating-point guards pooled
/// per family member over cameras, every aggregate's window count and
/// estimates, no frame dropped, and the detector share.
pub fn check_epoch(seed: u64, shape: &FleetShape, frames_per_camera: usize, epoch: &Epoch) -> Findings {
    let mut findings = Findings::default();
    let outcome = epoch.outcome.as_ref().expect("only complete epochs are checked");
    if epoch.dropped > 0 {
        findings.fail(format!("{} frames were dropped at an ingest queue", epoch.dropped));
    }
    // clause → (reported, hits, truth, passed, frames), pooled over cameras.
    let mut pooled: BTreeMap<String, [usize; 5]> = BTreeMap::new();
    let per_camera = SELECTS_PER_CAMERA + 2;
    for c in 0..shape.cameras {
        let stream = reference_stream(seed, c, frames_per_camera);
        let statements = &outcome.statements[c * per_camera..(c + 1) * per_camera];
        for (clause, statement) in camera_selects(seed, c).into_iter().zip(statements) {
            let query = inputs::parse(&statement.name, &inputs::statement_sql(&clause, None)).query;
            let truth = QueryExecutor::new(query).ground_truth(&stream);
            let matched = &statement.run.matched_frames;
            let hits = matched.iter().filter(|id| truth.binary_search(id).is_ok()).count();
            findings.checked += 1;
            if hits != matched.len() {
                findings.fail(format!("select {} reports frames the reference does not contain", statement.name));
            }
            let pool = pooled.entry(clause).or_default();
            for (slot, add) in pool.iter_mut().zip([
                matched.len(),
                hits,
                truth.len(),
                statement.run.frames_passed_filter,
                stream.len(),
            ]) {
                *slot += add;
            }
        }
        let last_timestamp = stream.last().map_or(0.0, |f| f.timestamp);
        let expected = [frames_per_camera / WINDOW_FRAMES, (last_timestamp / WINDOW_SECONDS).floor() as usize];
        for (k, expected) in expected.into_iter().enumerate() {
            findings.aggregate(&format!("c{c}a{k}"), &epoch.reports[2 * c + k], expected);
        }
    }
    for (clause, [_, hits, truth, passed, frames]) in pooled {
        findings.operating_point(&clause, hits, truth, passed, frames);
    }
    findings.detector_share(outcome.detector_invocations, outcome.frames_ingested);
    findings
}

/// The fleet's variance probe: many-trial a1 and a2 aggregates with a
/// calibrated filter of the fleet's kind as the control.
pub fn variance_probe(seed: u64) -> Findings {
    let camera = pass::dense_camera(seed, Vec::new());
    let statements = pass::probe_statements(0, &[pass::A1, pass::A2], &[pass::PROBE_WINDOW]);
    let (stream, outcome) = pass::run_probe(&camera, &statements);
    crate::check::check_pass(&stream, &statements, &outcome)
}

pub fn run_untraced(args: &Args) -> Report {
    let shape = FleetShape::timed();
    let frames_per_round = (shape.cameras * INGEST) as u64;
    let frames_per_camera = (FLEET_WARMUP_ROUNDS + EPOCH_ROUNDS) * INGEST;
    let budget_ms = args.seconds * 1000.0;
    let mut timing = Timing { setup_s: Vec::new(), round_ms: Vec::new(), raw_round_ms: Vec::new(), frames_per_round };
    let mut failures = Vec::new();
    let mut first: Option<(Epoch, Findings)> = None;
    let mut measured_ms = 0.0;
    while measured_ms < budget_ms {
        // The first epoch always runs to its end: it is the one checked
        // against the reference and the source of the count-derived metrics.
        let budget = if first.is_none() { f64::INFINITY } else { budget_ms - measured_ms };
        let epoch = run_epoch(&shape, args.seed, budget, first.is_none(), None);
        measured_ms += epoch.raw_round_ms.iter().sum::<f64>();
        timing.setup_s.push(epoch.setup_s);
        timing.round_ms.extend(&epoch.round_ms);
        timing.raw_round_ms.extend(&epoch.raw_round_ms);
        if epoch.spawns > 0 {
            failures.push(format!("the executor spawned {} threads after warm-up", epoch.spawns));
        }
        match &first {
            None if epoch.outcome.is_some() => {
                let mut findings = check_epoch(args.seed, &shape, frames_per_camera, &epoch);
                findings.absorb(variance_probe(args.seed));
                first = Some((epoch, findings));
            }
            Some((reference, _)) if epoch.round_ms.len() == EPOCH_ROUNDS && digest(&epoch) != digest(reference) => {
                failures.push("an epoch disagrees with the first on an aggregate window".into());
            }
            _ => {}
        }
    }
    let rounds = timing.round_ms.len();
    let (epoch, findings) = first.expect("the first epoch runs to its end whatever the budget");
    let mut values = timing.values();
    let outcome = epoch.outcome.as_ref().expect("the first epoch was finished");
    values.push(("virtual_ms_per_frame", outcome.shared.shared_total_ms / outcome.frames_ingested as f64));
    values.extend(findings.quality_values());
    let attempted = rounds as u64 + findings.checked;
    let summary = format!("{}\n{}", timing.summary(), findings.summary());
    failures.extend(findings.failures);
    Report { attempted, failures, summary, values, rounds, frames_per_round }
}
