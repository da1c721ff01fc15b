//! The statement differential: every entry point — the executor's `run_*` one
//! statement at a time, one `SharedStreamPlan` holding all of them,
//! `StreamRuntime` and a 2–3-camera `FleetRuntime` at one and two detect
//! workers — must report for every statement exactly what the naive
//! reference (`common/reference.rs`) computes over that camera's frames:
//! the matched ids, passed and detected counts, the virtual-time bits, the
//! mode label, an adaptive select's plan and every window report. Statement
//! sets mix q1–q7, a1–a5 and an overlapping atom family at three cascade
//! tolerances over brute force, three calibrated backends and one untrained
//! OD network, with fixed and adaptive plans and control variates, frame and
//! seconds windows, across scene seeds and batch sizes {1, 7, 32, 64}.

#[path = "common/family.rs"]
mod family;
#[path = "common/reference.rs"]
mod reference;

use proptest::prelude::*;
use reference::{reference, EstimatorSpec, Expected, Statement};
use vmq::aggregate::AggregateReport;
use vmq::detect::{CostLedger, DetectionCache, OracleDetector};
use vmq::engine::{CalibrationConfig, EngineConfig, FilterChoice, FleetConfig, FleetRuntime, RuntimeQuery, VmqEngine};
use vmq::filters::{CalibratedFilter, CalibrationProfile, FilterConfig, FrameFilter, OdFilter};
use vmq::query::planner::{plan_cascade, PlanChoice};
use vmq::query::{
    AggregateSpec, CascadeConfig, DriftConfig, DriftSetup, PipelineConfig, Query, QueryExecutor, QueryRun,
    SharedStreamPlan, StageMetrics,
};
use vmq::video::{DatasetProfile, Frame, Scene, SceneConfig};

/// Backends 0–2 are calibrated filters with these error profiles; backend
/// [`OD`] is an untrained OD network, whose decode shards over the machine.
fn profiles() -> [CalibrationProfile; 3] {
    [CalibrationProfile::od_like(), CalibrationProfile::ic_like(), CalibrationProfile::perfect()]
}
const OD: usize = 3;
/// The perfect calibrated backend: a select through it at a tolerant or
/// loose cascade must also answer exactly as brute force.
const PERFECT: usize = 2;
const TOLERANCES: [fn() -> CascadeConfig; 3] = [CascadeConfig::strict, CascadeConfig::tolerant, CascadeConfig::loose];
const CAMERA_FPS: [f32; 3] = [30.0, 15.0, 10.0];

/// One drawn case: the stream, the batch sizes and the statements.
#[derive(Debug)]
struct Case {
    seed: u64,
    frames: usize,
    /// The executor's, the shared plan's and the fleet's batch sizes: three
    /// of {1, 7, 32, 64}. (`StreamRuntime` batches by the default 32.)
    batch_sizes: [usize; 3],
    cameras: u32,
    statements: Vec<Statement>,
}

fn selects() -> Vec<Query> {
    let paper = [Query::paper_q1, Query::paper_q2, Query::paper_q3, Query::paper_q4, Query::paper_q5];
    let paper = paper.into_iter().chain([Query::paper_q6, Query::paper_q7]).map(|q| q());
    paper.chain(family::overlapping_family()).collect()
}

/// One statement from drawn indices: `shape` 0–1 a fixed select, 2 an
/// adaptive select, 3–4 an aggregate. Aggregates draw their window from
/// tumbling and hopping frame windows and one-second and short, gappy
/// seconds windows.
fn statement((shape, q, b, t, w): (usize, usize, usize, usize, usize), seed: u64) -> Statement {
    let tolerance = TOLERANCES[t]();
    match shape {
        0 | 1 => {
            let selects = selects();
            Statement::Select {
                query: selects[q % selects.len()].clone(),
                backend: b.checked_sub(1),
                cascade: tolerance,
            }
        }
        2 => {
            let selects = selects();
            let backends = [vec![0], vec![0, 1], vec![1, 2], vec![2], vec![0, OD]][b].clone();
            let tolerances =
                [CascadeConfig::lattice(), vec![CascadeConfig::tolerant(), CascadeConfig::loose()], vec![tolerance]][t]
                    .clone();
            Statement::Adaptive {
                query: selects[q % selects.len()].clone(),
                backends,
                tolerances,
                prefix: [0, 12, 24, 40][w],
            }
        }
        _ => {
            let aggregates = [Query::paper_a1, Query::paper_a2, Query::paper_a3, Query::paper_a4, Query::paper_a5];
            let backends = [vec![0], vec![1], vec![OD], vec![0, 1], vec![1, 2, OD]][b].clone();
            let window = [
                AggregateSpec::new(30, 30),
                AggregateSpec::new(40, 20),
                AggregateSpec::hopping_seconds(1.0, 1.0),
                AggregateSpec::hopping_seconds(0.1, 0.25),
            ][w];
            let cv_prefix = (backends.len() > 1).then_some(8);
            let estimator = EstimatorSpec { sample_size: 6, trials: 4, seed: seed ^ 0xA66, cv_prefix };
            Statement::Aggregate {
                query: aggregates[q % aggregates.len()](),
                backends,
                // Mostly strict, as `StreamRuntime` registers every aggregate.
                spec: window.with_cascade(TOLERANCES[t / 2]()),
                estimator,
            }
        }
    }
}

/// A case: a stream of 60–120 frames, batch sizes, 2–3 fleet cameras, and
/// 2–6 statements of any shape after three fixed ones: a family member
/// through the untrained network (every case decodes it, and reports its
/// row's width), and one family member through a noisy calibrated backend
/// at two cascade tolerances, so a plan's atom table holds one predicate at
/// both.
fn case() -> impl Strategy<Value = Case> {
    let network = (7usize..27, 0usize..3).prop_map(|(q, t)| (0, q, OD + 1, t, 0));
    let twins = (7usize..27, 1usize..3, 0usize..3).prop_map(|(q, b, t)| [(0, q, b, t, 0), (0, q, b, (t + 1) % 3, 0)]);
    let any = (0usize..5, 0usize..27, 0usize..5, 0usize..3, 0usize..4);
    (0u64..1000, 3usize..7, 0usize..4, 2u32..4, (network, twins), prop::collection::vec(any, 2..7)).prop_map(
        |(seed, twenties, batch, cameras, (network, twins), any)| Case {
            seed,
            frames: 20 * twenties,
            batch_sizes: [0, 1, 2].map(|k| [1, 7, 32, 64][(batch + k) % 4]),
            cameras,
            statements: [network].into_iter().chain(twins).chain(any).map(|raw| statement(raw, seed)).collect(),
        },
    )
}

/// Builds fresh backend instances, the way the engine resolves them.
struct Backends {
    config: EngineConfig,
    od: OdFilter,
}

impl Backends {
    fn fresh_all(&self, ids: &[usize]) -> Vec<Box<dyn FrameFilter + '_>> {
        ids.iter().map(|&b| self.fresh(b)).collect()
    }

    fn fresh(&self, b: usize) -> Box<dyn FrameFilter + '_> {
        match b {
            OD => Box::new(&self.od),
            _ => Box::new(CalibratedFilter::new(
                self.config.filter.classes.clone(),
                self.config.filter.grid,
                profiles()[b],
                self.config.seed,
            )),
        }
    }
}

fn refs<'a>(filters: &'a [Box<dyn FrameFilter + '_>]) -> Vec<&'a dyn FrameFilter> {
    filters.iter().map(|f| f.as_ref() as _).collect()
}

/// What an entry point reported for one statement, in the reference's terms.
fn observed(run: &QueryRun, plan: Option<&PlanChoice>, reports: &[AggregateReport]) -> Expected {
    Expected {
        mode: run.mode.clone(),
        matched: run.matched_frames.clone(),
        passed: run.frames_passed_filter,
        detected: run.frames_detected,
        virtual_ms_bits: run.virtual_ms.to_bits(),
        plan: plan.map(|choice| format!("{choice:?}")),
        reports: reports.iter().map(|r| format!("{r:?}")).collect(),
    }
}

/// A learned backend's rows report the machine's decode width, every other
/// row one worker.
fn assert_widths(run: &QueryRun, ctx: &str) {
    for row in &run.stage_metrics {
        let learned = row.kernel_backend.as_deref().is_some_and(|k| k != "none");
        let width = if learned { vmq::exec::parallelism() } else { 1 };
        assert_eq!(row.workers, width, "{ctx}: {} row of {}", row.operator, run.query);
    }
}

fn check(entry: &str, statement: &Statement, actual: Expected, expected: &Expected) {
    assert_eq!(actual, *expected, "{entry} disagrees with the reference on {statement:?}");
}

/// The executor's `run_*`, one statement at a time.
fn executor(case: &Case, backends: &Backends, frames: &[Frame], expected: &[Expected]) {
    let oracle = OracleDetector::perfect();
    for (statement, expected) in case.statements.iter().zip(expected) {
        let exec = QueryExecutor::new(statement.query().clone()).with_batch_size(case.batch_sizes[0]);
        let actual = match statement {
            Statement::Select { backend: None, .. } => observed(&exec.run_brute_force(frames, &oracle), None, &[]),
            Statement::Select { backend: Some(b), cascade, .. } => {
                observed(&exec.run_filtered(frames, backends.fresh(*b).as_ref(), &oracle, *cascade), None, &[])
            }
            Statement::Adaptive { backends: ids, tolerances, prefix, .. } => {
                let filters = backends.fresh_all(ids);
                let (run, report) = exec.run_adaptive(frames, *prefix, &refs(&filters), tolerances, &oracle);
                assert_widths(&run, "executor");
                observed(&run, Some(&report.choice), &[])
            }
            Statement::Aggregate { query, backends: ids, spec, estimator } => {
                let mut aggregator = estimator.build(query);
                let filters = backends.fresh_all(ids);
                let run = exec.run_aggregate(frames, *spec, &refs(&filters), &oracle, &mut aggregator);
                assert_widths(&run, "executor");
                observed(&run, None, aggregator.reports())
            }
        };
        check("executor", statement, actual, expected);
    }
}

/// One `SharedStreamPlan` holding every statement: statements on the same
/// backend share one instance of it; each adaptive select profiles its own
/// candidates first, as the executor does.
fn shared_plan(case: &Case, backends: &Backends, frames: &[Frame], expected: &[Expected]) {
    let oracle = OracleDetector::perfect();
    let shared = backends.fresh_all(&[0, 1, 2, OD]);
    let mut candidates = Vec::new();
    let mut plans = Vec::new();
    let mut estimators = Vec::new();
    for statement in &case.statements {
        match statement {
            Statement::Adaptive { query, backends: ids, tolerances, prefix } => {
                let filters = backends.fresh_all(ids);
                let (ledger, prefix) = (CostLedger::paper(), &frames[..(*prefix).min(frames.len())]);
                let report =
                    plan_cascade(query, prefix, &refs(&filters), tolerances, &oracle, &ledger, case.batch_sizes[1]);
                plans.push((report, ledger));
                candidates.push(filters);
            }
            Statement::Aggregate { query, estimator, .. } => estimators.push(estimator.build(query)),
            Statement::Select { .. } => {}
        }
    }
    let config = PipelineConfig::with_batch_size(case.batch_sizes[1]);
    let mut plan = SharedStreamPlan::new(&oracle, DetectionCache::new(), CostLedger::paper(), config);
    let ids: Vec<usize> = shared.iter().map(|f| plan.add_backend(f.as_ref())).collect();
    let (mut adaptive, mut aggregates) = (candidates.iter().zip(&plans), estimators.iter_mut());
    for statement in &case.statements {
        match statement {
            Statement::Select { query, backend, cascade } => {
                plan.register_select(query.clone(), *cascade, backend.map(|b| ids[b]), CostLedger::paper());
            }
            Statement::Adaptive { query, .. } => {
                let (filters, (report, ledger)) = adaptive.next().expect("one plan per adaptive select");
                let choice = &report.choice;
                let backend = (!choice.brute_force).then(|| plan.add_backend(filters[choice.backend_index].as_ref()));
                let (mode, calibrate) = (format!("adaptive {}", choice.label), Some(StageMetrics::calibrate(report)));
                plan.register_select_with(query.clone(), choice.cascade, backend, ledger.clone(), mode, calibrate);
            }
            Statement::Aggregate { query, backends: listed, spec, .. } => {
                let listed: Vec<usize> = listed.iter().map(|&b| ids[b]).collect();
                let estimator = aggregates.next().expect("one estimator per aggregate");
                plan.register_aggregate(query.clone(), *spec, &listed, estimator, CostLedger::paper());
            }
        }
    }
    let runs = plan.execute_slice(frames);
    drop(plan);
    let (mut plans, mut estimators) = (plans.iter(), estimators.iter());
    for ((statement, run), expected) in case.statements.iter().zip(&runs).zip(expected) {
        assert_widths(run, "shared plan");
        let actual = match statement {
            Statement::Select { .. } => observed(run, None, &[]),
            Statement::Adaptive { .. } => observed(run, plans.next().map(|(report, _)| &report.choice), &[]),
            Statement::Aggregate { .. } => observed(run, None, estimators.next().expect("estimator").reports()),
        };
        check("shared plan", statement, actual, expected);
    }
}

/// The engine's `StreamRuntime`, over every statement it can express: a
/// select through a calibrated backend, an adaptive select over calibrated
/// candidates, an aggregate on a frame window at the strict cascade. A
/// select's synthesised brute-force baseline must equal the brute-force
/// reference too.
fn stream_runtime(engine: &VmqEngine, case: &Case, backends: &Backends, expected: &[Expected]) {
    let choice = |b: usize| (b != OD).then(|| FilterChoice::Calibrated(profiles()[b]));
    let choices = |ids: &[usize]| ids.iter().map(|&b| choice(b)).collect::<Option<Vec<_>>>();
    let mut runtime = engine.runtime();
    let mut registered = Vec::new();
    for (i, statement) in case.statements.iter().enumerate() {
        let runtime_query = match statement {
            Statement::Select { query, backend: Some(b), cascade } => {
                choice(*b).map(|choice| RuntimeQuery::Select { query: query.clone(), choice, cascade: *cascade })
            }
            Statement::Select { backend: None, .. } => None,
            Statement::Adaptive { query, backends: ids, tolerances, prefix } => {
                choices(ids).map(|candidate_backends| {
                    let calibration = CalibrationConfig {
                        prefix_frames: *prefix,
                        candidate_backends,
                        candidate_tolerances: tolerances.clone(),
                    };
                    RuntimeQuery::SelectAdaptive { query: query.clone(), calibration, drift: None }
                })
            }
            Statement::Aggregate { query, backends: ids, spec, estimator } => {
                let frame_window = spec.seconds.is_none() && spec.cascade == CascadeConfig::strict();
                let EstimatorSpec { sample_size, trials, cv_prefix, .. } = *estimator;
                choices(ids).filter(|_| frame_window).map(|candidate_backends| match cv_prefix {
                    None => RuntimeQuery::Aggregate {
                        query: query.clone(),
                        choice: candidate_backends[0],
                        window: spec.window,
                        sample_size,
                        trials,
                    },
                    Some(prefix_frames) => RuntimeQuery::AggregateAdaptive {
                        query: query.clone(),
                        calibration: CalibrationConfig {
                            prefix_frames,
                            candidate_backends,
                            candidate_tolerances: vec![],
                        },
                        window: spec.window,
                        sample_size,
                        trials,
                    },
                })
            }
        };
        if let Some(runtime_query) = runtime_query {
            runtime.register(runtime_query);
            registered.push(i);
        }
    }
    let outcome = runtime.run();
    let frames = engine.dataset().test();
    for (&i, statement_outcome) in registered.iter().zip(&outcome.outcomes) {
        let statement = &case.statements[i];
        let run = statement_outcome.run();
        let plan = statement_outcome.as_adaptive().map(|adaptive| &adaptive.calibration.choice);
        let reports = statement_outcome.as_aggregate().map_or(&[][..], |aggregate| &aggregate.reports);
        check("stream runtime", statement, observed(run, plan, reports), &expected[i]);
        let baseline = statement_outcome.as_select().map(|select| &select.brute_force);
        let baseline = baseline.or(statement_outcome.as_adaptive().map(|adaptive| &adaptive.outcome.brute_force));
        if let (Some(baseline), Statement::Select { query, .. } | Statement::Adaptive { query, .. }) =
            (baseline, statement)
        {
            let brute = Statement::Select { query: query.clone(), backend: None, cascade: CascadeConfig::strict() };
            let fresh = |b| backends.fresh(b);
            check(
                "stream runtime baseline",
                &brute,
                observed(baseline, None, &[]),
                &reference(&brute, frames, &fresh, &OracleDetector::perfect()),
            );
        }
    }
}

/// A `FleetRuntime` of `case.cameras` cameras at different frame rates,
/// each registering every statement with its own backend instances (an
/// adaptive select with fresh instances of its candidates, as the shared
/// plan gives it), fed by interleaved `ingest` and `poll`, at one and at
/// two detect workers. A quarter of the stream arrives per round, so a
/// camera whose longest prefix is longer stays held for the first polls.
fn fleet(case: &Case, backends: &Backends) {
    let oracle = OracleDetector::perfect();
    let scene = |c: u32| {
        let config =
            SceneConfig::from_profile(&DatasetProfile::jackson()).with_camera(c).with_fps(CAMERA_FPS[c as usize]);
        Scene::new(config, case.seed + 100 * u64::from(c))
    };
    let fresh = |b| backends.fresh(b);
    let expected: Vec<Vec<Expected>> = (0..case.cameras)
        .map(|c| {
            let mut scene = scene(c);
            let frames: Vec<Frame> = (0..case.frames).map(|_| scene.step()).collect();
            case.statements.iter().map(|s| reference(s, &frames, &fresh, &oracle)).collect()
        })
        .collect();
    for workers in [1, 2] {
        let filters: Vec<Vec<_>> = (0..case.cameras).map(|_| backends.fresh_all(&[0, 1, 2, OD])).collect();
        let candidates: Vec<Vec<_>> = (0..case.cameras)
            .flat_map(|_| {
                case.statements.iter().filter_map(|s| match s {
                    Statement::Adaptive { backends: ids, .. } => Some(backends.fresh_all(ids)),
                    _ => None,
                })
            })
            .collect();
        let mut estimators: Vec<_> = (0..case.cameras)
            .flat_map(|_| {
                case.statements.iter().filter_map(|s| match s {
                    Statement::Aggregate { query, estimator, .. } => Some(estimator.build(query)),
                    _ => None,
                })
            })
            .collect();
        let batch_size = case.batch_sizes[2];
        let config = FleetConfig { batch_size, workers, queue_capacity: case.frames, ..FleetConfig::default() };
        let mut runtime = FleetRuntime::new(&oracle, config);
        let (mut adaptive, mut aggregates) = (candidates.iter(), estimators.iter_mut());
        for (c, filters) in filters.iter().enumerate() {
            let camera = runtime.add_camera(scene(c as u32));
            let ids: Vec<usize> = filters.iter().map(|f| runtime.add_backend(camera, f.as_ref())).collect();
            for statement in &case.statements {
                match statement {
                    Statement::Select { query, backend, cascade } => {
                        runtime.register_select(camera, "tenant", query.clone(), *cascade, backend.map(|b| ids[b]));
                    }
                    Statement::Aggregate { query, backends: listed, spec, .. } => {
                        let listed: Vec<usize> = listed.iter().map(|&b| ids[b]).collect();
                        let estimator = aggregates.next().expect("one estimator per camera and aggregate");
                        runtime.register_aggregate(camera, "tenant", query.clone(), *spec, &listed, estimator);
                    }
                    Statement::Adaptive { query, tolerances, prefix, .. } => {
                        let filters = adaptive.next().expect("one candidate set per camera and adaptive select");
                        let candidate_backends =
                            filters.iter().map(|f| runtime.add_backend(camera, f.as_ref())).collect();
                        let config = DriftConfig::new(0.0);
                        let setup = DriftSetup { config, candidate_backends, tolerances: tolerances.clone() };
                        runtime.register_select_drifted(camera, "tenant", query.clone(), *prefix, setup);
                    }
                }
            }
        }
        for _ in 0..4 {
            assert_eq!(runtime.ingest(case.frames / 4), 0, "the queues hold a whole stream");
            runtime.poll();
        }
        let outcome = runtime.finish();
        let (mut outcomes, mut reports) = (outcome.statements.iter(), estimators.iter());
        for (c, expected) in expected.iter().enumerate() {
            for (statement, expected) in case.statements.iter().zip(expected) {
                let outcome = outcomes.next().expect("one outcome per registration");
                assert_widths(&outcome.run, "fleet");
                let reports = match statement {
                    Statement::Aggregate { .. } => reports.next().expect("estimator").reports(),
                    _ => &[],
                };
                let plan = outcome.calibration.as_ref().map(|report| &report.choice);
                let entry = format!("fleet camera {c} at {workers} workers");
                check(&entry, statement, observed(&outcome.run, plan, reports), expected);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_entry_point_answers_as_the_reference(case in case()) {
        // The dataset's test split starts past its training and validation
        // frames, so the leading seconds windows of its stream are empty.
        let config = EngineConfig::small(DatasetProfile::jackson()).with_sizes(20, case.frames).with_seed(case.seed);
        let engine = VmqEngine::new(config.clone());
        // Untrained, the network's grid cells sit around 0.35–0.6 and its
        // counts at 0: a threshold inside that band makes its spatial
        // controls vary frame by frame.
        let od = FilterConfig { threshold: 0.47, ..FilterConfig::fast_test(config.filter.classes.clone()) };
        let backends = Backends { od: OdFilter::new(od), config };
        let frames = engine.dataset().test();
        let oracle = OracleDetector::perfect();
        let fresh = |b| backends.fresh(b);
        let expected: Vec<Expected> = case.statements.iter().map(|s| reference(s, frames, &fresh, &oracle)).collect();
        for (statement, expected) in case.statements.iter().zip(&expected) {
            if let Statement::Select { query, backend: Some(PERFECT), cascade } = statement {
                if *cascade != CascadeConfig::strict() {
                    let brute = Statement::Select { query: query.clone(), backend: None, cascade: *cascade };
                    prop_assert_eq!(&expected.matched, &reference(&brute, frames, &fresh, &oracle).matched, "{}", query.name);
                }
            }
        }
        executor(&case, &backends, frames, &expected);
        shared_plan(&case, &backends, frames, &expected);
        stream_runtime(&engine, &case, &backends, &expected);
        fleet(&case, &backends);
    }
}
