//! The traced run: per-layer metrics from spans around the workload's own
//! rounds plus isolated timings of single layer calls.
//!
//! Traced and untraced rounds alternate, so both see the same machine; the
//! difference between their throughputs is the tracing overhead. End-to-end
//! metrics never come from here.

use std::hint::black_box;
use std::time::Instant;

use vmq_core::{EngineConfig, FilterChoice, RuntimeQuery, VmqEngine};
use vmq_detect::{CostLedger, DetectionCache, Detector, OracleDetector, Stage};
use vmq_filters::{CalibratedFilter, CalibrationProfile, FrameFilter, QuantizedOdFilter};
use vmq_nn::kernels::{conv2d_into, matmul_into};
use vmq_nn::ops::ConvSpec;
use vmq_query::{format_statement, plan_cascade, CascadeConfig, QueryRun};
use vmq_video::{Frame, RasterConfig, Scene, SceneConfig};

use crate::check::Findings;
use crate::fleet::{self, FleetShape, EPOCH_ROUNDS, FLEET_WARMUP_ROUNDS, INGEST};
use crate::inputs::{self, derive, tag};
use crate::metrics::{median, per_layer_name, quantile, STAGE_OPERATORS};
use crate::pass::{self, run_pass, Bill, CacheStats, Camera, PassInputs, Shape, Statement, BATCH};
use crate::run::{check_pass_workload, set_up_pass, Args, PassSpec, Report};
use crate::trace::{self_times, spans_json, SelfTimes, Tracer};

/// Traced rounds of a pass workload at the declared `--seconds` (as many
/// untraced ones run in between); a shorter run traces fewer.
const TRACED_ROUNDS: usize = 20;

type Values = Vec<(&'static str, f64)>;

/// Median microseconds of `reps` calls of `f`.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// `vmq-video`: one scene step and one rasterisation, on the given profile.
fn video_probe(profile: &vmq_video::DatasetProfile, seed: u64) -> Values {
    let mut scene = Scene::new(SceneConfig::from_profile(profile), derive(seed, tag::PROBE));
    let frames: Vec<Frame> = (0..256).map(|_| scene.step()).collect();
    let step_us = median_us(20, || {
        for _ in 0..256 {
            black_box(scene.step());
        }
    }) / 256.0;
    let raster = RasterConfig::default();
    let raster_us = median_us(5, || {
        for frame in &frames {
            black_box(raster.render(frame));
        }
    }) / frames.len() as f64;
    vec![("video.scene_step_us", step_us), ("video.raster_us", raster_us)]
}

/// `vmq-nn`: the three 3×3 convolutions of the OD trunk (56-pixel raster,
/// channels 3→8→16→16, a 2×2 pool after each) through `conv2d_into`, and
/// the second one's im2col product through `matmul_into`, on the active
/// kernel backend.
fn nn_probe() -> Values {
    let shapes = [(3usize, 8usize, 56usize), (8, 16, 28), (16, 16, 14)];
    let mut flops = 0.0;
    let mut conv_us = 0.0;
    for (cin, cout, side) in shapes {
        let spec = ConvSpec { in_channels: cin, out_channels: cout, kernel: 3, stride: 1, padding: 1 };
        let input = vec![0.5f32; cin * side * side];
        let weight = vec![0.01f32; cout * cin * 9];
        let bias = vec![0.0f32; cout];
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        conv_us += median_us(200, || {
            conv2d_into(black_box(&input), side, side, &spec, &weight, &bias, &mut scratch, &mut out);
            black_box(&out);
        });
        flops += 2.0 * (cin * cout * 9 * side * side) as f64;
    }
    let (m, k, n) = (16, 8 * 9, 28 * 28);
    let (a, b) = (vec![0.01f32; m * k], vec![0.5f32; k * n]);
    let mut out = Vec::new();
    let matmul_us = median_us(200, || {
        matmul_into(black_box(&a), m, k, &b, n, &mut out);
        black_box(&out);
    });
    vec![
        ("nn.kernels.conv_us", conv_us),
        ("nn.kernels.conv_gflops", flops / conv_us / 1e3),
        ("nn.kernels.matmul_us", matmul_us),
    ]
}

/// Microseconds per frame of `estimate_batch` at the plan's batch size.
fn estimate_batch_us(filter: &dyn FrameFilter, frames: &[Frame]) -> f64 {
    median_us(3, || {
        for chunk in frames.chunks(BATCH) {
            black_box(filter.estimate_batch(chunk));
        }
    }) / frames.len() as f64
}

/// `vmq-filters`: every backend the camera has, per frame at batch 32.
fn filters_probe(camera: &Camera) -> Values {
    let frames = &camera.frames[..camera.frames.len().min(256)];
    let calibrated = CalibratedFilter::new(camera.profile.class_list(), 14, CalibrationProfile::od_like(), camera.seed);
    let mut values = vec![
        ("filters.calibrated.estimate_batch_us", estimate_batch_us(&calibrated, frames)),
        ("filters.train_s", camera.train_s),
    ];
    let learned = match &camera.trained {
        Some(trained) => {
            let int8 = QuantizedOdFilter::from_trained(&trained.od, &camera.train_prefix);
            let sharded = |workers: usize| {
                median_us(3, || {
                    for chunk in frames.chunks(BATCH) {
                        black_box(trained.od.estimate_batch_sharded(chunk, workers));
                    }
                })
            };
            [
                estimate_batch_us(&trained.od, frames),
                estimate_batch_us(&trained.ic, frames),
                estimate_batch_us(&int8, frames),
                sharded(1) / sharded(2),
            ]
        }
        None => [0.0; 4],
    };
    let names = [
        "filters.od.estimate_batch_us",
        "filters.ic.estimate_batch_us",
        "filters.od_int8.estimate_batch_us",
        "filters.od.sharded2_speedup",
    ];
    values.extend(names.into_iter().zip(learned));
    values
}

/// `vmq-query`: parsing the statements' SQL, planning one cascade, and the
/// cost of a statement-frame at three fan-outs over the same 1 000 frames.
fn query_probe(statements: &[Statement], seed: u64) -> Values {
    let sql: Vec<String> = statements
        .iter()
        .map(|s| {
            let window = match s.shape {
                Shape::Aggregate { window, .. } => Some((window, window)),
                _ => None,
            };
            format_statement(&s.query, window)
        })
        .collect();
    let parse_us = median_us(20, || {
        for (statement, sql) in statements.iter().zip(&sql) {
            black_box(inputs::parse(&statement.name, sql));
        }
    }) / sql.len() as f64;

    let stream = inputs::snapshot_stream(&inputs::dense_jackson(), derive(seed, tag::PROBE), 1_000);
    let camera = pass::dense_camera(seed, stream);
    let oracle = OracleDetector::perfect();
    let query = inputs::parse("planned", &inputs::statement_sql(pass::ADAPTIVE, None)).query;
    let plan_ms = median_us(5, || {
        let filter = CalibratedFilter::new(camera.profile.class_list(), 14, CalibrationProfile::od_like(), camera.seed);
        let ledger = CostLedger::paper();
        black_box(plan_cascade(
            &query,
            &camera.frames[..300],
            &[&filter],
            &CascadeConfig::lattice(),
            &oracle,
            &ledger,
            BATCH,
        ));
    }) / 1e3;

    let family = inputs::select_family();
    let fan_out = |k: usize| {
        let statements: Vec<Statement> = (0..k)
            .map(|i| Statement {
                name: format!("f{i}"),
                query: inputs::parse("f", &inputs::statement_sql(&family[i % family.len()], None)).query,
                backend: 0,
                shape: Shape::Select { cascade: CascadeConfig::tolerant() },
            })
            .collect();
        median_us(3, || {
            black_box(run_pass(&camera, &statements, None));
        }) / (k * camera.frames.len()) as f64
    };
    vec![
        ("query.parser.parse_us", parse_us),
        ("query.planner.plan_ms", plan_ms),
        ("query.plan.us_per_stmt_frame_7", fan_out(7)),
        ("query.plan.us_per_stmt_frame_50", fan_out(50)),
        ("query.plan.us_per_stmt_frame_200", fan_out(200)),
    ]
}

/// `vmq-detect`: a cache hit, one oracle detection and one ledger charge.
fn detect_probe(frames: &[Frame]) -> Values {
    let frames = &frames[..frames.len().min(1_000)];
    let oracle = OracleDetector::perfect();
    let cache = DetectionCache::new();
    for frame in frames {
        cache.get_or_detect(&oracle, frame, 0);
    }
    let fetch_ns = median_us(10, || {
        for frame in frames {
            black_box(cache.get_or_detect(&oracle, frame, 1));
        }
    }) * 1e3
        / frames.len() as f64;
    let detect_us = median_us(10, || {
        for frame in frames {
            black_box(oracle.detect(frame));
        }
    }) / frames.len() as f64;
    let ledger = CostLedger::paper();
    let charge_ns = median_us(10, || {
        for _ in 0..10_000 {
            ledger.charge(Stage::Decode, 1);
        }
    }) * 1e3
        / 1e4;
    vec![
        ("detect.cache.fetch_ns", fetch_ns),
        ("detect.oracle.detect_us", detect_us),
        ("detect.ledger.charge_ns", charge_ns),
    ]
}

/// `vmq-exec`: a two-worker scope of two trivial tasks on the warm pool.
fn exec_probe() -> Values {
    let run = || {
        vmq_exec::scope(2, |scope| {
            scope.spawn(|| {
                black_box(1);
            });
            scope.spawn(|| {
                black_box(2);
            });
        })
    };
    run(); // grows the pool to two workers
    vec![("exec.scope_us", median_us(500, run))]
}

/// `vmq-core`: one `StreamRuntime::run` of five selects and two light
/// aggregates over a 1 000-frame dataset the engine generates itself.
fn runtime_probe(seed: u64) -> Values {
    let engine = VmqEngine::new(EngineConfig::small(inputs::dense_jackson()).with_sizes(16, 1_000).with_seed(seed));
    let choice = FilterChoice::Calibrated(CalibrationProfile::od_like());
    let mut runtime = engine.runtime();
    for clause in inputs::draw_selects(derive(seed, tag::PROBE), 5) {
        let query = inputs::parse("r", &inputs::statement_sql(&clause, None)).query;
        runtime.register(RuntimeQuery::Select { query, choice, cascade: CascadeConfig::tolerant() });
    }
    for clause in [pass::A1, pass::A2] {
        let parsed = inputs::parse("r", &inputs::statement_sql(clause, Some(100)));
        runtime.register_statement(&parsed, choice, CascadeConfig::tolerant(), 4, 3);
    }
    let run_ms = median_us(3, || {
        black_box(runtime.run());
    }) / 1e3;
    vec![("core.runtime.run_ms", run_ms)]
}

/// Sums `StageMetrics` rows over statements into the per-operator counters.
fn stage_values<'a>(runs: impl Iterator<Item = &'a QueryRun> + Clone) -> Values {
    let mut values = Vec::new();
    for operator in STAGE_OPERATORS {
        let rows = runs.clone().flat_map(|run| &run.stage_metrics).filter(|row| row.operator == operator);
        let (frames_in, frames_out) = rows.fold((0, 0), |acc, row| (acc.0 + row.frames_in, acc.1 + row.frames_out));
        values.push((per_layer_name(&format!("query.stage.{operator}.frames_in")), frames_in as f64));
        values.push((per_layer_name(&format!("query.stage.{operator}.frames_out")), frames_out as f64));
    }
    values
}

/// The spread of the selects' cascade pass rates.
fn pass_rate_values(findings: &Findings) -> Values {
    vec![
        ("filters.pass_rate_min", quantile(&findings.pass_rates, 0.0)),
        ("filters.pass_rate_max", quantile(&findings.pass_rates, 1.0)),
    ]
}

/// The `detect.*` counters of one round (or one fleet epoch). The shared
/// ledger does not track calibration and audit apart from the rest, so those
/// two come from the statements' own bills: the `calibrate` rows of adaptive
/// statements and the frames their drift monitors audited.
fn bill_values<'a>(
    bill: &Bill,
    cache: &CacheStats,
    camera_frames: u64,
    runs: impl Iterator<Item = &'a QueryRun> + Clone,
) -> Values {
    let per_frame = |ms: f64| ms / camera_frames as f64;
    let calibrate_rows = runs.clone().flat_map(|run| &run.stage_metrics).filter(|row| row.operator == "calibrate");
    let calibration_ms: f64 = calibrate_rows.map(|row| row.virtual_ms).sum();
    let detector_ms = CostLedger::paper().model().cost_ms(Stage::MaskRcnn);
    let audit_ms = runs.map(|run| run.audit_frames as f64).sum::<f64>() * detector_ms;
    vec![
        ("detect.cache.hit_share", cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64),
        ("detect.cache.evictions", cache.evictions as f64),
        ("detect.cache.resident_mb", cache.resident_bytes as f64 / (1 << 20) as f64),
        ("detect.detector_frames", bill.detector_frames as f64),
        ("detect.virtual.filter_ms", per_frame(bill.filter_ms)),
        ("detect.virtual.detector_ms", per_frame(bill.detector_ms)),
        ("detect.virtual.calibration_ms", per_frame(calibration_ms)),
        ("detect.virtual.audit_ms", per_frame(audit_ms)),
    ]
}

/// The `aggregate.*` values: window time and count from the spans, trial
/// and sample counts from the runs, quality from the reference check.
fn aggregate_values(times: &SelfTimes, traced_trials: u64, samples: u64, findings: &Findings) -> Values {
    let windows = times.span_count("aggregate.estimate_window");
    let window_us = times.span_us("aggregate.estimate_window");
    let per_round = |count: u64| count as f64 / times.rounds.max(1) as f64;
    let or_zero = |v: &[f64], f: fn(&[f64]) -> f64| if v.is_empty() { 0.0 } else { f(v) };
    vec![
        ("aggregate.window_ms", if windows == 0 { 0.0 } else { window_us / windows as f64 / 1e3 }),
        ("aggregate.trials_per_s", if window_us == 0.0 { 0.0 } else { traced_trials as f64 / (window_us / 1e6) }),
        ("aggregate.windows", per_round(windows)),
        ("aggregate.detector_samples", samples as f64),
        ("aggregate.correlation_median", or_zero(&findings.correlations, median)),
        ("aggregate.cv_reduction_window_min", or_zero(&findings.window_cv_reductions, |v| quantile(v, 0.0))),
    ]
}

/// The `trace.*` values and the span file.
fn trace_values(
    workload: &str,
    tracer: &Tracer,
    times: &SelfTimes,
    traced_ms: &[f64],
    untraced_ms: &[f64],
    frames_per_round: u64,
    dominant: &[&str],
) -> Values {
    let fps = |ms: &[f64]| ms.len() as f64 * frames_per_round as f64 / (ms.iter().sum::<f64>() / 1e3);
    let spans = tracer.spans();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{workload}.json");
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans_json(&spans)));
    match written {
        Ok(()) => println!("trace: {} spans written to {path}", spans.len()),
        Err(e) => println!("trace: could not write {path}: {e}"),
    }
    println!("trace: self time per layer over {} rounds ({:.1} ms of rounds)", times.rounds, times.round_us / 1e3);
    for (layer, us) in &times.by_layer {
        println!("trace:   {layer:<10} {:>10.1} ms  {:>5.1} %", us / 1e3, 100.0 * us / times.round_us);
    }
    vec![
        ("trace.rounds", times.rounds as f64),
        ("trace.spans", spans.len() as f64),
        ("trace.round_ms_p50", median(traced_ms)),
        ("trace.frames_per_s", fps(traced_ms)),
        ("trace.untraced_frames_per_s", fps(untraced_ms)),
        ("trace.overhead_pct", 100.0 * (fps(untraced_ms) - fps(traced_ms)) / fps(untraced_ms)),
        ("trace.dominant_share", times.layer_share(dominant)),
        ("trace.unexplained_share", times.unexplained_share()),
    ]
}

/// The `core.fleet.*` values of a workload without a fleet.
const NO_FLEET: [(&str, f64); 8] = [
    ("core.fleet.setup_ms", 0.0),
    ("core.fleet.ingest_us_per_frame", 0.0),
    ("core.fleet.poll_ms", 0.0),
    ("core.fleet.poll_ms_workers1", 0.0),
    ("core.fleet.coalesced_batch_mean", 0.0),
    ("core.fleet.burst.dropped_share", 0.0),
    ("core.fleet.burst.max_shed_level", 0.0),
    ("core.fleet.burst.select_recall_min", 0.0),
];

/// Per-frame time of the three plan phases, from the spans.
fn plan_phase_values(times: &SelfTimes, frames: f64) -> Values {
    vec![
        ("query.plan.prepare_us_per_frame", times.span_us("query.plan.prepare") / frames),
        ("query.plan.detect_us_per_frame", times.span_us("query.plan.detect") / frames),
        ("query.plan.complete_us_per_frame", times.span_us("query.plan.complete") / frames),
    ]
}

/// Runs `round` untraced and traced in alternation — up to [`TRACED_ROUNDS`]
/// pairs, at least two, stopping once `seconds` have been measured — and
/// returns both timings.
fn alternate<T>(seconds: f64, tracer: &Tracer, mut round: impl FnMut(Option<&Tracer>) -> T) -> (Vec<f64>, Vec<f64>, T) {
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    let started = Instant::now();
    for r in 0..TRACED_ROUNDS {
        if r >= 2 && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let start = Instant::now();
        round(None);
        untraced_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        last = Some(tracer.round(r as u32, || round(Some(tracer))));
        traced_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (traced_ms, untraced_ms, last.expect("at least one traced round"))
}

pub fn traced_pass(spec: &PassSpec, args: &Args) -> Report {
    let (inputs, _) = set_up_pass(spec, args.seed, 1);
    let PassInputs { camera, statements } = &inputs;
    let frames = camera.frames.len() as u64;
    let tracer = Tracer::new();
    let growth_before = vmq_nn::scratch_growth_events();
    let spawns_before = vmq_exec::stats().threads_spawned;
    let (traced_ms, untraced_ms, outcome) =
        alternate(args.seconds, &tracer, |tracer| run_pass(camera, statements, tracer));
    let growth = vmq_nn::scratch_growth_events() - growth_before;
    let spawns = vmq_exec::stats().threads_spawned - spawns_before;
    let times = self_times(&tracer.spans());
    let findings = check_pass_workload(spec, &inputs, &outcome);

    let aggregates = statements.iter().zip(&outcome.runs).filter(|(s, _)| !s.is_select());
    let (trials, samples) = aggregates.fold((0, 0), |acc, (statement, run)| {
        let Shape::Aggregate { window, trials, .. } = statement.shape else { unreachable!("filtered above") };
        (acc.0 + (camera.frames.len() / window * trials) as u64, acc.1 + run.frames_detected as u64)
    });

    let mut values = trace_values(&args.workload, &tracer, &times, &traced_ms, &untraced_ms, frames, spec.dominant);
    values.extend(video_probe(&camera.profile, args.seed));
    values.extend(nn_probe());
    values.push(("nn.workspace.growth_events", growth as f64));
    values.extend(filters_probe(camera));
    values.extend(pass_rate_values(&findings));
    values.extend(query_probe(statements, args.seed));
    values.extend(plan_phase_values(&times, (times.rounds * frames) as f64));
    values.extend(stage_values(outcome.runs.iter()));
    values.extend(detect_probe(&camera.frames));
    values.extend(bill_values(&outcome.bill, &outcome.cache, frames, outcome.runs.iter()));
    values.extend(aggregate_values(&times, trials * times.rounds, samples, &findings));
    values.extend(exec_probe());
    values.push(("exec.spawns_steady", spawns as f64));
    values.extend(runtime_probe(args.seed));
    values.extend(NO_FLEET);
    Report {
        attempted: 2 * times.rounds + findings.checked,
        summary: findings.summary(),
        failures: findings.failures,
        values,
        rounds: times.rounds as usize,
        frames_per_round: frames,
    }
}

/// The overload burst: four ingest quanta at once against queues three
/// batches deep, with shedding on. Drops and shedding are counted; select
/// recall on the admitted frames must stay 1.0 under a perfect filter.
fn burst_probe(seed: u64) -> Values {
    const CAMERAS: usize = 32;
    const BURSTS: usize = 4;
    let (capacity, burst) = (3 * INGEST, 4 * INGEST);
    let oracle = OracleDetector::perfect();
    let classes = inputs::dense_jackson().class_list();
    let filters: Vec<CalibratedFilter> = (0..CAMERAS)
        .map(|c| CalibratedFilter::new(classes.clone(), 14, CalibrationProfile::perfect(), derive(seed, c as u64)))
        .collect();
    let mut estimators: Vec<vmq_aggregate::WindowedAggregator> = (0..CAMERAS)
        .map(|c| vmq_aggregate::WindowedAggregator::new(fleet::a1(), 8, 3, derive(seed, tag::BURST ^ c as u64)))
        .collect();
    let mut runtime = vmq_core::FleetRuntime::new(
        &oracle,
        vmq_core::FleetConfig {
            batch_size: INGEST,
            queue_capacity: capacity,
            shed_backlog_per_level: CAMERAS * capacity / 2,
            ..vmq_core::FleetConfig::default()
        },
    );
    let clause = "COUNT(car) = 1 AND COUNT(person) >= 1";
    let query = inputs::parse("burst", &inputs::statement_sql(clause, None)).query;
    for (c, (filter, estimator)) in filters.iter().zip(estimators.iter_mut()).enumerate() {
        let camera = runtime.add_camera(fleet::scene(seed ^ tag::BURST, c));
        let backend = runtime.add_backend(camera, filter);
        runtime.register_select(camera, "burst", query.clone(), CascadeConfig::strict(), Some(backend));
        let spec = vmq_query::AggregateSpec::new(INGEST, INGEST);
        runtime.register_aggregate(camera, "burst", fleet::a1(), spec, &[backend], estimator);
    }
    for _ in 0..BURSTS {
        runtime.ingest(burst);
        runtime.drain();
    }
    let outcome = runtime.finish();
    // Each burst admits its first `capacity` frames per camera.
    let mut recall_min: f64 = 1.0;
    for c in 0..CAMERAS {
        let stream = fleet::reference_stream(seed ^ tag::BURST, c, BURSTS * burst);
        let truth: Vec<u64> = (0..BURSTS)
            .flat_map(|b| &stream[b * burst..b * burst + capacity])
            .filter(|f| query.matches_ground_truth(f))
            .map(|f| f.frame_id)
            .collect();
        let matched = &outcome.statements[2 * c].run.matched_frames;
        let hits = truth.iter().filter(|id| matched.contains(id)).count();
        if !truth.is_empty() {
            recall_min = recall_min.min(hits as f64 / truth.len() as f64);
        }
    }
    let offered = (CAMERAS * BURSTS * burst) as f64;
    vec![
        ("core.fleet.burst.dropped_share", outcome.frames_dropped as f64 / offered),
        ("core.fleet.burst.max_shed_level", outcome.max_shed_level as f64),
        ("core.fleet.burst.select_recall_min", recall_min),
    ]
}

pub fn traced_fleet(args: &Args) -> Report {
    let shape = FleetShape::timed();
    let frames_per_round = (shape.cameras * INGEST) as u64;
    // Four full epochs whatever `--seconds` says (the guards need an epoch's
    // worth of true frames): untraced, traced, untraced again (so drift
    // between the first two cancels) and traced with one worker.
    let rounds = EPOCH_ROUNDS;
    let frames_per_camera = (FLEET_WARMUP_ROUNDS + EPOCH_ROUNDS) * INGEST;
    let tracer = Tracer::new();
    let epoch = |shape: &FleetShape, finish: bool, tracer: Option<&Tracer>| {
        fleet::run_epoch(shape, args.seed, f64::INFINITY, finish, tracer)
    };
    let mut untraced = epoch(&shape, false, None);
    let traced = epoch(&shape, true, Some(&tracer));
    untraced.raw_round_ms.extend(epoch(&shape, false, None).raw_round_ms);
    let single_tracer = Tracer::new();
    epoch(&FleetShape { workers: 1, ..shape.clone() }, false, Some(&single_tracer));
    let single_times = self_times(&single_tracer.spans());
    let times = self_times(&tracer.spans());
    let mut findings = fleet::check_epoch(args.seed, &shape, frames_per_camera, &traced);
    findings.absorb(fleet::variance_probe(args.seed));
    let outcome = traced.outcome.as_ref().expect("the traced epoch ran to the end and was finished");

    // The plan phases cannot be wrapped inside `FleetRuntime`, so they are
    // timed on camera 0's stream and statements through a plan of its own.
    let camera = pass::dense_camera(args.seed, fleet::reference_stream(args.seed, 0, frames_per_camera));
    let statements = fleet::camera_statements(args.seed, 0);
    let plan_tracer = Tracer::new();
    for r in 0..5 {
        plan_tracer.round(r, || run_pass(&camera, &statements, Some(&plan_tracer)));
    }
    let plan_times = self_times(&plan_tracer.spans());

    let poll_ms = |t: &SelfTimes| t.span_us("core.fleet.poll") / t.span_count("core.fleet.poll").max(1) as f64 / 1e3;
    let detector_ms = outcome.detector_invocations as f64 * CostLedger::paper().model().cost_ms(Stage::MaskRcnn);
    let bill = Bill {
        total_ms: outcome.shared.shared_total_ms,
        filter_ms: outcome.shared.shared_total_ms - detector_ms,
        detector_ms,
        detector_frames: outcome.detector_invocations,
    };
    let cache = CacheStats {
        hits: outcome.cache_hits,
        misses: outcome.detector_invocations,
        evictions: outcome.cache_evictions,
        resident_bytes: outcome.cache_resident_bytes,
    };
    let aggregates = outcome.statements.iter().filter(|s| s.name == "a1");
    let samples: u64 = aggregates.map(|s| s.run.frames_detected as u64).sum();
    let trials = times.span_count("aggregate.estimate_window") * fleet::LIGHT_TRIALS as u64;

    let dominant = ["core"];
    let mut values = trace_values(
        &args.workload,
        &tracer,
        &times,
        &traced.raw_round_ms,
        &untraced.raw_round_ms,
        frames_per_round,
        &dominant,
    );
    values.extend(video_probe(&inputs::dense_jackson(), args.seed));
    values.extend(nn_probe());
    values.push(("nn.workspace.growth_events", traced.scratch_growth as f64));
    values.extend(filters_probe(&camera));
    values.extend(pass_rate_values(&findings));
    values.extend(query_probe(&statements, args.seed));
    values.extend(plan_phase_values(&plan_times, (plan_times.rounds * camera.frames.len() as u64) as f64));
    values.extend(stage_values(outcome.statements.iter().map(|s| &s.run)));
    values.extend(detect_probe(&camera.frames));
    values.extend(bill_values(&bill, &cache, outcome.frames_ingested, outcome.statements.iter().map(|s| &s.run)));
    values.extend(aggregate_values(&times, trials, samples, &findings));
    values.extend(exec_probe());
    values.push(("exec.spawns_steady", traced.spawns as f64));
    values.extend(runtime_probe(args.seed));
    values.extend([
        ("core.fleet.setup_ms", untraced.setup_s * 1e3),
        (
            "core.fleet.ingest_us_per_frame",
            times.span_us("core.fleet.ingest") / (times.rounds * frames_per_round) as f64,
        ),
        ("core.fleet.poll_ms", poll_ms(&times)),
        ("core.fleet.poll_ms_workers1", poll_ms(&single_times)),
        (
            "core.fleet.coalesced_batch_mean",
            outcome.coalesced_frames as f64 / outcome.coalesced_dispatches.max(1) as f64,
        ),
    ]);
    values.extend(burst_probe(args.seed));
    Report {
        attempted: (4 * rounds) as u64 + findings.checked,
        summary: findings.summary(),
        failures: findings.failures,
        values,
        rounds,
        frames_per_round,
    }
}
