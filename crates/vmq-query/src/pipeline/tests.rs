//! Unit tests of every file of the executor. They share one module so that
//! a test's id (`pipeline::tests::<name>`) does not depend on which file
//! holds the code it tests.
#![cfg(test)]

use super::operators::{escalate, Subscribers};
use super::*;
use crate::exec::QueryExecutor;
use crate::plan::{frame_words, AtomVerdicts, FilterCascade};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use vmq_detect::{OracleDetector, Stage};
use vmq_filters::{CalibratedFilter, CalibrationProfile, FilterEstimate};
use vmq_video::{Dataset, DatasetProfile};

#[test]
fn adaptive_plan_prepends_calibrate_row_and_stays_cost_honest() {
    let (ds, filter, oracle) = setup();
    let backends: Vec<&dyn FrameFilter> = vec![&filter];
    let (run, report) = QueryExecutor::new(Query::paper_q3()).run_adaptive(
        ds.test(),
        20,
        &backends,
        &CascadeConfig::lattice(),
        &oracle,
    );
    assert!(run.mode.starts_with("adaptive "), "mode {}", run.mode);
    assert!(report.calibration_ms > 0.0);
    assert_eq!(run.stage_metrics[0].operator, "calibrate");
    assert_eq!(run.stage_metrics[0].frames_in, 20);
    assert!((run.stage_metrics[0].virtual_ms - report.calibration_ms).abs() < 1e-9);
    let names: Vec<&str> = run.stage_metrics.iter().map(|m| m.operator.as_str()).collect();
    assert_eq!(names, ["calibrate", "source", "cascade-filter", "detect", "predicate-eval", "sink"]);
    // The run's virtual total includes calibration, and the per-row sum
    // accounts for every charged millisecond.
    let sum: f64 = run.stage_metrics.iter().map(|m| m.virtual_ms).sum();
    assert!((sum - run.virtual_ms).abs() < 1e-9, "stage rows {sum} vs ledger {}", run.virtual_ms);
}

fn setup() -> (Dataset, CalibratedFilter, OracleDetector) {
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 20, 90, 23);
    let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::perfect(), 5);
    (ds, filter, OracleDetector::perfect())
}

#[test]
fn brute_force_plan_has_no_cascade_stage() {
    let (ds, _filter, oracle) = setup();
    let run = QueryExecutor::new(Query::paper_q3()).run_brute_force(ds.test(), &oracle);
    let names: Vec<&str> = run.stage_metrics.iter().map(|m| m.operator.as_str()).collect();
    assert_eq!(names, ["source", "detect", "predicate-eval", "sink"]);
    assert_eq!(run.frames_detected, ds.test().len());
    assert_eq!(run.frames_passed_filter, ds.test().len());
}

#[test]
fn filtered_plan_metrics_are_consistent() {
    let (ds, filter, oracle) = setup();
    let run = QueryExecutor::new(Query::paper_q3()).with_batch_size(7).run_filtered(
        ds.test(),
        &filter,
        &oracle,
        CascadeConfig::strict(),
    );
    let names: Vec<&str> = run.stage_metrics.iter().map(|m| m.operator.as_str()).collect();
    assert_eq!(names, ["source", "cascade-filter", "detect", "predicate-eval", "sink"]);

    let source = &run.stage_metrics[0];
    assert_eq!(source.frames_in, ds.test().len());
    assert_eq!(source.frames_out, ds.test().len());
    assert_eq!(source.stage, Some(Stage::Decode));

    let cascade = &run.stage_metrics[1];
    assert_eq!(cascade.frames_in, ds.test().len());
    assert_eq!(cascade.frames_out, run.frames_passed_filter);
    assert!((0.0..=1.0).contains(&cascade.pass_rate()));
    // Filter rows carry the kernel dispatch choice; the calibrated
    // backend runs no network, so its rows say so explicitly.
    assert_eq!(cascade.kernel_backend.as_deref(), Some("none"));
    assert!(run.stage_metrics[0].kernel_backend.is_none(), "source rows carry no kernel");
    assert!(run.stage_metrics[2].kernel_backend.is_none(), "detect rows carry no kernel");

    let detect = &run.stage_metrics[2];
    assert_eq!(detect.frames_in, run.frames_detected);
    assert_eq!(run.frames_detected, run.frames_passed_filter);
    assert!((detect.virtual_ms - 200.0 * run.frames_detected as f64).abs() < 1e-9);

    let sink = &run.stage_metrics[4];
    assert_eq!(sink.frames_in, run.matched_frames.len());

    // Virtual total equals the sum of per-operator virtual charges.
    let sum: f64 = run.stage_metrics.iter().map(|m| m.virtual_ms).sum();
    assert!((sum - run.virtual_ms).abs() < 1e-9);
}

#[test]
fn batch_size_does_not_change_results() {
    let (ds, _filter, oracle) = setup();
    let query = Query::paper_q4();
    let runs: Vec<QueryRun> = [1usize, 8, 64, 1000]
        .iter()
        .map(|&bs| {
            let filter =
                CalibratedFilter::new(DatasetProfile::jackson().class_list(), 14, CalibrationProfile::perfect(), 5);
            QueryExecutor::new(query.clone()).with_batch_size(bs).run_filtered(
                ds.test(),
                &filter,
                &oracle,
                CascadeConfig::tolerant(),
            )
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(run.matched_frames, runs[0].matched_frames);
        assert_eq!(run.frames_detected, runs[0].frames_detected);
        assert_eq!(run.virtual_ms.to_bits(), runs[0].virtual_ms.to_bits());
    }
}

/// Records every window it sees and pretends to sample
/// `samples_per_window` frames with the detector.
struct RecordingEstimator {
    samples_per_window: u64,
    calibration_per_window: u64,
    windows: Vec<(usize, usize, usize, Vec<usize>)>, // (index, start, len, per-backend predicate counts)
    pass_sums: Vec<f64>,
}

impl RecordingEstimator {
    fn new(samples_per_window: u64, calibration_per_window: u64) -> Self {
        RecordingEstimator { samples_per_window, calibration_per_window, windows: Vec::new(), pass_sums: Vec::new() }
    }
}

impl WindowEstimator for RecordingEstimator {
    fn estimate_window(
        &mut self,
        window: WindowData<'_>,
        detector: &dyn Detector,
        ledger: &CostLedger,
    ) -> WindowCharge {
        assert!(ledger.model().cost_ms(detector.stage()) > 0.0);
        // Exercise the detector on one frame to prove it is usable here.
        let _ = detector.detect(&window.frames[0]);
        self.windows.push((
            window.index,
            window.start,
            window.frames.len(),
            window.backends.iter().map(|b| b.predicates.len()).collect(),
        ));
        self.pass_sums.push(window.backends[0].pass.iter().sum());
        WindowCharge { estimation_frames: self.samples_per_window, calibration_frames: self.calibration_per_window }
    }
}

/// Keeps a copy of every window's indicator columns.
struct ColumnRecorder(Vec<Vec<WindowBackendColumns>>);

impl WindowEstimator for ColumnRecorder {
    fn estimate_window(&mut self, window: WindowData<'_>, _: &dyn Detector, _: &CostLedger) -> WindowCharge {
        self.0.push(window.backends.to_vec());
        WindowCharge::default()
    }
}

#[test]
fn plan_columns_equal_rows_built_outside_the_plan() {
    // A spatial multi-predicate query (three controls plus the trailing
    // conjunction) over two backends, in hopping windows that evict.
    let ds = Dataset::generate(&DatasetProfile::jackson(), 32, 300, 31);
    let classes = DatasetProfile::jackson().class_list();
    let filter = |profile, seed| CalibratedFilter::new(classes.clone(), 14, profile, seed);
    let (od, perfect) = (filter(CalibrationProfile::od_like(), 9), filter(CalibrationProfile::perfect(), 5));
    let backends: Vec<&dyn FrameFilter> = vec![&od, &perfect];
    let query = Query::paper_q5();
    let spec = AggregateSpec::new(100, 50);
    let mut recorder = ColumnRecorder(Vec::new());
    QueryExecutor::new(query.clone()).with_batch_size(32).run_aggregate(
        ds.test(),
        spec,
        &backends,
        &OracleDetector::perfect(),
        &mut recorder,
    );
    assert_eq!(recorder.0.len(), 5);
    let cascade = FilterCascade::new(query, spec.cascade);
    // Fresh, identically seeded filters replay the plan's noise draws.
    let rows: Vec<WindowBackendColumns> = [
        filter(CalibrationProfile::od_like(), 9).estimate_batch(ds.test()),
        filter(CalibrationProfile::perfect(), 5).estimate_batch(ds.test()),
    ]
    .iter()
    .zip(&backends)
    .map(|(estimates, b)| {
        let kind = b.kind();
        let mut rows = WindowBackendColumns {
            backend: kind.name(),
            stage: kind.stage(),
            pass: Vec::new(),
            predicates: Vec::new(),
        };
        for e in estimates {
            rows.push_controls(cascade.cv_indicators(e, b.threshold()));
        }
        rows
    })
    .collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (k, window) in recorder.0.iter().enumerate() {
        for (column, rows) in window.iter().zip(&rows) {
            let rows = rows.slice(k * 50..k * 50 + 100);
            assert_eq!(column.predicates.len(), 4);
            assert_eq!(bits(&column.pass), bits(&rows.pass));
            for (series, expected) in column.predicates.iter().zip(&rows.predicates) {
                assert_eq!(bits(series), bits(expected));
            }
        }
    }
}

#[test]
fn time_windows_align_across_camera_fps() {
    let (ds, filter, oracle) = setup();
    let query = Query::paper_q3();
    let backends: Vec<&dyn FrameFilter> = vec![&filter];
    // The same 2 s hopping statement over a camera at `fps`: frames get
    // real wall-clock timestamps (frame_id / fps), exactly as
    // `Scene::step` stamps them.
    let frames_at = |fps: u32, n: usize| -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let mut f = ds.test()[i % ds.test().len()].clone();
                f.frame_id = i as u64;
                f.timestamp = i as f64 / fps as f64;
                f
            })
            .collect()
    };
    let windows_at = |fps: u32, n: usize| -> Vec<(usize, usize, usize)> {
        let frames = frames_at(fps, n);
        let mut est = RecordingEstimator::new(0, 0);
        let run = QueryExecutor::new(query.clone()).run_aggregate(
            &frames,
            AggregateSpec::hopping_seconds(2.0, 2.0),
            &backends,
            &oracle,
            &mut est,
        );
        assert!(run.mode.contains("window 2s/2s"), "mode {}", run.mode);
        est.windows.iter().map(|&(i, s, l, _)| (i, s, l)).collect()
    };
    // 15 fps, 100 frames (6.6 s): three complete 2 s windows of 30
    // frames each, pinned at t = 0, 2, 4 s. The frame-count mode would
    // have put "window of 2 s at 30 fps" boundaries (size 60) here —
    // misaligned by 2× for the same statement.
    let slow = windows_at(15, 100);
    assert_eq!(slow, vec![(0, 0, 30), (1, 30, 30), (2, 60, 30)]);
    // 30 fps, 200 frames (6.63 s): same wall-clock boundaries, 60-frame
    // windows.
    let fast = windows_at(30, 200);
    assert_eq!(fast, vec![(0, 0, 60), (1, 60, 60), (2, 120, 60)]);
    // Window k covers the identical wall-clock interval on both cameras.
    for (&(ks, start_s, len_s), &(kf, start_f, len_f)) in slow.iter().zip(&fast) {
        assert_eq!(ks, kf);
        assert_eq!(start_s * 2, start_f);
        assert_eq!(len_s * 2, len_f);
    }
}

#[test]
fn aggregate_plan_segments_hopping_windows_and_charges_honestly() {
    let (ds, filter, oracle) = setup();
    let query = Query::paper_q3();
    let mut estimator = RecordingEstimator::new(10, 0);
    let backends: Vec<&dyn FrameFilter> = vec![&filter];
    let exec = QueryExecutor::new(query.clone()).with_batch_size(7);
    let ledger = exec.ledger().clone();
    let run = exec.run_aggregate(ds.test(), AggregateSpec::new(40, 20), &backends, &oracle, &mut estimator);
    assert_eq!(run.mode, "aggregate CAL window 40/20");

    // 90 frames, size 40, advance 20 → complete windows start at 0, 20
    // and 40 (a 60-frame start would overflow the stream).
    let expected_starts: Vec<usize> = vec![0, 20, 40];
    assert_eq!(estimator.windows.len(), expected_starts.len());
    for (i, (index, start, len, predicates)) in estimator.windows.iter().enumerate() {
        assert_eq!(*index, i);
        assert_eq!(*start, expected_starts[i]);
        assert_eq!(*len, 40);
        // Multi-predicate queries carry one control per predicate plus
        // the conjunction control.
        assert_eq!(predicates, &vec![query.predicates.len() + 1]);
    }

    // Stage metrics: decode + filter charged window-wide, detector only
    // for the estimator's sampled frames.
    let names: Vec<&str> = run.stage_metrics.iter().map(|m| m.operator.as_str()).collect();
    assert_eq!(names, ["source", "window-filter", "aggregate-sink"]);
    assert_eq!(run.stage_metrics[1].frames_in, 90);
    assert_eq!(run.stage_metrics[1].frames_out, 90, "window filter never drops frames");
    assert_eq!(run.frames_detected, 30, "10 sampled frames per window × 3 windows");
    assert_eq!(ledger.invocations(Stage::MaskRcnn), 30);
    assert_eq!(ledger.invocations(Stage::OdFilter), 90);
    let sink = &run.stage_metrics[2];
    assert_eq!(sink.frames_in, 90);
    assert!((sink.virtual_ms - 30.0 * 200.0).abs() < 1e-9, "sink bills sampled detection only");
    let sum: f64 = run.stage_metrics.iter().map(|m| m.virtual_ms).sum();
    assert!((sum - run.virtual_ms).abs() < 1e-9, "stage rows {sum} vs ledger {}", run.virtual_ms);
}

#[test]
fn aggregate_plan_window_content_is_batch_size_invariant() {
    let (ds, _filter, oracle) = setup();
    let query = Query::paper_q4();
    let mut sums: Vec<Vec<f64>> = Vec::new();
    for bs in [1usize, 16, 1000] {
        let filter =
            CalibratedFilter::new(DatasetProfile::jackson().class_list(), 14, CalibrationProfile::perfect(), 5);
        let backends: Vec<&dyn FrameFilter> = vec![&filter];
        let mut estimator = RecordingEstimator::new(0, 0);
        let _ = QueryExecutor::new(query.clone()).with_batch_size(bs).run_aggregate(
            ds.test(),
            AggregateSpec::new(30, 30),
            &backends,
            &oracle,
            &mut estimator,
        );
        sums.push(estimator.pass_sums);
    }
    assert_eq!(sums[0], sums[1]);
    assert_eq!(sums[0], sums[2]);
}

#[test]
fn aggregate_plan_calibration_charges_are_tracked_separately() {
    let (ds, filter, oracle) = setup();
    let mut estimator = RecordingEstimator::new(5, 8);
    let backends: Vec<&dyn FrameFilter> = vec![&filter];
    let exec = QueryExecutor::new(Query::paper_q3());
    let ledger = exec.ledger().clone();
    let run = exec.run_aggregate(ds.test(), AggregateSpec::new(45, 45), &backends, &oracle, &mut estimator);
    // 90 frames, two tumbling 45-frame windows.
    assert_eq!(ledger.invocations(Stage::MaskRcnn), 2 * (5 + 8));
    assert_eq!(ledger.calibration_invocations(Stage::MaskRcnn), 2 * 8);
    assert_eq!(run.frames_detected, 26);
    let sum: f64 = run.stage_metrics.iter().map(|m| m.virtual_ms).sum();
    assert!((sum - run.virtual_ms).abs() < 1e-9);
}

#[test]
fn short_stream_emits_no_aggregate_window() {
    let (ds, filter, oracle) = setup();
    let mut estimator = RecordingEstimator::new(3, 0);
    let backends: Vec<&dyn FrameFilter> = vec![&filter];
    let run = QueryExecutor::new(Query::paper_q3()).run_aggregate(
        ds.test(),
        AggregateSpec::new(500, 500),
        &backends,
        &oracle,
        &mut estimator,
    );
    assert!(estimator.windows.is_empty());
    assert_eq!(run.frames_detected, 0);
}

fn fresh_filter(seed: u64) -> CalibratedFilter {
    CalibratedFilter::new(DatasetProfile::jackson().class_list(), 14, CalibrationProfile::od_like(), seed)
}

/// `batch_size` is a public field, so a `PipelineConfig { batch_size: 0 }`
/// literal skips `with_batch_size`'s clamp. The plan clamps it itself:
/// the runs equal batch 1's, bit for bit.
#[test]
fn zero_batch_size_runs_like_batch_one() {
    let (ds, _filter, oracle) = setup();
    let runs = |batch_size| {
        let filter = fresh_filter(41);
        let config = PipelineConfig { batch_size };
        let mut plan = SharedStreamPlan::new(&oracle, DetectionCache::new(), CostLedger::paper(), config);
        let b = plan.add_backend(&filter);
        plan.register_select(Query::paper_q3(), CascadeConfig::tolerant(), Some(b), CostLedger::paper());
        plan.register_select(Query::paper_q1(), CascadeConfig::strict(), None, CostLedger::paper());
        plan.execute_slice(ds.test())
    };
    let (zero, one) = (runs(0), runs(1));
    assert_eq!(zero.len(), 2);
    for (z, o) in zero.iter().zip(&one) {
        assert_eq!(z.matched_frames, o.matched_frames, "{}", z.query);
        assert_eq!(z.frames_total, ds.test().len(), "{}", z.query);
        assert_eq!(z.frames_passed_filter, o.frames_passed_filter, "{}", z.query);
        assert_eq!(z.frames_detected, o.frames_detected, "{}", z.query);
        assert_eq!(z.virtual_ms.to_bits(), o.virtual_ms.to_bits(), "{}", z.query);
        let rows = |run: &QueryRun| -> Vec<(String, usize, usize, u64)> {
            let m = &run.stage_metrics;
            m.iter().map(|m| (m.operator.clone(), m.frames_in, m.frames_out, m.virtual_ms.to_bits())).collect()
        };
        assert_eq!(rows(z), rows(o), "{}", z.query);
    }
}

/// Registration closes once a pass is in flight: the pass fixed at its first
/// batch which statements pay for which backend's inference, so a select
/// registered after it would run without paying its backend's share.
#[test]
#[should_panic(expected = "register backends and statements before pushing batches")]
fn registering_a_select_mid_pass_panics() {
    let (ds, filter, oracle) = setup();
    let mut plan =
        SharedStreamPlan::new(&oracle, DetectionCache::new(), CostLedger::paper(), PipelineConfig::default());
    let b = plan.add_backend(&filter);
    plan.register_select(Query::paper_q3(), CascadeConfig::tolerant(), Some(b), CostLedger::paper());
    plan.push_batch(&ds.test()[..8]);
    plan.register_select(Query::paper_q4(), CascadeConfig::tolerant(), Some(b), CostLedger::paper());
}

/// A plan runs one pass: `finish` resets no select's matches and no
/// aggregate's windows, so a second pass of a brute-force q3 over 90 frames
/// would report 180 detected frames and every true frame twice. It panics
/// instead.
#[test]
#[should_panic(expected = "a plan runs one pass")]
fn pushing_after_finish_panics() {
    let (ds, _filter, oracle) = setup();
    let mut plan =
        SharedStreamPlan::new(&oracle, DetectionCache::new(), CostLedger::paper(), PipelineConfig::default());
    plan.register_select(Query::paper_q3(), CascadeConfig::strict(), None, CostLedger::paper());
    let runs = plan.execute_slice(ds.test());
    assert_eq!((runs[0].frames_total, runs[0].frames_detected), (90, 90));
    plan.execute_slice(ds.test());
}

/// Two overlapping selects on one backend: the filter runs once per
/// frame and the detector once per frame in the escalation union. (That
/// each query's run equals its isolated execution is the statement
/// differential's business.)
#[test]
fn shared_plan_dedupes_filter_and_detector_across_queries() {
    let (ds, _filter, oracle) = setup();
    let queries = [Query::paper_q3(), Query::paper_q4()];
    let shared_filter = fresh_filter(5);
    let global = CostLedger::paper();
    let mut plan =
        SharedStreamPlan::new(&oracle, vmq_detect::DetectionCache::new(), global.clone(), PipelineConfig::default());
    let backend = plan.add_backend(&shared_filter);
    for query in &queries {
        plan.register_select(query.clone(), CascadeConfig::tolerant(), Some(backend), CostLedger::paper());
    }
    let runs = plan.execute_slice(ds.test());

    // Globally: one filter pass, one decode pass, |union| detections.
    assert_eq!(global.invocations(Stage::OdFilter), ds.test().len() as u64);
    assert_eq!(global.invocations(Stage::Decode), ds.test().len() as u64);
    let union_max = runs.iter().map(|r| r.frames_detected).max().unwrap() as u64;
    let union_sum: u64 = runs.iter().map(|r| r.frames_detected as u64).sum();
    let detected = global.invocations(Stage::MaskRcnn);
    assert!(detected >= union_max && detected <= union_sum, "union bounds: {detected}");
    assert_eq!(detected, plan.cache().misses());
    // Attribution covers the whole global bill.
    let attributed: f64 = (0..2).map(|q| global.attributed_ms(q)).sum();
    assert!((attributed - global.total_ms()).abs() < 1e-6, "attributed {attributed} vs {}", global.total_ms());
}

/// A select and an aggregate sharing one backend: the indicator columns
/// the aggregate sees through the shared pass equal those of the same
/// aggregate run alone, and the brute-force select needs no backend at all.
#[test]
fn shared_plan_mixes_selects_and_aggregates_over_one_backend_pass() {
    let (ds, _filter, oracle) = setup();
    let query = Query::paper_q3();

    // Single-query aggregate reference.
    let reference_filter = fresh_filter(3);
    let backends: Vec<&dyn FrameFilter> = vec![&reference_filter];
    let mut reference_est = RecordingEstimator::new(4, 0);
    let reference_run = QueryExecutor::new(query.clone()).run_aggregate(
        ds.test(),
        AggregateSpec::new(30, 15),
        &backends,
        &oracle,
        &mut reference_est,
    );

    // Shared pass: brute-force select + the same aggregate.
    let shared_filter = fresh_filter(3);
    let global = CostLedger::paper();
    let mut shared_est = RecordingEstimator::new(4, 0);
    let mut plan =
        SharedStreamPlan::new(&oracle, vmq_detect::DetectionCache::new(), global.clone(), PipelineConfig::default());
    let backend = plan.add_backend(&shared_filter);
    plan.register_select(query.clone(), CascadeConfig::strict(), None, CostLedger::paper());
    plan.register_aggregate(
        query.clone(),
        AggregateSpec::new(30, 15),
        &[backend],
        &mut shared_est,
        CostLedger::paper(),
    );
    let runs = plan.execute_slice(ds.test());
    drop(plan);

    assert_eq!(runs[0].mode, "brute-force");
    assert_eq!(runs[0].frames_detected, ds.test().len());
    assert_eq!(shared_est.windows, reference_est.windows);
    assert_eq!(shared_est.pass_sums, reference_est.pass_sums);
    assert_eq!(runs[1].frames_detected, reference_run.frames_detected);
    assert_eq!(runs[1].virtual_ms.to_bits(), reference_run.virtual_ms.to_bits());
    let names: Vec<&str> = runs[1].stage_metrics.iter().map(|m| m.operator.as_str()).collect();
    assert_eq!(names, ["source", "window-filter", "aggregate-sink"]);
    // The brute-force select already detected every frame, so the
    // RecordingEstimator's direct (uncached) detector probes aside, the
    // global detector bill equals the stream length.
    assert_eq!(global.invocations(Stage::MaskRcnn), ds.test().len() as u64);
}

/// The q3/q5-shaped statement family of the `standing_many` benchmark:
/// a car-count atom × a person-count atom × (nothing | an `ORDER`
/// relation | an `IN` quadrant for either class).
fn select_family() -> Vec<Query> {
    use crate::ast::{CountOp, ObjectRef};
    use crate::spatial::SpatialRelation;
    use vmq_video::ObjectClass::{Car, Person};
    let mut family = Vec::new();
    for (car_op, car) in [(CountOp::Exactly, 1), (CountOp::AtMost, 1)] {
        for (person_op, people) in
            [(CountOp::AtLeast, 1), (CountOp::AtLeast, 2), (CountOp::AtMost, 2), (CountOp::AtMost, 3)]
        {
            let base = Query::new("member").class_count(Car, car_op, car).class_count(Person, person_op, people);
            family.push(base.clone());
            for relation in SpatialRelation::ALL {
                family.push(base.clone().spatial(ObjectRef::class(Car), relation, ObjectRef::class(Person)));
            }
            for quadrant in ["upper-left", "upper-right", "lower-left", "lower-right"] {
                family.push(base.clone().in_region(ObjectRef::class(Car), quadrant, 1));
                family.push(base.clone().in_region(ObjectRef::class(Person), quadrant, 1));
            }
        }
    }
    family
}

/// 104 statements, 18 distinct checks: 2 car-count, 4 person-count,
/// 4 `ORDER` and 8 `IN` atoms — and the same predicates at another
/// tolerance are other atoms.
#[test]
fn an_overlapping_statement_family_compiles_to_its_distinct_atoms() {
    let (_ds, filter, oracle) = setup();
    let mut plan = SharedStreamPlan::new(
        &oracle,
        vmq_detect::DetectionCache::new(),
        CostLedger::paper(),
        PipelineConfig::default(),
    );
    let b = plan.add_backend(&filter);
    let family = select_family();
    assert_eq!(family.len(), 104);
    for query in &family {
        plan.register_select(query.clone(), CascadeConfig::tolerant(), Some(b), CostLedger::paper());
    }
    assert_eq!(plan.atoms[b].atom_count(), 18);
    plan.register_select(family[5].clone(), CascadeConfig::loose(), Some(b), CostLedger::paper());
    assert_eq!(plan.atoms[b].atom_count(), 19, "same counts, one new spatial atom at tolerance 2");
    plan.register_select(family[5].clone(), CascadeConfig::strict(), Some(b), CostLedger::paper());
    assert_eq!(plan.atoms[b].atom_count(), 22, "tolerance (0, 0) shares nothing with (1, 1)");
}

/// A mid-stream drift replan swaps the cascade, so the statement's atom
/// ids are re-resolved against the newly committed (backend, cascade).
#[test]
fn a_drift_replan_re_resolves_the_statements_atoms() {
    use crate::drift::DriftConfig;
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 20, 400, 29);
    let oracle = OracleDetector::perfect();
    let filter = fresh_filter(17);
    let query = Query::paper_q4();
    let mut plan = SharedStreamPlan::new(
        &oracle,
        vmq_detect::DetectionCache::new(),
        CostLedger::paper(),
        PipelineConfig::default(),
    );
    let b = plan.add_backend(&filter);
    let setup = DriftSetup {
        config: DriftConfig::new(1.0).with_window(96).with_min_truth(8),
        candidate_backends: vec![b],
        tolerances: CascadeConfig::lattice(),
    };
    let q = plan.register_select_drifted(
        query.clone(),
        CascadeConfig::strict(),
        Some(b),
        CostLedger::paper(),
        "adaptive OD-CCF".to_string(),
        None,
        setup,
    );
    let atoms_of = |plan: &SharedStreamPlan<'_>| {
        let select = &plan.selects[q];
        (select.backend, select.atoms.clone(), select.drift.as_ref().expect("monitor attached").committed())
    };
    let (_, before, _) = atoms_of(&plan);
    // Every rejected frame is audited, so the noisy strict cascade is
    // caught dropping a true frame within a few batches.
    let mut batches = ds.test().chunks(32);
    while atoms_of(&plan).2 == (Some(b), CascadeConfig::strict()) {
        plan.push_batch(batches.next().expect("a replan before the stream ends"));
    }

    let (backend, after, (committed_backend, committed_cascade)) = atoms_of(&plan);
    assert_eq!(backend, committed_backend);
    let expected = match backend {
        Some(b) => plan.atoms[b].clone().compile_select(&query, committed_cascade, filter.threshold()),
        None => Box::default(),
    };
    assert_eq!(after, expected, "atoms resolve to the committed cascade");
    assert_ne!(after, before);
    assert_eq!(plan.finish()[0].replans.len(), 1);
}

/// Injects non-finite outputs into an otherwise perfect filter: NaN and
/// infinite counts, NaN and infinite grid cells, in rotation.
struct Corrupting<'a>(&'a CalibratedFilter);

impl FrameFilter for Corrupting<'_> {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        let mut estimate = self.0.estimate(frame);
        let slot = frame.frame_id as usize % estimate.counts.len();
        match frame.frame_id % 5 {
            0 => estimate.counts[slot] = f32::NAN,
            1 => estimate.counts[slot] = f32::INFINITY,
            2 => estimate.grids[slot].set(0, 0, f32::NAN),
            3 => estimate.grids[slot].set(13, 13, f32::NEG_INFINITY),
            _ => {}
        }
        estimate
    }
    fn kind(&self) -> vmq_filters::FilterKind {
        self.0.kind()
    }
    fn grid_size(&self) -> usize {
        self.0.grid_size()
    }
    fn threshold(&self) -> f32 {
        self.0.threshold()
    }
    fn classes(&self) -> &[vmq_video::ObjectClass] {
        self.0.classes()
    }
}

/// A non-finite filter output escalates the frame instead of dropping
/// it: behind a filter that is perfect wherever it is finite, every
/// select keeps recall 1.0 — through the shared plan and through the
/// single-statement plan alike.
#[test]
fn non_finite_filter_outputs_never_drop_a_true_frame() {
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 20, 600, 31);
    let oracle = OracleDetector::perfect();
    let perfect = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::perfect(), 5);
    let filter = Corrupting(&perfect);
    let queries = [Query::paper_q3(), Query::paper_q4(), Query::paper_q5(), Query::paper_a1(), Query::paper_a2()];
    let truth = |query: &Query| -> Vec<u64> {
        ds.test().iter().filter(|f| query.matches_ground_truth(f)).map(|f| f.frame_id).collect()
    };

    let mut plan = SharedStreamPlan::new(
        &oracle,
        vmq_detect::DetectionCache::new(),
        CostLedger::paper(),
        PipelineConfig::default(),
    );
    let b = plan.add_backend(&filter);
    for query in &queries {
        plan.register_select(query.clone(), CascadeConfig::strict(), Some(b), CostLedger::paper());
    }
    let runs = plan.execute_slice(ds.test());
    for (query, run) in queries.iter().zip(&runs) {
        let expected = truth(query);
        assert!(expected.len() >= 5, "{} has true frames to lose", query.name);
        assert_eq!(run.matched_frames, expected, "{} through the shared plan", query.name);
        assert!(run.frames_detected < ds.test().len(), "{} still filters the finite frames", query.name);

        let isolated =
            QueryExecutor::new(query.clone()).run_filtered(ds.test(), &filter, &oracle, CascadeConfig::strict());
        assert_eq!(isolated.matched_frames, expected, "{} through the single-statement plan", query.name);
    }
}

/// Forwards to a learned filter, keeping what the shared decode step
/// hands it and counting the frames sent down its own batch path.
struct Counting<'a> {
    inner: &'a dyn FrameFilter,
    /// `(frame id, estimate)` per `estimate_pixels` call.
    shared: Mutex<Vec<(u64, FilterEstimate)>>,
    batched: AtomicUsize,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn FrameFilter) -> Self {
        Counting { inner, shared: Mutex::new(Vec::new()), batched: AtomicUsize::new(0) }
    }

    fn counts(&self) -> (usize, usize) {
        (self.shared.lock().expect("no panic while recording").len(), self.batched.load(Ordering::Relaxed))
    }
}

impl FrameFilter for Counting<'_> {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        self.inner.estimate(frame)
    }
    fn estimate_batch_sharded(&self, frames: &[Frame], workers: usize) -> Vec<FilterEstimate> {
        self.batched.fetch_add(frames.len(), Ordering::Relaxed);
        self.inner.estimate_batch_sharded(frames, workers)
    }
    fn raster(&self) -> Option<&vmq_video::RasterConfig> {
        self.inner.raster()
    }
    fn estimate_pixels(&self, frame: &Frame, pixels: &[f32], ws: &mut vmq_nn::Workspace) -> FilterEstimate {
        let estimate = self.inner.estimate_pixels(frame, pixels, ws);
        self.shared.lock().expect("no panic while recording").push((frame.frame_id, estimate.clone()));
        estimate
    }
    fn kind(&self) -> vmq_filters::FilterKind {
        self.inner.kind()
    }
    fn grid_size(&self) -> usize {
        self.inner.grid_size()
    }
    fn threshold(&self) -> f32 {
        self.inner.threshold()
    }
    fn classes(&self) -> &[vmq_video::ObjectClass] {
        self.inner.classes()
    }
}

/// IC + OD statements on one plan: backends reading one raster form a
/// decode group, so every frame reaches each filter through
/// `estimate_pixels` (one render, two networks) and never through its
/// own batch path, each estimate equal by bits to the filter's own; the
/// runs equal those of two single-backend plans,
/// and the group's wall splits evenly across its two stage rows. A
/// backend reading another raster is never grouped.
#[test]
fn backends_reading_one_raster_share_a_render_per_frame() {
    use vmq_filters::{FilterConfig, IcFilter, OdFilter};
    let profile = DatasetProfile::jackson();
    let ds = Dataset::generate(&profile, 20, 45, 37);
    let oracle = OracleDetector::perfect();
    let n = ds.test().len();
    let ic = IcFilter::new(FilterConfig::fast_test(profile.class_list()));
    let od = OdFilter::new(FilterConfig::fast_test(profile.class_list()));
    let queries = [Query::paper_q3(), Query::paper_q4()];
    let run = |filters: &[&dyn FrameFilter]| -> Vec<QueryRun> {
        let mut plan = SharedStreamPlan::new(
            &oracle,
            vmq_detect::DetectionCache::new(),
            CostLedger::paper(),
            PipelineConfig::with_batch_size(16),
        );
        for (&filter, query) in filters.iter().zip(&queries) {
            let b = plan.add_backend(filter);
            plan.register_select(query.clone(), CascadeConfig::tolerant(), Some(b), CostLedger::paper());
        }
        plan.execute_slice(ds.test())
    };

    let (counted_ic, counted_od) = (Counting::new(&ic), Counting::new(&od));
    let shared = run(&[&counted_ic, &counted_od]);
    assert_eq!(counted_ic.counts(), (n, 0), "IC: (frames via estimate_pixels, via estimate_batch_sharded)");
    assert_eq!(counted_od.counts(), (n, 0), "OD: (frames via estimate_pixels, via estimate_batch_sharded)");
    let bits = |e: &FilterEstimate| -> Vec<u32> {
        let cells = e.grids.iter().flat_map(|g| g.cells().iter().copied());
        e.counts.iter().copied().chain(cells).map(f32::to_bits).collect()
    };
    for counted in [&counted_ic, &counted_od] {
        let mut seen = counted.shared.lock().expect("no panic while recording").clone();
        seen.sort_by_key(|&(id, _)| id);
        let own = counted.inner.estimate_batch(ds.test());
        for ((id, got), (frame, want)) in seen.iter().zip(ds.test().iter().zip(&own)) {
            assert_eq!(*id, frame.frame_id);
            assert_eq!(bits(got), bits(want), "{} frame {id}: shared render vs own path", counted.kind().name());
        }
    }
    let alone: Vec<QueryRun> = [&ic as &dyn FrameFilter, &od].iter().flat_map(|&f| run(&[f])).collect();
    let rows = |run: &QueryRun| -> Vec<(String, usize, usize, u64)> {
        run.stage_metrics
            .iter()
            .map(|m| (m.operator.clone(), m.frames_in, m.frames_out, m.virtual_ms.to_bits()))
            .collect()
    };
    for (run, reference) in shared.iter().zip(&alone) {
        assert_eq!(run.mode, reference.mode);
        assert_eq!(run.matched_frames, reference.matched_frames, "{}", run.query);
        assert_eq!(run.frames_passed_filter, reference.frames_passed_filter, "{}", run.query);
        assert_eq!(run.frames_detected, reference.frames_detected, "{}", run.query);
        assert_eq!(run.virtual_ms.to_bits(), reference.virtual_ms.to_bits(), "{}", run.query);
        assert_eq!(rows(run), rows(reference), "{}", run.query);
    }
    let filter_wall = |run: &QueryRun| {
        run.stage_metrics.iter().find(|m| m.operator == "cascade-filter").expect("a filtered select").wall_ms
    };
    assert_eq!(filter_wall(&shared[0]).to_bits(), filter_wall(&shared[1]).to_bits(), "one group, one wall");

    let od_default = OdFilter::new(FilterConfig::experiment(profile.class_list()));
    let (counted_ic, counted_od) = (Counting::new(&ic), Counting::new(&od_default));
    run(&[&counted_ic, &counted_od]);
    assert_eq!(counted_ic.counts(), (0, n), "IC alone in its group");
    assert_eq!(counted_od.counts(), (0, n), "OD on the default raster alone in its group");
}

/// Today's per-frame fan-out, kept as the reference of the word-wide
/// one: each frame's pass is the AND over the statement's atoms (every
/// frame for brute force), a passing frame escalates, and a rejected one
/// goes to the audit draw, in frame order.
fn reference_escalate(
    q: usize,
    verdicts: &AtomVerdicts,
    atoms: Option<&[AtomId]>,
    frames: &[Frame],
    drift: Option<&DriftMonitor>,
    escalations: &mut Subscribers,
    audits: &mut Subscribers,
) -> (usize, Vec<bool>) {
    let mut survivors = 0;
    let mut passes = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let pass = atoms.is_none_or(|atoms| atoms.iter().all(|&id| verdicts.atom(i, id)));
        if pass {
            escalations.insert(i, q);
            survivors += 1;
        } else if drift.is_some_and(|monitor| monitor.audits(frame)) {
            escalations.insert(i, q);
            audits.insert(i, q);
        }
        passes.push(pass);
    }
    (survivors, passes)
}

fn fan_out_frames() -> &'static [Frame] {
    static FRAMES: std::sync::OnceLock<Vec<Frame>> = std::sync::OnceLock::new();
    FRAMES.get_or_init(|| Dataset::generate(&DatasetProfile::jackson(), 0, 130, 41).test().to_vec())
}

fn fan_out_predicate() -> impl proptest::Strategy<Value = crate::ast::Predicate> {
    use crate::ast::{CountOp, CountTarget, ObjectRef, Predicate};
    use proptest::Strategy;
    use vmq_video::ObjectClass;
    (0u8..3, 0usize..3, 0usize..3, 0u32..4).prop_map(|(kind, class, op, value)| {
        let class = [ObjectClass::Car, ObjectClass::Person, ObjectClass::Bus][class];
        match kind {
            0 => Predicate::Count {
                target: CountTarget::Class(class),
                op: [CountOp::Exactly, CountOp::AtLeast, CountOp::AtMost][op],
                value,
            },
            1 => Predicate::Region {
                object: ObjectRef::class(class),
                region: "lower-right".to_string(),
                min_count: value % 3,
            },
            _ => Predicate::Spatial {
                first: ObjectRef::class(ObjectClass::Car),
                relation: crate::SpatialRelation::ALL[op],
                second: ObjectRef::class(class),
            },
        }
    })
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// The word-wide fan-out escalates, audits and observes exactly
    /// what the per-frame loop did, for batches of 1 to 130 frames
    /// (three words), statements with no atom, brute force, and with
    /// and without a drift monitor.
    #[test]
    fn word_fan_out_equals_the_per_frame_fan_out(
        n in 1usize..=130,
        statements in proptest::collection::vec(
            (proptest::collection::vec(fan_out_predicate(), 0..4), 0u32..3, proptest::bool::ANY),
            1..6,
        ),
        drift in (proptest::bool::ANY, 0u64..1000),
        seed in 0u64..1000,
    ) {
        let frames = &fan_out_frames()[..n];
        let filter = CalibratedFilter::new(
            DatasetProfile::jackson().class_list(), 14, CalibrationProfile::od_like(), seed);
        let mut table = AtomTable::new();
        let compiled: Vec<Option<Box<[AtomId]>>> = statements
            .iter()
            .map(|(predicates, tolerance, brute)| {
                let mut query = Query::new("fan-out");
                query.predicates = predicates.clone();
                let cascade = CascadeConfig { count_tolerance: *tolerance, location_tolerance: 1 };
                (!brute).then(|| table.compile_select(&query, cascade, filter.threshold()))
            })
            .collect();
        let verdicts = table.evaluate(&filter.estimate_batch(frames));
        let monitor = drift.0.then_some(drift.1).map(|seed| {
            let setup = DriftSetup {
                config: crate::drift::DriftConfig::new(0.3).with_seed(seed),
                candidate_backends: vec![0],
                tolerances: CascadeConfig::lattice(),
            };
            DriftMonitor::new(setup, Some(0), CascadeConfig::tolerant(), "fan-out".to_string())
        });
        let q_count = compiled.len();
        let (mut escalations, mut audits) = (Subscribers::new(n, q_count), Subscribers::new(n, q_count));
        let (mut want_escalations, mut want_audits) = (Subscribers::new(n, q_count), Subscribers::new(n, q_count));
        let mut pass = Vec::new();
        for (q, atoms) in compiled.iter().enumerate() {
            match atoms {
                Some(atoms) => verdicts.pass_words(atoms, &mut pass),
                None => {
                    pass.clear();
                    pass.extend(frame_words(n));
                }
            }
            let survivors = escalate(q, &pass, frames, monitor.as_ref(), &mut escalations, &mut audits);
            let (want, passes) = reference_escalate(
                q, &verdicts, atoms.as_deref(), frames, monitor.as_ref(), &mut want_escalations, &mut want_audits);
            proptest::prop_assert_eq!(survivors, want);
            let observed: Vec<bool> = (0..n).map(|i| pass[i / 64] >> (i % 64) & 1 == 1).collect();
            proptest::prop_assert_eq!(observed, passes);
            proptest::prop_assert!(pass.len() == n.div_ceil(64) && pass.iter().enumerate().all(|(w, &word)| {
                w + 1 < pass.len() || n.is_multiple_of(64) || word >> (n % 64) == 0
            }), "bits past the batch stay clear");
        }
        proptest::prop_assert_eq!(&escalations.bits, &want_escalations.bits);
        proptest::prop_assert_eq!(&audits.bits, &want_audits.bits);
    }
}
