//! End-to-end integration tests: dataset generation → filter training →
//! query execution → aggregate estimation, across all workspace crates.

use vmq::detect::{OracleDetector, Stage};
use vmq::engine::{EngineConfig, FilterChoice, QueryOutcome, RuntimeQuery, StatementOutcome, VmqEngine};
use vmq::filters::{CalibrationProfile, CountMetrics, TrainedFilters};
use vmq::query::{CascadeConfig, Query};
use vmq::video::{DatasetProfile, ObjectClass};

/// Runs one statement alone on the engine's runtime.
fn run_one(engine: &VmqEngine, statement: RuntimeQuery) -> StatementOutcome {
    let mut runtime = engine.runtime();
    runtime.register(statement);
    runtime.run().outcomes.remove(0)
}

fn select(engine: &VmqEngine, query: &Query, choice: FilterChoice, cascade: CascadeConfig) -> QueryOutcome {
    let statement = RuntimeQuery::Select { query: query.clone(), choice, cascade };
    let StatementOutcome::Select(outcome) = run_one(engine, statement) else { panic!("a select yields a select") };
    outcome
}

/// Train the learned filters on a small Jackson stream and verify that they
/// beat a trivial baseline on total-count estimation, and that the full query
/// path runs on top of them.
#[test]
fn learned_filters_end_to_end() {
    let mut config = EngineConfig::small(DatasetProfile::jackson()).with_sizes(120, 150);
    config.filter.schedule.epochs = 3;
    config.filter.schedule.count_only_epochs = 1;
    let mut engine = VmqEngine::new(config.clone());
    engine.train_filters();

    // Count accuracy of the learned IC filter must beat the "always predict
    // zero objects" baseline on the test split.
    let oracle = OracleDetector::perfect();
    let filters = engine.filters().expect("trained");
    let labels = filters.label_split(engine.dataset().test(), &oracle, &config.filter);
    let estimates = TrainedFilters::evaluate(&filters.ic, engine.dataset().test());
    let metrics = CountMetrics::total_count(&estimates, &labels);
    let zero_baseline = labels.iter().filter(|l| l.total_count() == 0.0).count() as f32 / labels.len() as f32;
    assert!(
        metrics.within_one > zero_baseline,
        "learned IC filter (within-1 {:.2}) should beat the zero baseline ({:.2})",
        metrics.within_one,
        zero_baseline
    );

    // Query execution on top of the learned OD filter completes and reports a
    // consistent cost breakdown.
    let outcome = select(&engine, &Query::paper_q4(), FilterChoice::Od, CascadeConfig::strict());
    assert_eq!(outcome.run.frames_total, engine.dataset().test().len());
    assert!(outcome.run.frames_detected <= outcome.run.frames_total);
    assert!(outcome.run.virtual_ms > 0.0);
}

/// With a perfect calibrated filter and a strict cascade the filtered
/// execution must return exactly the brute-force answer set on every dataset
/// profile, while doing strictly less detector work whenever the query is
/// selective.
#[test]
fn filtered_execution_matches_brute_force_on_all_profiles() {
    for profile in DatasetProfile::all() {
        let engine = VmqEngine::new(EngineConfig::small(profile.clone()).with_sizes(40, 120));
        let query = match profile.kind {
            vmq::video::DatasetKind::Coral => Query::paper_q1(),
            vmq::video::DatasetKind::Jackson => Query::paper_q3(),
            vmq::video::DatasetKind::Detrac => Query::paper_q6(),
        };
        let outcome =
            select(&engine, &query, FilterChoice::Calibrated(CalibrationProfile::perfect()), CascadeConfig::strict());
        assert!(
            outcome.accuracy.is_perfect(),
            "{}/{}: filtered run must equal brute force, got {:?}",
            profile.kind.name(),
            query.name,
            outcome.accuracy
        );
        assert!(outcome.run.frames_detected <= outcome.brute_force.frames_detected);
    }
}

/// The aggregate estimator reduces variance for a spatially-constrained
/// aggregate (the paper's a1) and its estimates stay close to the truth —
/// one window spanning the whole split, the one-shot estimate.
#[test]
fn aggregate_estimation_end_to_end() {
    let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(40, 400));
    let statement = RuntimeQuery::Aggregate {
        query: Query::paper_a1(),
        choice: FilterChoice::Calibrated(CalibrationProfile::od_like()),
        window: (400, 400),
        sample_size: 40,
        trials: 80,
    };
    let StatementOutcome::Aggregate(mut outcome) = run_one(&engine, statement) else { panic!("an aggregate") };
    assert_eq!(outcome.reports.len(), 1);
    let report = outcome.reports.remove(0);
    assert_eq!(report.window_frames, 400);
    assert!((report.plain_mean - report.true_fraction).abs() < 0.1);
    assert!((report.cv_mean - report.true_fraction).abs() < 0.1);
    assert!(report.best_reduction() > 1.5, "expected variance reduction, report: {report:?}");
}

/// The cost ledger of a filtered run reflects the cascade's selectivity: the
/// detector is only charged for frames that passed the filters.
#[test]
fn cost_accounting_is_consistent() {
    let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::detrac()).with_sizes(30, 80));
    let query = Query::new("many-buses").class_count(ObjectClass::Bus, vmq::query::ast::CountOp::AtLeast, 3);
    let outcome =
        select(&engine, &query, FilterChoice::Calibrated(CalibrationProfile::perfect()), CascadeConfig::strict());
    // virtual time = decode * N + filter * N + detector * passed
    let n = outcome.run.frames_total as f64;
    let expected = 0.05 * n + 1.9 * n + 200.0 * outcome.run.frames_detected as f64;
    assert!(
        (outcome.run.virtual_ms - expected).abs() < 1e-6,
        "virtual time {} should equal the cost-model arithmetic {}",
        outcome.run.virtual_ms,
        expected
    );
    let _ = Stage::MaskRcnn;
}
