//! The engine: dataset + trained filters, and the statement outcome types.
//!
//! [`VmqEngine`] owns a stream (the dataset's test split), the oracle
//! detector and the trained filters. It executes nothing itself: every
//! statement — select, adaptive select, windowed aggregate — is registered
//! on the [`StreamRuntime`] that [`VmqEngine::runtime`] returns and runs in
//! its one shared pass, alone or among N others.

use crate::config::{EngineConfig, FilterChoice};
use crate::report::Report;
use crate::runtime::StreamRuntime;
use vmq_aggregate::AggregateReport;
use vmq_detect::OracleDetector;
use vmq_filters::{CalibratedFilter, FrameFilter, TrainedFilters};
use vmq_query::{CalibrationReport, CvBackendChoice, PlanChoice, QueryAccuracy, QueryRun, ReplanEvent, SpeedupReport};
use vmq_video::Dataset;

/// The outcome of a fixed-cascade select: the run itself, its accuracy
/// against ground truth and the speedup over brute force.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The filtered run.
    pub run: QueryRun,
    /// The brute-force baseline run.
    pub brute_force: QueryRun,
    /// Accuracy of the filtered run against ground truth.
    pub accuracy: QueryAccuracy,
    /// Speedup of the filtered run over the brute-force baseline.
    pub speedup: SpeedupReport,
}

impl QueryOutcome {
    /// A one-line human-readable summary (a Table III style row).
    pub fn summary(&self) -> String {
        self.speedup.table_row(&self.run.query, &self.run.mode, self.accuracy.recall)
    }

    /// Per-operator breakdown of the filtered run, rendered from the
    /// pipeline's unified [`StageMetrics`](vmq_query::StageMetrics).
    pub fn stage_report(&self) -> Report {
        Report::from_stage_metrics(
            &format!("{} [{}] — operator pipeline", self.run.query, self.run.mode),
            &self.run.stage_metrics,
        )
    }
}

/// The outcome of an adaptively planned select: the standard
/// [`QueryOutcome`] plus the calibration report describing how the plan was
/// chosen.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The filtered-vs-brute-force outcome of executing the chosen plan.
    /// The filtered run's virtual time *includes* the calibration cost and
    /// its stage metrics carry a `calibrate` row.
    pub outcome: QueryOutcome,
    /// Every candidate profile and the selected plan.
    pub calibration: CalibrationReport,
}

impl AdaptiveOutcome {
    /// The plan the calibration selected.
    pub fn plan(&self) -> &PlanChoice {
        &self.calibration.choice
    }

    /// Plan swaps the drift monitor performed mid-stream, in stream order
    /// (empty without a monitor, or while the committed plan holds up).
    pub fn replans(&self) -> &[ReplanEvent] {
        &self.outcome.run.replans
    }

    /// A one-line Table III style summary; the mode column carries the
    /// chosen plan label (e.g. `adaptive OD-CCF-1/OD-CLF-2`).
    pub fn summary(&self) -> String {
        self.outcome.summary()
    }

    /// Per-operator breakdown including the `calibrate` pseudo-operator row,
    /// so the report shows exactly what the adaptivity cost.
    pub fn stage_report(&self) -> Report {
        self.outcome.stage_report()
    }
}

/// The outcome of a windowed aggregate: one [`AggregateReport`] per
/// completed hopping window plus the pipeline run whose stage metrics carry
/// the cost accounting (window-wide filter inference vs sampled detector
/// work as separate stages).
#[derive(Debug, Clone)]
pub struct WindowedAggregateOutcome {
    /// Per-window estimation reports, in window order.
    pub reports: Vec<AggregateReport>,
    /// Per-window adaptive control-variate backend choices (empty unless a
    /// [`RuntimeQuery::AggregateAdaptive`](crate::RuntimeQuery::AggregateAdaptive)
    /// statement selected among several backends).
    pub selections: Vec<CvBackendChoice>,
    /// The aggregate pipeline run (empty answer set; stage metrics and cost
    /// totals are what matter here).
    pub run: QueryRun,
}

impl WindowedAggregateOutcome {
    /// Table IV style rows, one line per window.
    pub fn table_rows(&self) -> String {
        self.reports.iter().map(|r| r.table_row()).collect::<Vec<_>>().join("\n")
    }

    /// Per-operator breakdown of the aggregate pipeline (proves the filter
    /// ran window-wide while the detector saw only sampled frames).
    pub fn stage_report(&self) -> Report {
        Report::from_stage_metrics(
            &format!("{} [{}] — operator pipeline", self.run.query, self.run.mode),
            &self.run.stage_metrics,
        )
    }
}

/// The high-level Video Monitoring Queries engine.
pub struct VmqEngine {
    pub(crate) config: EngineConfig,
    pub(crate) dataset: Dataset,
    pub(crate) oracle: OracleDetector,
    filters: Option<TrainedFilters>,
}

impl VmqEngine {
    /// Creates an engine and materialises its dataset.
    pub fn new(config: EngineConfig) -> Self {
        let dataset = Dataset::generate(&config.profile, config.train_frames, config.test_frames, config.seed);
        VmqEngine { config, dataset, oracle: OracleDetector::perfect(), filters: None }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The materialised dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Trains the IC, OD and OD-COF filters on the training split (labels
    /// produced by the oracle detector). Returns the trained filters; calling
    /// this again re-trains from scratch.
    pub fn train_filters(&mut self) -> &TrainedFilters {
        let trained = TrainedFilters::train(&self.dataset, &self.config.filter, &self.oracle);
        self.filters = Some(trained);
        self.filters.as_ref().expect("just trained")
    }

    /// The trained filters, if [`VmqEngine::train_filters`] has been called.
    pub fn filters(&self) -> Option<&TrainedFilters> {
        self.filters.as_ref()
    }

    /// The deterministic calibration prefix of the *training* split used to
    /// build int8 filter twins: activation scales are calibrated on frames
    /// the filters were trained on, never on the test stream the query runs
    /// over.
    fn quantization_calib(&self) -> &[vmq_video::Frame] {
        let train = self.dataset.train();
        &train[..train.len().min(48)]
    }

    /// Resolves a filter choice to a concrete filter. Learned choices require
    /// [`VmqEngine::train_filters`] to have been called; the int8 choices
    /// additionally quantize the trained weights on a deterministic
    /// training-split prefix (a one-time, milliseconds-scale build).
    pub(crate) fn resolve_filter(&self, choice: FilterChoice) -> Box<dyn FrameFilter + '_> {
        let trained = || self.filters.as_ref().expect("train_filters() first");
        match choice {
            FilterChoice::Ic => Box::new(EngineFilterRef(&trained().ic)),
            FilterChoice::Od => Box::new(EngineFilterRef(&trained().od)),
            FilterChoice::OdCof => Box::new(EngineFilterRef(&trained().cof)),
            FilterChoice::Calibrated(profile) => Box::new(CalibratedFilter::new(
                self.config.filter.classes.clone(),
                self.config.filter.grid,
                profile,
                self.config.seed,
            )),
            FilterChoice::IcInt8 => {
                Box::new(vmq_filters::QuantizedIcFilter::from_trained(&trained().ic, self.quantization_calib()))
            }
            FilterChoice::OdInt8 => {
                Box::new(vmq_filters::QuantizedOdFilter::from_trained(&trained().od, self.quantization_calib()))
            }
            FilterChoice::OdCofInt8 => {
                Box::new(vmq_filters::QuantizedCofFilter::from_trained(&trained().cof, self.quantization_calib()))
            }
        }
    }

    /// Creates an empty [`StreamRuntime`] over this engine's test split —
    /// the one way to execute statements: register N statements (selects,
    /// adaptive selects, windowed aggregates), then [`StreamRuntime::run`]
    /// drives them all through one shared pass with deduplicated detection.
    /// Learned filter choices need [`VmqEngine::train_filters`] first.
    pub fn runtime(&self) -> StreamRuntime<'_> {
        StreamRuntime::new(self)
    }
}

/// A thin reference wrapper so `&IcFilter` / `&OdFilter` / `&CofFilter` can be
/// used where a boxed filter is expected without cloning trained weights.
struct EngineFilterRef<'a, F: FrameFilter>(&'a F);

impl<F: FrameFilter> FrameFilter for EngineFilterRef<'_, F> {
    fn estimate(&self, frame: &vmq_video::Frame) -> vmq_filters::FilterEstimate {
        self.0.estimate(frame)
    }

    fn estimate_batch(&self, frames: &[vmq_video::Frame]) -> Vec<vmq_filters::FilterEstimate> {
        self.0.estimate_batch(frames)
    }

    fn estimate_batch_sharded(&self, frames: &[vmq_video::Frame], workers: usize) -> Vec<vmq_filters::FilterEstimate> {
        self.0.estimate_batch_sharded(frames, workers)
    }

    fn kind(&self) -> vmq_filters::FilterKind {
        self.0.kind()
    }

    fn kernel_backend(&self) -> &'static str {
        self.0.kernel_backend()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CalibrationConfig;
    use crate::runtime::{RuntimeQuery, StatementOutcome};
    use vmq_aggregate::HoppingWindow;
    use vmq_filters::CalibrationProfile;
    use vmq_query::{CascadeConfig, Query};
    use vmq_video::DatasetProfile;

    /// Runs one statement alone on the engine's runtime.
    fn run_one(engine: &VmqEngine, statement: RuntimeQuery) -> StatementOutcome {
        let mut runtime = engine.runtime();
        runtime.register(statement);
        runtime.run().outcomes.remove(0)
    }

    fn select(engine: &VmqEngine, query: Query, choice: FilterChoice, cascade: CascadeConfig) -> QueryOutcome {
        let StatementOutcome::Select(outcome) = run_one(engine, RuntimeQuery::Select { query, choice, cascade }) else {
            panic!("a select yields a select outcome")
        };
        outcome
    }

    fn adaptive(engine: &VmqEngine, query: Query, calibration: CalibrationConfig) -> AdaptiveOutcome {
        let statement = RuntimeQuery::SelectAdaptive { query, calibration, drift: None };
        let StatementOutcome::Adaptive(outcome) = run_one(engine, statement) else {
            panic!("an adaptive select yields an adaptive outcome")
        };
        outcome
    }

    fn aggregate(engine: &VmqEngine, statement: RuntimeQuery) -> WindowedAggregateOutcome {
        let StatementOutcome::Aggregate(outcome) = run_one(engine, statement) else {
            panic!("an aggregate yields an aggregate outcome")
        };
        outcome
    }

    #[test]
    fn engine_runs_queries_with_calibrated_filter_without_training() {
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(40, 150));
        let outcome = select(
            &engine,
            Query::paper_q4(),
            FilterChoice::Calibrated(CalibrationProfile::perfect()),
            CascadeConfig::strict(),
        );
        assert!(outcome.accuracy.is_perfect(), "perfect filter + strict cascade must stay exact");
        assert!(outcome.speedup.speedup > 1.0, "speedup {:?}", outcome.speedup);
        assert!(outcome.summary().contains("q4"));
    }

    #[test]
    fn engine_trains_and_uses_learned_filters() {
        let mut config = EngineConfig::small(DatasetProfile::jackson()).with_sizes(60, 80);
        config.filter.schedule.epochs = 2;
        let mut engine = VmqEngine::new(config);
        assert!(engine.filters().is_none());
        engine.train_filters();
        assert!(engine.filters().is_some());
        let outcome = select(&engine, Query::paper_q3(), FilterChoice::Od, CascadeConfig::tolerant());
        // The learned filter may not be selective after two fast-test epochs;
        // the worst case is that it passes every frame, in which case the
        // filtered run costs at most ~1 % more than brute force (the filter's
        // own 1.9 ms against Mask R-CNN's 200 ms).
        assert!(outcome.run.frames_total == engine.dataset().test().len());
        assert!(outcome.speedup.speedup >= 0.95, "speedup {:?}", outcome.speedup);
        assert!(outcome.accuracy.recall >= 0.0);
    }

    #[test]
    fn engine_runs_int8_quantized_filters_as_planner_candidates() {
        let mut config = EngineConfig::small(DatasetProfile::jackson()).with_sizes(60, 80);
        config.filter.schedule.epochs = 2;
        let mut engine = VmqEngine::new(config);
        engine.train_filters();

        // The int8 twin is an explicit FilterChoice: it executes through the
        // same pipeline, labels its mode with its own kind and reports the
        // int8 kernel backend on its cascade rows.
        let outcome = select(&engine, Query::paper_q3(), FilterChoice::OdInt8, CascadeConfig::tolerant());
        assert_eq!(outcome.run.frames_total, engine.dataset().test().len());
        assert!(outcome.run.mode.starts_with("OD-INT8"), "mode {}", outcome.run.mode);
        let cascade = outcome.run.stage_metrics.iter().find(|m| m.operator == "cascade-filter").expect("cascade stage");
        assert_eq!(cascade.kernel_backend.as_deref(), Some("int8"));
        // Int8 stages are priced below their f32 parents (0.95 vs 1.9 ms).
        assert!((cascade.virtual_ms - 0.95 * cascade.frames_in as f64).abs() < 1e-9);

        // And as adaptive candidates they flow through the same recall
        // calibration — the planner may pick them, never substitute them.
        let planned = adaptive(&engine, Query::paper_q3(), CalibrationConfig::learned_with_int8());
        assert!(planned.outcome.accuracy.recall >= 0.0);
        assert!(planned.calibration.profiles.len() >= 4 * 9, "4 backends x 9 tolerances profiled");
    }

    #[test]
    fn stage_report_renders_operator_rows() {
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(30, 80));
        let outcome = select(
            &engine,
            Query::paper_q3(),
            FilterChoice::Calibrated(CalibrationProfile::perfect()),
            CascadeConfig::strict(),
        );
        let rendered = outcome.stage_report().render();
        assert!(rendered.contains("cascade-filter"));
        assert!(rendered.contains("mask-rcnn"));
        assert!(rendered.contains("pass rate"));
    }

    #[test]
    fn engine_runs_adaptive_queries_with_calibrated_backends() {
        use vmq_filters::FilterKind;
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(30, 200));
        let calibration = CalibrationConfig::calibrated(vec![
            CalibrationProfile::perfect().emulating(FilterKind::Od),
            CalibrationProfile::perfect().emulating(FilterKind::Ic),
        ])
        // The prefix must reach the stream's first true q3 frames (index
        // 107 at this seed): a prefix with no true frame certifies no
        // cascade and the planner would rightly ship the brute-force floor.
        .with_prefix(120);
        let outcome = adaptive(&engine, Query::paper_q3(), calibration);
        assert!(outcome.outcome.accuracy.is_perfect(), "perfect backends stay exact: {:?}", outcome.outcome.accuracy);
        // Identical estimates from both backends: the cheaper IC price wins.
        assert_eq!(outcome.plan().backend, "IC");
        assert!(outcome.outcome.run.mode.starts_with("adaptive IC-CCF"), "mode {}", outcome.outcome.run.mode);
        assert_eq!(outcome.calibration.prefix_frames, 120);
        assert!(outcome.calibration.calibration_ms > 0.0);
        let rendered = outcome.stage_report().render();
        assert!(rendered.contains("calibrate"));
        assert!(outcome.summary().contains("adaptive"));
        // Calibration cost is part of the filtered bill: speedup is computed
        // against virtual_ms that already includes it.
        let stage_sum: f64 = outcome.outcome.run.stage_metrics.iter().map(|m| m.virtual_ms).sum();
        assert!((stage_sum - outcome.outcome.speedup.filtered_ms).abs() < 1e-9);
    }

    #[test]
    fn engine_estimates_aggregates() {
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(40, 200));
        // A one-shot estimate: one tumbling window spanning the split.
        let mut outcome = aggregate(
            &engine,
            RuntimeQuery::Aggregate {
                query: Query::paper_a1(),
                choice: FilterChoice::Calibrated(CalibrationProfile::od_like()),
                window: HoppingWindow::tumbling(200),
                sample_size: 25,
                trials: 30,
            },
        );
        assert_eq!(outcome.reports.len(), 1);
        let report = outcome.reports.remove(0);
        assert_eq!(report.window_frames, 200);
        assert!(report.plain_variance >= 0.0);
        assert!((report.plain_mean - report.true_fraction).abs() < 0.15);
    }

    #[test]
    fn engine_runs_windowed_aggregates_through_the_pipeline() {
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(40, 200));
        let outcome = aggregate(
            &engine,
            RuntimeQuery::Aggregate {
                query: Query::paper_a1(),
                choice: FilterChoice::Calibrated(CalibrationProfile::od_like()),
                window: HoppingWindow::new(100, 50),
                sample_size: 20,
                trials: 15,
            },
        );
        // 200 frames, size 100, advance 50 → windows at 0, 50, 100.
        assert_eq!(outcome.reports.len(), 3);
        for (i, report) in outcome.reports.iter().enumerate() {
            assert_eq!(report.window_index, i);
            assert_eq!(report.window_start, i * 50);
            assert_eq!(report.window_frames, 100);
        }
        assert!(outcome.run.mode.contains("aggregate"));
        assert_eq!(outcome.run.frames_detected, 3 * 20 * 15);
        let operators: Vec<&str> = outcome.run.stage_metrics.iter().map(|m| m.operator.as_str()).collect();
        assert_eq!(operators, ["source", "window-filter", "aggregate-sink"]);
        let rendered = outcome.stage_report().render();
        assert!(rendered.contains("window-filter"));
        assert!(outcome.table_rows().contains("a1"));
        assert!(outcome.selections.is_empty());
    }

    #[test]
    fn engine_runs_adaptive_windowed_aggregates() {
        use vmq_filters::FilterKind;
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(30, 200));
        let calibration = CalibrationConfig::calibrated(vec![
            CalibrationProfile::perfect().emulating(FilterKind::Od),
            CalibrationProfile::perfect().emulating(FilterKind::Ic),
        ])
        .with_prefix(24);
        let outcome = aggregate(
            &engine,
            RuntimeQuery::AggregateAdaptive {
                query: Query::paper_a1(),
                calibration,
                window: HoppingWindow::tumbling(100),
                sample_size: 20,
                trials: 10,
            },
        );
        assert_eq!(outcome.reports.len(), 2);
        assert_eq!(outcome.selections.len(), 2, "one backend choice per window");
        for (choice, report) in outcome.selections.iter().zip(&outcome.reports) {
            // Identical perfect estimates: the cheaper IC stage must win.
            assert_eq!(choice.backend, "IC", "correlations {:?}", choice.correlations);
            assert_eq!(report.backend, "IC");
            assert!((report.time_per_sample_ms - 201.5).abs() < 1e-9, "IC price: {}", report.time_per_sample_ms);
        }
        // Both backends filtered every frame; calibration detector work is
        // tracked per window.
        let filters: Vec<&str> = outcome
            .run
            .stage_metrics
            .iter()
            .filter(|m| m.operator == "window-filter")
            .map(|m| m.operator.as_str())
            .collect();
        assert_eq!(filters.len(), 2);
        assert_eq!(outcome.run.frames_detected, 2 * (20 * 10 + 24));
    }

    #[test]
    fn engine_executes_parsed_window_hopping_statements() {
        use vmq_query::parse_statement;
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(40, 200));
        let statement = parse_statement(
            "hop",
            "SELECT cameraID, frameID FROM stream WHERE COUNT(car) >= 1 \
             WINDOW HOPPING (SIZE 80, ADVANCE BY 40)",
        )
        .expect("parse");
        let plain = parse_statement("flat", "SELECT x FROM v WHERE COUNT(car) >= 1").expect("parse");
        let choice = FilterChoice::Calibrated(CalibrationProfile::od_like());
        let mut runtime = engine.runtime();
        runtime.register_statement(&statement, choice, CascadeConfig::tolerant(), 15, 10);
        runtime.register_statement(&plain, choice, CascadeConfig::tolerant(), 15, 10);
        let outcome = runtime.run();
        // 200 frames, size 80, advance 40 → windows at 0, 40, 80, 120.
        let hop = outcome.outcomes[0].as_aggregate().expect("WINDOW HOPPING runs as an aggregate");
        assert_eq!(hop.reports.len(), 4);
        assert!(hop.reports.iter().all(|r| r.window_frames == 80));
        // Without a window clause the statement is a select over the split.
        let flat = outcome.outcomes[1].as_select().expect("a plain statement runs as a select");
        assert_eq!(flat.run.frames_total, 200);
    }

    #[test]
    #[should_panic(expected = "train_filters() first")]
    fn learned_filter_without_training_panics() {
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(30, 30));
        let _ = select(&engine, Query::paper_q1(), FilterChoice::Ic, CascadeConfig::strict());
    }
}
