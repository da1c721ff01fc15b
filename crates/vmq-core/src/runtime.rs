//! The engine's statement runtime: one stream pass, N statements.
//!
//! The paper's setting is *monitoring* — many standing queries (q1–q7,
//! a1–a5) watch the same camera stream. [`StreamRuntime`] is the engine's
//! one way to run statements: it registers N statements (selects with fixed
//! or adaptively planned cascades, plus windowed aggregates; parsed SQL via
//! [`StreamRuntime::register_statement`]) and runs them on a
//! [`FleetRuntime`] of one camera fed the engine's test split. What stays
//! here is what only the engine knows: the filter instance each
//! [`FilterChoice`] resolves to, each aggregate's estimator, and the
//! outcomes, with accuracy and speedup against a synthesised brute-force
//! run. The fleet does the rest, as for any camera:
//!
//! * queries naming the same filter backend share one inference per
//!   `(backend, frame)`, and each distinct tolerance check of their cascades
//!   is evaluated once per frame and fanned out to the queries sharing it;
//! * the expensive detector runs at most once per frame, deduplicated
//!   through the fleet's [`DetectionCache`](vmq_detect::DetectionCache) — a
//!   frame escalated by query A and reused by query B (or re-sampled by an
//!   aggregate trial) is detected once and its cost split between them in
//!   the [`SharedCost`] attribution;
//! * adaptive statements are planned off one calibration pass per backend
//!   over the stream's first frames, so N adaptive queries annotate the
//!   prefix once, not N times;
//! * a learned backend's decode shards across the whole machine with a
//!   deterministic merge.
//!
//! Every statement keeps a private as-if-isolated
//! [`CostLedger`](vmq_detect::CostLedger), which is what makes the headline
//! guarantee checkable: each per-query outcome is **bit-identical** to
//! running that statement alone — on a runtime of one, just as
//! [`QueryExecutor`](vmq_query::QueryExecutor)'s `run_*` are registrations
//! on a [`SharedStreamPlan`](vmq_query::SharedStreamPlan) of one.

use crate::config::{CalibrationConfig, FilterChoice};
use crate::engine::{AdaptiveOutcome, QueryOutcome, VmqEngine, WindowedAggregateOutcome};
use vmq_aggregate::WindowedAggregator;
use vmq_detect::{CostModel, SharedCost, Stage};
use vmq_filters::FrameFilter;
use vmq_query::{
    AggregateSpec, CascadeConfig, DriftConfig, DriftSetup, FleetConfig, FleetRuntime, ParsedStatement, Query,
    QueryAccuracy, QueryRun, ReplanEvent, SpeedupReport, StageMetrics,
};
use vmq_video::Frame;

/// One statement registered with the runtime.
#[derive(Debug, Clone)]
pub enum RuntimeQuery {
    /// A select with a fixed cascade over one filter backend.
    Select {
        /// The query.
        query: Query,
        /// The filter backend in front of the detector.
        choice: FilterChoice,
        /// The fixed cascade tolerances.
        cascade: CascadeConfig,
    },
    /// A select planned adaptively on a calibration prefix: every candidate
    /// `(backend × tolerance)` is profiled on the leading
    /// `calibration.prefix_frames` frames, and the cheapest combination that
    /// kept 100 % recall there runs over the whole split. The run's virtual
    /// time includes the calibration cost.
    SelectAdaptive {
        /// The query.
        query: Query,
        /// Candidate backends, tolerances and prefix length.
        calibration: CalibrationConfig,
        /// Optional online drift monitor: audit a seeded fraction of
        /// filter-rejected frames and replan mid-stream when the audit
        /// contradicts the committed calibration. `None` (or a disabled
        /// config) keeps the one-shot plan forever.
        drift: Option<DriftConfig>,
    },
    /// A windowed aggregate: the filter computes control-variate indicators
    /// on every frame, and each completed hopping window is estimated with
    /// `trials` repetitions of `sample_size` detector-sampled frames. A
    /// one-shot estimate is one tumbling window spanning the split.
    Aggregate {
        /// The (aggregate) query.
        query: Query,
        /// The control-variate filter backend.
        choice: FilterChoice,
        /// Hopping window `(size, advance)` in frames, as the parser's
        /// `WINDOW HOPPING (SIZE n, ADVANCE BY m)` clause gives it.
        window: (usize, usize),
        /// Detector-sampled frames per trial.
        sample_size: usize,
        /// Estimation trials per window.
        trials: usize,
    },
    /// A windowed aggregate with per-window adaptive control-variate backend
    /// selection: every candidate backend computes indicators window-wide,
    /// and the one whose indicator correlates best with the detector on each
    /// window's calibration prefix serves that window's control variates.
    AggregateAdaptive {
        /// The (aggregate) query.
        query: Query,
        /// Candidate backends and per-window calibration prefix.
        calibration: CalibrationConfig,
        /// Hopping window `(size, advance)` in frames, as the parser's
        /// `WINDOW HOPPING (SIZE n, ADVANCE BY m)` clause gives it.
        window: (usize, usize),
        /// Detector-sampled frames per trial.
        sample_size: usize,
        /// Estimation trials per window.
        trials: usize,
    },
}

impl RuntimeQuery {
    /// The statement's query.
    pub fn query(&self) -> &Query {
        match self {
            RuntimeQuery::Select { query, .. }
            | RuntimeQuery::SelectAdaptive { query, .. }
            | RuntimeQuery::Aggregate { query, .. }
            | RuntimeQuery::AggregateAdaptive { query, .. } => query,
        }
    }
}

/// The per-statement result of a shared run, in registration order.
#[derive(Debug, Clone)]
pub enum StatementOutcome {
    /// A fixed-cascade select's outcome.
    Select(QueryOutcome),
    /// An adaptively planned select's outcome.
    Adaptive(AdaptiveOutcome),
    /// A windowed aggregate's outcome.
    Aggregate(WindowedAggregateOutcome),
}

impl StatementOutcome {
    /// The underlying pipeline run (any statement shape).
    pub fn run(&self) -> &QueryRun {
        match self {
            StatementOutcome::Select(o) => &o.run,
            StatementOutcome::Adaptive(o) => &o.outcome.run,
            StatementOutcome::Aggregate(o) => &o.run,
        }
    }

    /// The select outcome, if this statement was a fixed-cascade select.
    pub fn as_select(&self) -> Option<&QueryOutcome> {
        match self {
            StatementOutcome::Select(o) => Some(o),
            _ => None,
        }
    }

    /// The adaptive outcome, if this statement was an adaptive select.
    pub fn as_adaptive(&self) -> Option<&AdaptiveOutcome> {
        match self {
            StatementOutcome::Adaptive(o) => Some(o),
            _ => None,
        }
    }

    /// The aggregate outcome, if this statement was a windowed aggregate.
    pub fn as_aggregate(&self) -> Option<&WindowedAggregateOutcome> {
        match self {
            StatementOutcome::Aggregate(o) => Some(o),
            _ => None,
        }
    }

    /// Plan swaps the drift monitor performed for this statement, in stream
    /// order (empty for statements without an attached monitor).
    pub fn replans(&self) -> &[ReplanEvent] {
        &self.run().replans
    }
}

/// Everything one shared pass produced: per-statement outcomes plus the
/// global deduplication accounting.
#[derive(Debug, Clone)]
pub struct MultiQueryOutcome {
    /// Per-statement outcomes, in registration order. Each is bit-identical
    /// to the statement's isolated execution.
    pub outcomes: Vec<StatementOutcome>,
    /// The shared-vs-isolated cost breakdown: work performed once is charged
    /// once globally and split across its consumers.
    pub shared: SharedCost,
    /// Expensive-detector invocations the shared pass actually performed —
    /// exactly the number of distinct frames any statement escalated,
    /// sampled or annotated.
    pub detector_invocations: u64,
    /// Detector lookups served from the shared cache instead of re-running
    /// the detector.
    pub cache_hits: u64,
    /// Frames in the shared stream pass.
    pub frames_total: usize,
}

/// Registers statements against a [`VmqEngine`]'s stream and runs them all
/// in one shared pass. See the module docs for the sharing semantics.
pub struct StreamRuntime<'e> {
    engine: &'e VmqEngine,
    statements: Vec<RuntimeQuery>,
}

impl<'e> StreamRuntime<'e> {
    /// A runtime over the engine's test split with no statements yet.
    pub fn new(engine: &'e VmqEngine) -> Self {
        StreamRuntime { engine, statements: Vec::new() }
    }

    /// Registers a statement; returns its index (= position of its outcome).
    pub fn register(&mut self, statement: RuntimeQuery) -> usize {
        self.statements.push(statement);
        self.statements.len() - 1
    }

    /// Registers a parsed SQL statement: `WINDOW HOPPING` statements run as
    /// windowed aggregates (`sample_size` samples × `trials` trials per
    /// window), plain statements as fixed-cascade selects.
    pub fn register_statement(
        &mut self,
        statement: &ParsedStatement,
        choice: FilterChoice,
        cascade: CascadeConfig,
        sample_size: usize,
        trials: usize,
    ) -> usize {
        let statement = match statement.window {
            Some(window) => {
                RuntimeQuery::Aggregate { query: statement.query.clone(), choice, window, sample_size, trials }
            }
            None => RuntimeQuery::Select { query: statement.query.clone(), choice, cascade },
        };
        self.register(statement)
    }

    /// Runs every registered statement through one shared stream pass: a
    /// [`FleetRuntime`] of one camera fed the engine's test split. Statements
    /// with an equal `(choice, calibration prefix)` share one filter
    /// instance, and with it one inference per frame. The prefix is part of
    /// the key because a stochastic backend profiled over a calibration
    /// prefix has drawn that many per-frame noise values before the pass;
    /// sharing it with an uncalibrated reader would change someone's
    /// estimates. With no statement registered nothing runs: no outcomes,
    /// no detector invocation, no cost.
    pub fn run(&self) -> MultiQueryOutcome {
        let engine = self.engine;
        let frames = engine.dataset.test();
        let mut keys: Vec<(FilterChoice, Option<usize>)> = Vec::new();
        let mut backend_of = |choice: FilterChoice, prefix: Option<usize>| {
            keys.iter().position(|&key| key == (choice, prefix)).unwrap_or_else(|| {
                keys.push((choice, prefix));
                keys.len() - 1
            })
        };
        let statement_backends: Vec<Vec<usize>> = (self.statements.iter())
            .map(|statement| match statement {
                RuntimeQuery::Select { choice, .. } | RuntimeQuery::Aggregate { choice, .. } => {
                    vec![backend_of(*choice, None)]
                }
                RuntimeQuery::SelectAdaptive { calibration, .. } => {
                    let prefix = Some(calibration.prefix_frames.min(frames.len()));
                    calibration.candidate_backends.iter().map(|&choice| backend_of(choice, prefix)).collect()
                }
                RuntimeQuery::AggregateAdaptive { calibration, .. } => {
                    calibration.candidate_backends.iter().map(|&choice| backend_of(choice, None)).collect()
                }
            })
            .collect();
        let filters: Vec<Box<dyn FrameFilter + 'e>> =
            keys.iter().map(|&(choice, _)| engine.resolve_filter(choice)).collect();
        let seed = engine.config.seed ^ 0xA66;
        let mut estimators: Vec<Option<WindowedAggregator>> = (self.statements.iter())
            .map(|statement| match statement {
                RuntimeQuery::Aggregate { query, sample_size, trials, .. } => {
                    Some(WindowedAggregator::new(query.clone(), *sample_size, *trials, seed))
                }
                RuntimeQuery::AggregateAdaptive { query, calibration, sample_size, trials, .. } => Some(
                    WindowedAggregator::new(query.clone(), *sample_size, *trials, seed)
                        .with_adaptive_backend(calibration.prefix_frames),
                ),
                _ => None,
            })
            .collect();

        let config = FleetConfig { queue_capacity: frames.len(), cache_bytes: usize::MAX, ..FleetConfig::default() };
        let mut fleet = FleetRuntime::new(&engine.oracle, config);
        let camera = fleet.add_camera_frames(frames);
        for filter in &filters {
            fleet.add_backend(camera, filter.as_ref());
        }
        for ((statement, backends), estimator) in self.statements.iter().zip(statement_backends).zip(&mut estimators) {
            let query = statement.query().clone();
            match statement {
                RuntimeQuery::Select { cascade, .. } => {
                    fleet.register_select(camera, "", query, *cascade, Some(backends[0]));
                }
                RuntimeQuery::SelectAdaptive { calibration, drift, .. } => {
                    let setup = DriftSetup {
                        config: drift.clone().unwrap_or_else(|| DriftConfig::new(0.0)),
                        candidate_backends: backends,
                        tolerances: calibration.candidate_tolerances.clone(),
                    };
                    fleet.register_select_drifted(camera, "", query, calibration.prefix_frames, setup);
                }
                RuntimeQuery::Aggregate { window: (size, advance), .. }
                | RuntimeQuery::AggregateAdaptive { window: (size, advance), .. } => {
                    let (spec, estimator) = (AggregateSpec::new(*size, *advance), estimator.as_mut());
                    let estimator = estimator.expect("aggregate statements carry an estimator");
                    fleet.register_aggregate(camera, "", query, spec, &backends, estimator);
                }
            }
        }
        fleet.ingest(frames.len());
        let fleet = fleet.finish();

        let model = CostModel::paper();
        let outcomes: Vec<StatementOutcome> = (self.statements.iter().zip(fleet.statements).zip(estimators))
            .map(|((statement, outcome), estimator)| match statement {
                RuntimeQuery::Select { query, .. } => {
                    StatementOutcome::Select(select_outcome(query, frames, outcome.run, &model))
                }
                RuntimeQuery::SelectAdaptive { query, .. } => StatementOutcome::Adaptive(AdaptiveOutcome {
                    outcome: select_outcome(query, frames, outcome.run, &model),
                    calibration: *outcome.calibration.expect("adaptive selects are planned"),
                }),
                RuntimeQuery::Aggregate { .. } | RuntimeQuery::AggregateAdaptive { .. } => {
                    let estimator = estimator.expect("aggregate statements carry an estimator");
                    StatementOutcome::Aggregate(WindowedAggregateOutcome {
                        selections: estimator.selections().to_vec(),
                        reports: estimator.into_reports(),
                        run: outcome.run,
                    })
                }
            })
            .collect();
        MultiQueryOutcome {
            outcomes,
            shared: fleet.shared,
            detector_invocations: fleet.detector_invocations,
            cache_hits: fleet.cache_hits,
            frames_total: frames.len(),
        }
    }
}

/// Builds the [`QueryOutcome`] of one shared select run: accuracy against
/// ground truth plus the speedup over the *synthesised* brute-force
/// baseline.
fn select_outcome(query: &Query, frames: &[Frame], run: QueryRun, model: &CostModel) -> QueryOutcome {
    let brute_force = synthetic_brute_force(query, frames, model);
    let truth: Vec<u64> = frames.iter().filter(|f| query.matches_ground_truth(f)).map(|f| f.frame_id).collect();
    let accuracy = QueryAccuracy::compare(&run.matched_frames, &truth);
    let speedup = SpeedupReport::new(brute_force.virtual_ms, run.virtual_ms);
    QueryOutcome { run, brute_force, accuracy, speedup }
}

/// Synthesises the brute-force baseline [`QueryRun`] without running the
/// detector over the whole stream: every frame is decoded and detected at
/// the virtual price, and the answer set is the ground truth. With the
/// engine's perfect oracle this is **bit-identical** (matches, counts,
/// virtual time, stage rows) to actually executing
/// [`QueryExecutor::run_brute_force`](vmq_query::QueryExecutor) — pinned by
/// `synthetic_brute_force_matches_actual_brute_run` — which is what lets a
/// shared run report per-query speedups while the pass invokes the detector
/// only on the escalation union.
pub(crate) fn synthetic_brute_force(query: &Query, frames: &[Frame], model: &CostModel) -> QueryRun {
    let n = frames.len();
    let matched: Vec<u64> = frames.iter().filter(|f| query.matches_ground_truth(f)).map(|f| f.frame_id).collect();
    let charged = |stage: Stage| match stage {
        Stage::Decode | Stage::MaskRcnn => n as u64,
        _ => 0,
    };
    // Same iteration order as `CostLedger::total_ms`, so the float sum is
    // bit-identical to a ledger that charged decode and detection for every
    // frame.
    let virtual_ms: f64 = Stage::ALL.iter().map(|&s| model.cost_ms(s) * charged(s) as f64).sum();
    let row = |operator: &str, stage: Option<Stage>, fin: usize, fout: usize, charged: u64| {
        StageMetrics::charged_row(operator, stage, fin, fout, charged, model, 0.0)
    };
    QueryRun {
        query: query.name.clone(),
        mode: "brute-force".to_string(),
        matched_frames: matched.clone(),
        frames_total: n,
        frames_passed_filter: n,
        frames_detected: n,
        virtual_ms,
        filter_wall_ms: 0.0,
        stage_metrics: vec![
            row("source", Some(Stage::Decode), n, n, n as u64),
            row("detect", Some(Stage::MaskRcnn), n, n, n as u64),
            row("predicate-eval", None, n, matched.len(), 0),
            row("sink", None, matched.len(), matched.len(), 0),
        ],
        replans: Vec::new(),
        audit_frames: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use vmq_filters::CalibrationProfile;
    use vmq_query::QueryExecutor;
    use vmq_video::DatasetProfile;

    fn engine() -> VmqEngine {
        VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(30, 150))
    }

    /// Runs `statements` in one shared pass.
    fn run_all(engine: &VmqEngine, statements: &[RuntimeQuery]) -> MultiQueryOutcome {
        let mut runtime = engine.runtime();
        for statement in statements {
            runtime.register(statement.clone());
        }
        runtime.run()
    }

    /// The synthesised brute-force baseline is bit-identical to actually
    /// executing brute force under the engine's perfect oracle — matches,
    /// counts, virtual time and stage rows.
    #[test]
    fn synthetic_brute_force_matches_actual_brute_run() {
        let engine = engine();
        let frames = engine.dataset().test();
        for query in [Query::paper_q1(), Query::paper_q3(), Query::paper_q5(), Query::paper_q7()] {
            let exec = QueryExecutor::new(query.clone());
            let actual = exec.run_brute_force(frames, &engine.oracle);
            let synthetic = synthetic_brute_force(&query, frames, &CostModel::paper());
            assert_eq!(synthetic.matched_frames, actual.matched_frames, "{}", query.name);
            assert_eq!(synthetic.frames_detected, actual.frames_detected);
            assert_eq!(synthetic.frames_total, actual.frames_total);
            assert_eq!(synthetic.virtual_ms.to_bits(), actual.virtual_ms.to_bits(), "{}", query.name);
            assert_eq!(synthetic.mode, actual.mode);
            for (s, a) in synthetic.stage_metrics.iter().zip(&actual.stage_metrics) {
                assert_eq!(s.operator, a.operator);
                assert_eq!(s.stage, a.stage);
                assert_eq!(s.frames_in, a.frames_in);
                assert_eq!(s.frames_out, a.frames_out);
                assert_eq!(s.virtual_ms.to_bits(), a.virtual_ms.to_bits());
            }
        }
    }

    /// A mixed registration (fixed select + adaptive select + windowed
    /// aggregate) runs in one pass and reports a consistent shared-cost
    /// split: attribution covers the whole deduplicated bill, every
    /// statement saves or breaks even, and outcomes land in registration
    /// order with their statement shapes.
    #[test]
    fn run_many_mixes_statement_shapes_with_consistent_accounting() {
        let engine = engine();
        let choice = FilterChoice::Calibrated(CalibrationProfile::od_like());
        let statements = vec![
            RuntimeQuery::Select { query: Query::paper_q3(), choice, cascade: CascadeConfig::tolerant() },
            RuntimeQuery::SelectAdaptive {
                query: Query::paper_q4(),
                calibration: CalibrationConfig::calibrated(vec![CalibrationProfile::od_like()]).with_prefix(24),
                drift: None,
            },
            RuntimeQuery::Aggregate { query: Query::paper_a1(), choice, window: (75, 75), sample_size: 15, trials: 10 },
        ];
        let outcome = run_all(&engine, &statements);
        assert_eq!(outcome.outcomes.len(), 3);
        assert_eq!(outcome.frames_total, 150);
        assert!(outcome.outcomes[0].as_select().is_some());
        assert!(outcome.outcomes[1].as_adaptive().is_some());
        let aggregate = outcome.outcomes[2].as_aggregate().expect("third statement is an aggregate");
        assert_eq!(aggregate.reports.len(), 2);
        assert_eq!(outcome.outcomes[2].run().query, "a1");

        // Shared accounting: the deduplicated bill is fully attributed and
        // never exceeds the sum of isolated bills.
        let shared = &outcome.shared;
        assert_eq!(shared.queries.len(), 3);
        let attributed: f64 = shared.queries.iter().map(|s| s.attributed_ms).sum();
        assert!(
            (attributed - shared.shared_total_ms).abs() < 1e-6,
            "attributed {attributed} vs {}",
            shared.shared_total_ms
        );
        assert!(shared.shared_total_ms <= shared.isolated_total_ms + 1e-9);
        assert!(shared.speedup() >= 1.0);
        for share in &shared.queries {
            assert!(share.attributed_ms <= share.isolated_ms + 1e-9, "{:?}", share);
        }
        // The detector ran once per distinct frame; repeats hit the cache
        // (the aggregate alone samples 2 × 15 × 10 frames with replacement
        // across trials, so hits are guaranteed).
        assert!(outcome.detector_invocations <= 150);
        assert!(outcome.cache_hits > 0);
        assert!(outcome.shared.summary().contains("q3"));
    }

    /// Parsed statements register as selects or aggregates by window clause.
    #[test]
    fn register_statement_routes_by_window_clause() {
        use vmq_query::parse_statement;
        let engine = engine();
        let mut runtime = engine.runtime();
        let choice = FilterChoice::Calibrated(CalibrationProfile::od_like());
        let hop = parse_statement(
            "hop",
            "SELECT cameraID, frameID FROM stream WHERE COUNT(car) >= 1 WINDOW HOPPING (SIZE 50, ADVANCE BY 50)",
        )
        .expect("parse");
        let flat = parse_statement("flat", "SELECT x FROM v WHERE COUNT(car) >= 2").expect("parse");
        runtime.register_statement(&hop, choice, CascadeConfig::tolerant(), 10, 5);
        runtime.register_statement(&flat, choice, CascadeConfig::tolerant(), 10, 5);
        let outcome = runtime.run();
        let aggregate = outcome.outcomes[0].as_aggregate().expect("WINDOW HOPPING runs as an aggregate");
        assert_eq!(aggregate.reports.len(), 3, "150 frames / 50-frame tumbling windows");
        assert!(outcome.outcomes[1].as_select().is_some(), "plain statements run as selects");
        assert_eq!(statements_name_roundtrip(&outcome), vec!["hop", "flat"]);
    }

    fn statements_name_roundtrip(outcome: &MultiQueryOutcome) -> Vec<String> {
        outcome.outcomes.iter().map(|o| o.run().query.clone()).collect()
    }

    /// A runtime with nothing registered runs nothing: no outcomes, no
    /// detector invocation, no shared cost — but it still reports the
    /// stream it would have watched.
    #[test]
    fn an_empty_runtime_returns_an_empty_outcome() {
        let engine = engine();
        let outcome = engine.runtime().run();
        assert!(outcome.outcomes.is_empty());
        assert_eq!(outcome.frames_total, 150);
        assert_eq!(outcome.detector_invocations, 0);
        assert_eq!(outcome.cache_hits, 0);
        assert!(outcome.shared.queries.is_empty());
        assert_eq!(outcome.shared.shared_total_ms, 0.0);
        assert_eq!(outcome.shared.isolated_total_ms, 0.0);
    }
}
