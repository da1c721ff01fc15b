//! Query execution entry points.
//!
//! There is one executor: [`SharedStreamPlan`]'s `prepare_batch →
//! detect_pending → complete_batch` pass. Every entry point here — brute
//! force, filtered, adaptive, windowed aggregate — registers its single
//! statement on a plan of one (the executor's ledger is the statement's
//! private as-if-isolated ledger) and drains a frame slice through it, so a
//! statement run alone and the same statement run among N others execute
//! the same code. A stream that arrives batch by batch goes through
//! [`SharedStreamPlan::push_batch`] / [`SharedStreamPlan::finish`] instead. The plan charges whole batches to the virtual-time
//! [`CostLedger`] with the paper's per-frame costs, and the run reports
//! unified per-operator [`StageMetrics`].

use crate::ast::Query;
use crate::drift::ReplanEvent;
use crate::metrics::QueryAccuracy;
use crate::pipeline::{AggregateSpec, PipelineConfig, SharedStreamPlan, StageMetrics, WindowEstimator};
use crate::plan::CascadeConfig;
use crate::planner::{plan_cascade, CalibrationReport};
use serde::{Deserialize, Serialize};
use vmq_detect::{CostLedger, DetectionCache, Detector};
use vmq_filters::FrameFilter;
use vmq_video::Frame;

/// The result of running a query over a set of frames.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryRun {
    /// Query name.
    pub query: String,
    /// Human-readable description of the execution mode / filter combination
    /// (e.g. "brute-force" or "OD-CCF-1/OD-CLF-2").
    pub mode: String,
    /// Frame ids reported as satisfying the query.
    pub matched_frames: Vec<u64>,
    /// Total number of frames processed.
    pub frames_total: usize,
    /// Number of frames that passed the filter cascade (equals
    /// `frames_total` for brute force).
    pub frames_passed_filter: usize,
    /// Number of frames evaluated by the expensive detector.
    pub frames_detected: usize,
    /// End-to-end virtual time in milliseconds (the paper's cost model).
    pub virtual_ms: f64,
    /// Real wall-clock milliseconds spent in the cascade-filter operator
    /// (batched filter inference plus the tolerance checks).
    pub filter_wall_ms: f64,
    /// Per-operator metrics of the pipeline that produced this run.
    pub stage_metrics: Vec<StageMetrics>,
    /// Plan swaps performed by the drift monitor, in stream order (empty for
    /// every run without an attached monitor).
    #[serde(default)]
    pub replans: Vec<ReplanEvent>,
    /// Frames the drift monitor escalated to the detector (inline audit
    /// sentinels plus post-replan catch-up repair), already included in
    /// `virtual_ms` through the ledger's audit phase.
    #[serde(default)]
    pub audit_frames: u64,
}

impl QueryRun {
    /// Virtual execution time in seconds (comparable to Table III rows).
    pub fn virtual_seconds(&self) -> f64 {
        self.virtual_ms / 1000.0
    }

    /// Fraction of frames that the cascade allowed through.
    pub fn filter_pass_rate(&self) -> f64 {
        if self.frames_total == 0 {
            0.0
        } else {
            self.frames_passed_filter as f64 / self.frames_total as f64
        }
    }
}

/// Executes queries over frame collections.
pub struct QueryExecutor {
    query: Query,
    ledger: CostLedger,
    pipeline: PipelineConfig,
    workers: usize,
}

impl QueryExecutor {
    /// Batches of detections a plan of one keeps resident. A lone select
    /// looks every frame up once, so the cache only has to outlive the
    /// batch in flight; a few batches of slack let an aggregate's
    /// overlapping windows re-sample recent frames without re-detecting.
    const CACHE_BATCHES: usize = 4;

    /// Creates an executor for a query with the paper's cost model.
    pub fn new(query: Query) -> Self {
        QueryExecutor { query, ledger: CostLedger::paper(), pipeline: PipelineConfig::default(), workers: 1 }
    }

    /// Overrides the plan's batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.pipeline = PipelineConfig::with_batch_size(batch_size);
        self
    }

    /// Overrides the plan's worker count
    /// ([`SharedStreamPlan::with_workers`]: filter inference and detection
    /// shard over it; bit-identical results for any value, purely a
    /// wall-clock knob).
    pub fn with_filter_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The query being executed.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The cost ledger accumulated over all runs of this executor.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// The empty plan every `run_*` registers its one statement on: a fresh
    /// global ledger over this executor's cost model (nothing is shared, so
    /// its deduplicated bill is not reported) and a detection cache bounded
    /// to [`Self::CACHE_BATCHES`] batches — statement answers and private
    /// ledgers do not depend on the cache size, and an arbitrarily long
    /// stream stays O(batch) in memory. Registrations pass
    /// `self.ledger.clone()` as the private ledger so repeated runs keep
    /// accumulating into it.
    fn plan_of_one<'a>(&self, detector: &'a dyn Detector) -> SharedStreamPlan<'a> {
        let cache = DetectionCache::with_entry_budget(Self::CACHE_BATCHES * self.pipeline.batch_size);
        SharedStreamPlan::new(detector, cache, CostLedger::new(self.ledger.model().clone()), self.pipeline)
            .with_workers(self.workers)
    }

    /// Runs the query in brute-force mode: the expensive detector evaluates
    /// every frame. `detector` should not carry its own ledger (the plan
    /// does the charging).
    pub fn run_brute_force(&self, frames: &[Frame], detector: &dyn Detector) -> QueryRun {
        let mut plan = self.plan_of_one(detector);
        plan.register_select(self.query.clone(), CascadeConfig::strict(), None, self.ledger.clone());
        plan.execute_slice(frames).remove(0)
    }

    /// Runs the query with a filter cascade in front of the detector.
    pub fn run_filtered(
        &self,
        frames: &[Frame],
        filter: &dyn FrameFilter,
        detector: &dyn Detector,
        config: CascadeConfig,
    ) -> QueryRun {
        let mut plan = self.plan_of_one(detector);
        let backend = plan.add_backend(filter);
        plan.register_select(self.query.clone(), config, Some(backend), self.ledger.clone());
        plan.execute_slice(frames).remove(0)
    }

    /// Runs the query *adaptively*: the first `prefix_frames` frames form a
    /// calibration prefix on which every `(backend × tolerance)` candidate
    /// is profiled (charging the calibration work to this executor's
    /// ledger); the cheapest combination that kept 100 % recall on the
    /// prefix is then executed over **all** of `frames` (prefix included).
    /// When no lossless cascade beats `decode + detector` on the prefix the
    /// planner ships the brute-force floor, so the run costs at most brute
    /// force plus the calibration bill. The run's virtual time includes the
    /// calibration cost, and its stage metrics lead with a `calibrate` row.
    pub fn run_adaptive(
        &self,
        frames: &[Frame],
        prefix_frames: usize,
        backends: &[&dyn FrameFilter],
        tolerances: &[CascadeConfig],
        detector: &dyn Detector,
    ) -> (QueryRun, CalibrationReport) {
        let prefix = &frames[..prefix_frames.min(frames.len())];
        let report =
            plan_cascade(&self.query, prefix, backends, tolerances, detector, &self.ledger, self.pipeline.batch_size);
        let choice = &report.choice;
        let mut plan = self.plan_of_one(detector);
        let backend = (!choice.brute_force).then(|| plan.add_backend(backends[choice.backend_index]));
        plan.register_select_with(
            self.query.clone(),
            choice.cascade,
            backend,
            self.ledger.clone(),
            format!("adaptive {}", choice.label),
            Some(StageMetrics::calibrate(&report)),
        );
        (plan.execute_slice(frames).remove(0), report)
    }

    /// Runs the query as a *windowed aggregate*: every frame is decoded and
    /// filtered window-wide (one `window-filter` row per candidate backend),
    /// and `estimator` receives each completed hopping window of
    /// `spec.window` frames, running the expensive detector on sampled
    /// frames only. This is how a parsed `WINDOW HOPPING` statement
    /// executes: the parser's `(size, advance)` goes into
    /// [`AggregateSpec::window`] and the estimator emits one aggregate
    /// report per window. Reports accumulate inside the estimator; the
    /// returned [`QueryRun`] carries the stage metrics (an empty answer set
    /// — aggregates estimate fractions, they do not select frames).
    pub fn run_aggregate(
        &self,
        frames: &[Frame],
        spec: AggregateSpec,
        backends: &[&dyn FrameFilter],
        detector: &dyn Detector,
        estimator: &mut dyn WindowEstimator,
    ) -> QueryRun {
        let mut plan = self.plan_of_one(detector);
        let backends: Vec<usize> = backends.iter().map(|&filter| plan.add_backend(filter)).collect();
        plan.register_aggregate(self.query.clone(), spec, &backends, estimator, self.ledger.clone());
        plan.execute_slice(frames).remove(0)
    }

    /// Ground-truth answer set of the query over a set of frames.
    pub fn ground_truth(&self, frames: &[Frame]) -> Vec<u64> {
        frames.iter().filter(|f| self.query.matches_ground_truth(f)).map(|f| f.frame_id).collect()
    }

    /// Accuracy of a run against the ground truth of the same frames.
    pub fn accuracy(&self, run: &QueryRun, frames: &[Frame]) -> QueryAccuracy {
        QueryAccuracy::compare(&run.matched_frames, &self.ground_truth(frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmq_detect::{OracleDetector, Stage};
    use vmq_filters::{CalibratedFilter, CalibrationProfile};
    use vmq_video::{Dataset, DatasetProfile};

    fn setup() -> (Dataset, CalibratedFilter, OracleDetector) {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 40, 120, 21);
        let filter = CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::perfect(), 5);
        (ds, filter, OracleDetector::perfect())
    }

    #[test]
    fn brute_force_matches_ground_truth_exactly() {
        let (ds, _filter, oracle) = setup();
        let exec = QueryExecutor::new(Query::paper_q4());
        let run = exec.run_brute_force(ds.test(), &oracle);
        assert_eq!(run.matched_frames, exec.ground_truth(ds.test()));
        assert_eq!(run.frames_detected, ds.test().len());
        let acc = exec.accuracy(&run, ds.test());
        assert_eq!(acc.recall, 1.0);
        assert_eq!(acc.precision, 1.0);
    }

    #[test]
    fn filtered_run_is_cheaper_and_still_correct_with_perfect_filter() {
        let (ds, filter, oracle) = setup();
        let exec_bf = QueryExecutor::new(Query::paper_q3());
        let brute = exec_bf.run_brute_force(ds.test(), &oracle);
        let exec_f = QueryExecutor::new(Query::paper_q3());
        // The filter is perfect, so the strict (exact-count) cascade is safe
        // and highly selective — this mirrors Table III's per-query choice of
        // the most selective combination that keeps 100 % accuracy.
        let filtered = exec_f.run_filtered(ds.test(), &filter, &oracle, CascadeConfig::strict());
        // With a perfect calibrated filter nothing true is dropped.
        assert_eq!(filtered.matched_frames, brute.matched_frames);
        assert!(filtered.frames_detected <= brute.frames_detected);
        assert!(
            filtered.virtual_ms < brute.virtual_ms,
            "filtered {} vs brute {}",
            filtered.virtual_ms,
            brute.virtual_ms
        );
        assert!(filtered.filter_pass_rate() <= 1.0);
        assert!(filtered.mode.contains("CCF"));
    }

    #[test]
    fn ledger_tracks_detector_invocations() {
        let (ds, filter, oracle) = setup();
        let exec = QueryExecutor::new(Query::paper_q5());
        let run = exec.run_filtered(ds.test(), &filter, &oracle, CascadeConfig::tolerant());
        assert_eq!(exec.ledger().invocations(Stage::MaskRcnn) as usize, run.frames_detected);
        assert_eq!(exec.ledger().invocations(Stage::OdFilter) as usize, run.frames_total);
        assert!(run.virtual_seconds() > 0.0);
    }

    /// A plan of one holds O(batch) detections however long the stream runs:
    /// through 5 000 frames the cache never exceeds its budget, and the
    /// brute-force and filtered entry points answer exactly as a plan whose
    /// cache retains the whole stream.
    #[test]
    fn plan_of_one_cache_stays_within_budget_on_a_long_stream() {
        let profile = DatasetProfile::jackson();
        let ds = Dataset::generate(&profile, 20, 5000, 33);
        let oracle = OracleDetector::perfect();
        let query = Query::paper_q4();
        let fresh = || CalibratedFilter::new(profile.class_list(), 14, CalibrationProfile::od_like(), 9);
        let budget = QueryExecutor::CACHE_BATCHES * PipelineConfig::DEFAULT_BATCH_SIZE;
        let tolerant = CascadeConfig::tolerant();

        for filtered in [false, true] {
            let (bounded_filter, retaining_filter) = (fresh(), fresh());
            let exec = QueryExecutor::new(query.clone());
            let mut bounded = exec.plan_of_one(&oracle);
            assert_eq!(bounded.cache().entry_budget(), budget);
            let mut retaining =
                SharedStreamPlan::new(&oracle, DetectionCache::new(), CostLedger::paper(), PipelineConfig::default());
            let backend = filtered.then(|| bounded.add_backend(&bounded_filter));
            bounded.register_select(query.clone(), tolerant, backend, CostLedger::paper());
            let backend = filtered.then(|| retaining.add_backend(&retaining_filter));
            retaining.register_select(query.clone(), tolerant, backend, CostLedger::paper());

            for batch in ds.test().chunks(PipelineConfig::DEFAULT_BATCH_SIZE) {
                bounded.push_batch(batch);
                assert!(bounded.cache().len() <= budget, "{} entries resident", bounded.cache().len());
            }
            let bounded_run = bounded.finish().remove(0);
            let retaining_run = retaining.execute_slice(ds.test()).remove(0);
            assert!(bounded.cache().evictions() > 0, "the stream outgrew the budget");
            assert_eq!(retaining.cache().len(), retaining_run.frames_detected, "the reference retains everything");

            let entry_point = if filtered {
                exec.run_filtered(ds.test(), &fresh(), &oracle, tolerant)
            } else {
                exec.run_brute_force(ds.test(), &oracle)
            };
            for run in [&bounded_run, &entry_point] {
                assert_eq!(run.matched_frames, retaining_run.matched_frames);
                assert_eq!(run.frames_detected, retaining_run.frames_detected);
                assert_eq!(run.virtual_ms.to_bits(), retaining_run.virtual_ms.to_bits());
            }
        }
    }

    #[test]
    fn custom_batch_sizes_reach_identical_answers() {
        let (ds, _filter, oracle) = setup();
        let classes = DatasetProfile::jackson().class_list();
        let reference = QueryExecutor::new(Query::paper_q3()).with_batch_size(1).run_filtered(
            ds.test(),
            &CalibratedFilter::new(classes.clone(), 14, CalibrationProfile::perfect(), 5),
            &oracle,
            CascadeConfig::strict(),
        );
        let wide = QueryExecutor::new(Query::paper_q3()).with_batch_size(512).run_filtered(
            ds.test(),
            &CalibratedFilter::new(classes, 14, CalibrationProfile::perfect(), 5),
            &oracle,
            CascadeConfig::strict(),
        );
        assert_eq!(reference.matched_frames, wide.matched_frames);
        assert_eq!(reference.virtual_ms.to_bits(), wide.virtual_ms.to_bits());
    }
}
