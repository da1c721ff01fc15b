//! The statement reference: what one statement over one camera's frames
//! must report, computed the naive way — frame by frame, with no batch,
//! cache, pool, atom table or shared plan. Every entry point (the executor's
//! `run_*`, one `SharedStreamPlan`, `StreamRuntime`, `FleetRuntime`) must
//! report exactly this for every statement it runs, bit for bit.
//!
//! * A select charges a decode per frame, asks its backend's per-frame
//!   `estimate`, keeps the frames `FilterCascade::passes` (brute force:
//!   every frame), runs `Detector::detect` on each survivor and keeps those
//!   `Query::matches_detections` accepts. An adaptive select first plans
//!   with `plan_cascade` on its prefix, which profiles every candidate
//!   there exactly as the entry points do, then runs the chosen plan.
//! * An aggregate computes every frame's `cv_indicators` per backend, cuts
//!   the stream into the windows `AggregateSpec` documents, hands each
//!   complete window to a fresh `WindowedAggregator` and bills the
//!   `WindowCharge` it returns.

use vmq::aggregate::WindowedAggregator;
use vmq::detect::{CostLedger, Detector, Stage};
use vmq::filters::FrameFilter;
use vmq::query::planner::plan_cascade;
use vmq::query::{
    AggregateSpec, CascadeConfig, FilterCascade, Query, WindowBackendColumns, WindowData, WindowEstimator,
};
use vmq::video::Frame;

/// One statement as every entry point can register it. Backends are indices
/// into the caller's backend list; the reference builds a fresh instance
/// of each for every statement, because a calibrated filter draws its
/// noise from one sequential stream.
#[derive(Debug, Clone)]
pub enum Statement {
    /// A fixed cascade over `backend`, or brute force (`None`).
    Select { query: Query, backend: Option<usize>, cascade: CascadeConfig },
    /// A select planned on the leading `prefix` frames over every
    /// `(backend × tolerance)` candidate.
    Adaptive { query: Query, backends: Vec<usize>, tolerances: Vec<CascadeConfig>, prefix: usize },
    /// A windowed aggregate over its candidate control-variate `backends`.
    Aggregate { query: Query, backends: Vec<usize>, spec: AggregateSpec, estimator: EstimatorSpec },
}

impl Statement {
    /// The statement's query.
    pub fn query(&self) -> &Query {
        match self {
            Statement::Select { query, .. }
            | Statement::Adaptive { query, .. }
            | Statement::Aggregate { query, .. } => query,
        }
    }
}

/// How an aggregate's `WindowedAggregator` is built.
#[derive(Debug, Clone, Copy)]
pub struct EstimatorSpec {
    pub sample_size: usize,
    pub trials: usize,
    pub seed: u64,
    /// Per-window adaptive control-variate prefix, if any.
    pub cv_prefix: Option<usize>,
}

impl EstimatorSpec {
    /// A fresh estimator for `query`.
    pub fn build(&self, query: &Query) -> WindowedAggregator {
        let estimator = WindowedAggregator::new(query.clone(), self.sample_size, self.trials, self.seed);
        match self.cv_prefix {
            Some(prefix) => estimator.with_adaptive_backend(prefix),
            None => estimator,
        }
    }
}

/// What a statement must report. Floats are kept as bits or as their
/// `Debug` form, which round-trips every `f64`, so equal means bit-equal.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub mode: String,
    pub matched: Vec<u64>,
    pub passed: usize,
    pub detected: usize,
    pub virtual_ms_bits: u64,
    /// An adaptive select's `PlanChoice`.
    pub plan: Option<String>,
    /// Every window's `AggregateReport`, in window order.
    pub reports: Vec<String>,
}

/// The reference answer of `statement` over `frames`. `fresh(b)` builds a
/// new instance of backend `b`.
pub fn reference<'f>(
    statement: &Statement,
    frames: &[Frame],
    fresh: &dyn Fn(usize) -> Box<dyn FrameFilter + 'f>,
    detector: &dyn Detector,
) -> Expected {
    let ledger = CostLedger::paper();
    match statement {
        Statement::Select { query, backend, cascade } => {
            let filter = backend.map(fresh);
            let mode = filter.as_ref().map_or("brute-force".to_string(), |f| cascade.label_for(query, f.as_ref()));
            Expected { mode, ..select(query, *cascade, filter.as_deref(), frames, detector, &ledger) }
        }
        Statement::Adaptive { query, backends, tolerances, prefix } => {
            let filters: Vec<Box<dyn FrameFilter + 'f>> = backends.iter().map(|&b| fresh(b)).collect();
            let candidates: Vec<&dyn FrameFilter> = filters.iter().map(|f| f.as_ref() as &dyn FrameFilter).collect();
            let prefix = &frames[..(*prefix).min(frames.len())];
            let choice = plan_cascade(query, prefix, &candidates, tolerances, detector, &ledger, 1).choice;
            let filter = (!choice.brute_force).then(|| candidates[choice.backend_index]);
            let (mode, plan) = (format!("adaptive {}", choice.label), Some(format!("{choice:?}")));
            Expected { mode, plan, ..select(query, choice.cascade, filter, frames, detector, &ledger) }
        }
        Statement::Aggregate { query, backends, spec, estimator } => {
            aggregate(query, backends.iter().map(|&b| fresh(b)).collect(), spec, estimator, frames, detector, &ledger)
        }
    }
}

fn select(
    query: &Query,
    config: CascadeConfig,
    filter: Option<&dyn FrameFilter>,
    frames: &[Frame],
    detector: &dyn Detector,
    ledger: &CostLedger,
) -> Expected {
    let cascade = FilterCascade::new(query.clone(), config);
    let (mut matched, mut passed) = (Vec::new(), 0);
    for frame in frames {
        ledger.charge(Stage::Decode, 1);
        if let Some(filter) = filter {
            ledger.charge(filter.kind().stage(), 1);
            if !cascade.passes(&filter.estimate(frame), filter.threshold()) {
                continue;
            }
        }
        passed += 1;
        ledger.charge(detector.stage(), 1);
        if query.matches_detections(&detector.detect(frame)) {
            matched.push(frame.frame_id);
        }
    }
    let virtual_ms_bits = ledger.total_ms().to_bits();
    Expected { mode: String::new(), matched, passed, detected: passed, virtual_ms_bits, plan: None, reports: vec![] }
}

fn aggregate(
    query: &Query,
    filters: Vec<Box<dyn FrameFilter + '_>>,
    spec: &AggregateSpec,
    estimator: &EstimatorSpec,
    frames: &[Frame],
    detector: &dyn Detector,
    ledger: &CostLedger,
) -> Expected {
    // Every backend's control columns over the whole stream: one graded
    // indicator per predicate, their product as the pass column, and the
    // product again as a trailing series when there are several.
    let cascade = FilterCascade::new(query.clone(), spec.cascade);
    let mut columns: Vec<WindowBackendColumns> = filters
        .iter()
        .map(|f| WindowBackendColumns {
            backend: f.kind().name(),
            stage: f.kind().stage(),
            pass: vec![],
            predicates: vec![],
        })
        .collect();
    for frame in frames {
        ledger.charge(Stage::Decode, 1);
        for (filter, column) in filters.iter().zip(&mut columns) {
            ledger.charge(filter.kind().stage(), 1);
            let threshold = spec.indicator_threshold.unwrap_or(filter.threshold());
            let mut controls = cascade.cv_indicators(&filter.estimate(frame), threshold);
            let pass = controls.iter().product();
            if controls.len() > 1 {
                controls.push(pass);
            }
            column.predicates.resize(controls.len(), Vec::new());
            controls.iter().zip(&mut column.predicates).for_each(|(&v, series)| series.push(v));
            column.pass.push(pass);
        }
    }
    // Window k covers frames [k·advance, k·advance + size), or timestamps
    // from k·advance seconds on (summed window by window, as a stream
    // would), and exists once the stream reaches its end. An empty time
    // window emits nothing but still takes its index.
    let last = frames.last().map_or(f64::NEG_INFINITY, |f| f.timestamp);
    let offset = |t: f64| frames.partition_point(|f| f.timestamp < t);
    let mut windows = Vec::new();
    let hop = match spec.seconds {
        Some((size, advance)) => {
            let mut from = 0.0;
            while last >= from + size {
                windows.push((offset(from), offset(from + size)));
                from += advance;
            }
            format!("{size}s/{advance}s")
        }
        None => {
            let (size, advance) = spec.window;
            windows.extend((0..).map(|k| k * advance).take_while(|s| s + size <= frames.len()).map(|s| (s, s + size)));
            format!("{size}/{advance}")
        }
    };
    let mut aggregator = estimator.build(query);
    let mut detected = 0;
    for (index, &(lo, hi)) in windows.iter().enumerate().filter(|(_, (lo, hi))| hi > lo) {
        let window_columns: Vec<WindowBackendColumns> = columns
            .iter()
            .map(|c| WindowBackendColumns {
                backend: c.backend,
                stage: c.stage,
                pass: c.pass[lo..hi].to_vec(),
                predicates: c.predicates.iter().map(|s| s[lo..hi].to_vec()).collect(),
            })
            .collect();
        let window = WindowData { index, start: lo, frames: &frames[lo..hi], backends: &window_columns };
        let charge = aggregator.estimate_window(window, detector, ledger);
        ledger.charge(detector.stage(), charge.estimation_frames);
        ledger.charge_calibration(detector.stage(), charge.calibration_frames);
        detected += charge.total() as usize;
    }
    let names: Vec<&str> = filters.iter().map(|f| f.kind().name()).collect();
    Expected {
        mode: format!("aggregate {} window {hop}", names.join("+")),
        matched: vec![],
        passed: frames.len(),
        detected,
        virtual_ms_bits: ledger.total_ms().to_bits(),
        plan: None,
        reports: aggregator.reports().iter().map(|r| format!("{r:?}")).collect(),
    }
}
