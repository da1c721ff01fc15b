//! Spans recorded in the benchmark's own code around calls into each layer.
//!
//! A traced run wraps the dependencies it injects into the library — filters,
//! window estimators, the detector — and the calls it makes itself (plan
//! phases, planner, fleet ingest and poll) in spans. A span carries a name
//! whose first dotted component is the layer, its start and end, the span
//! that was open when it started, and the round it belongs to. Spans stay in
//! memory and are written to `benchmark/out/trace-<workload>.json` when the
//! run ends. A layer's self time is its spans' time minus the time of the
//! spans opened inside them.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use vmq_detect::{CostLedger, Detector, FrameDetections, Stage};
use vmq_filters::{FilterEstimate, FilterKind, FrameFilter};
use vmq_query::{WindowCharge, WindowData, WindowEstimator};
use vmq_video::{Frame, ObjectClass};

/// The root span of one round; its self time is the unexplained residual.
pub const ROUND: &str = "round";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub round: u32,
    /// Time of leaf calls (detector invocations) made while this span was
    /// the innermost one; too many to record as spans of their own.
    pub leaf_us: f64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: u32,
}

pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("no span is recorded while another thread panics")
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`. Outside a round (the wrapped
    /// filters and estimators also run during warm-up) nothing is recorded.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut inner = self.lock();
            if inner.stack.is_empty() && name != ROUND {
                drop(inner);
                return f();
            }
            let id = inner.spans.len();
            let (parent, round) = (inner.stack.last().copied(), inner.round);
            inner.spans.push(Span { name, start_us: self.now_us(), end_us: 0.0, parent, round, leaf_us: 0.0 });
            inner.stack.push(id);
            id
        };
        let out = f();
        let mut inner = self.lock();
        inner.spans[id].end_us = self.now_us();
        inner.stack.pop();
        out
    }

    /// Runs one round inside a [`ROUND`] root span.
    pub fn round<R>(&self, round: u32, f: impl FnOnce() -> R) -> R {
        self.lock().round = round;
        self.span(ROUND, f)
    }

    /// Books `us` of detector time against the innermost open span.
    fn leaf(&self, us: f64) {
        let mut inner = self.lock();
        if let Some(&top) = inner.stack.last() {
            inner.spans[top].leaf_us += us;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Runs `f` inside a span when tracing, directly otherwise.
pub fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Per-layer self time and the round total, summed over all recorded rounds.
pub struct SelfTimes {
    /// Layer (first dotted component of the span name) → self microseconds.
    pub by_layer: BTreeMap<String, f64>,
    /// Span name → (count, inclusive microseconds).
    pub by_span: BTreeMap<&'static str, (u64, f64)>,
    pub round_us: f64,
    pub rounds: u64,
}

impl SelfTimes {
    pub fn layer_share(&self, layers: &[&str]) -> f64 {
        layers.iter().map(|l| self.by_layer.get(*l).copied().unwrap_or(0.0)).sum::<f64>() / self.round_us
    }

    /// The share of round time no layer span covers: `1 − Σ layer self ÷ round`.
    pub fn unexplained_share(&self) -> f64 {
        self.by_layer.get(ROUND).copied().unwrap_or(0.0) / self.round_us
    }

    pub fn span_us(&self, name: &str) -> f64 {
        self.by_span.get(name).map_or(0.0, |s| s.1)
    }

    pub fn span_count(&self, name: &str) -> u64 {
        self.by_span.get(name).map_or(0, |s| s.0)
    }
}

pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut child_us = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_us[parent] += span.end_us - span.start_us;
        }
    }
    let mut out = SelfTimes { by_layer: BTreeMap::new(), by_span: BTreeMap::new(), round_us: 0.0, rounds: 0 };
    for (span, children) in spans.iter().zip(child_us) {
        let total = span.end_us - span.start_us;
        let layer = span.name.split('.').next().expect("split yields at least one part");
        *out.by_layer.entry(layer.to_string()).or_insert(0.0) += total - children - span.leaf_us;
        *out.by_layer.entry("detect".to_string()).or_insert(0.0) += span.leaf_us;
        let entry = out.by_span.entry(span.name).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += total;
        if span.name == ROUND {
            out.round_us += total;
            out.rounds += 1;
        }
    }
    out
}

/// Renders the spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"round\":{},\"leaf_us\":{:.1}}}",
                s.name, s.start_us, s.end_us, s.round, s.leaf_us
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// A filter whose batch calls are recorded as `filters.estimate_batch` spans.
pub struct TracedFilter<'a> {
    pub inner: &'a dyn FrameFilter,
    pub tracer: &'a Tracer,
}

impl FrameFilter for TracedFilter<'_> {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        self.tracer.span("filters.estimate", || self.inner.estimate(frame))
    }

    fn estimate_batch(&self, frames: &[Frame]) -> Vec<FilterEstimate> {
        self.tracer.span("filters.estimate_batch", || self.inner.estimate_batch(frames))
    }

    fn estimate_batch_sharded(&self, frames: &[Frame], workers: usize) -> Vec<FilterEstimate> {
        self.tracer.span("filters.estimate_batch", || self.inner.estimate_batch_sharded(frames, workers))
    }

    fn kind(&self) -> FilterKind {
        self.inner.kind()
    }

    fn kernel_backend(&self) -> &'static str {
        self.inner.kernel_backend()
    }

    fn grid_size(&self) -> usize {
        self.inner.grid_size()
    }

    fn threshold(&self) -> f32 {
        self.inner.threshold()
    }

    fn classes(&self) -> &[ObjectClass] {
        self.inner.classes()
    }
}

/// A window estimator whose calls are recorded as `aggregate.estimate_window`
/// spans.
pub struct TracedEstimator<'a> {
    pub inner: &'a mut dyn WindowEstimator,
    pub tracer: &'a Tracer,
}

impl WindowEstimator for TracedEstimator<'_> {
    fn estimate_window(
        &mut self,
        window: WindowData<'_>,
        detector: &dyn Detector,
        ledger: &CostLedger,
    ) -> WindowCharge {
        let (inner, tracer) = (&mut *self.inner, self.tracer);
        tracer.span("aggregate.estimate_window", || inner.estimate_window(window, detector, ledger))
    }

    fn set_shed_level(&mut self, level: u32) {
        self.inner.set_shed_level(level);
    }
}

/// A detector whose invocation time is booked against the span that made
/// the call. Single-threaded plans only: with sharded detection the calls
/// overlap and their sum is not wall time.
pub struct TracedDetector<'a> {
    pub inner: &'a dyn Detector,
    pub tracer: &'a Tracer,
}

impl Detector for TracedDetector<'_> {
    fn detect(&self, frame: &Frame) -> FrameDetections {
        let start = Instant::now();
        let detections = self.inner.detect(frame);
        self.tracer.leaf(start.elapsed().as_secs_f64() * 1e6);
        detections
    }

    fn stage(&self) -> Stage {
        self.inner.stage()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_leaves() {
        let spans = vec![
            Span { name: ROUND, start_us: 0.0, end_us: 100.0, parent: None, round: 0, leaf_us: 0.0 },
            Span { name: "query.plan.prepare", start_us: 10.0, end_us: 70.0, parent: Some(0), round: 0, leaf_us: 5.0 },
            Span {
                name: "filters.estimate_batch",
                start_us: 20.0,
                end_us: 50.0,
                parent: Some(1),
                round: 0,
                leaf_us: 0.0,
            },
        ];
        let times = self_times(&spans);
        assert_eq!(times.round_us, 100.0);
        assert_eq!(times.rounds, 1);
        assert_eq!(times.by_layer["filters"], 30.0);
        assert_eq!(times.by_layer["query"], 25.0);
        assert_eq!(times.by_layer["detect"], 5.0);
        assert_eq!(times.by_layer[ROUND], 40.0);
        assert!((times.unexplained_share() - 0.4).abs() < 1e-12);
        assert!((times.layer_share(&["query", "detect"]) - 0.3).abs() < 1e-12);
        let total: f64 = times.by_layer.values().sum();
        assert!((total - times.round_us).abs() < 1e-9, "self times partition the round");
    }

    #[test]
    fn nested_spans_record_their_parent_and_round() {
        let tracer = Tracer::new();
        tracer.span("filters.estimate_batch", || ()); // warm-up: outside any round
        tracer.round(3, || tracer.span("query.plan.prepare", || tracer.span("filters.estimate_batch", || ())));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.round == 3 && s.end_us >= s.start_us));
        assert!(spans_json(&spans).contains("\"name\":\"filters.estimate_batch\""));
    }
}
