//! Windowed aggregates: the contract between the plan and an aggregate's
//! [`WindowEstimator`], and each aggregate's window state — where its hopping
//! windows start and end, in frames or in seconds of stream time, when one
//! is complete and handed over (phase 6), and which buffered frames and
//! indicator columns no future window can reach.

use super::SharedStreamPlan;
use crate::plan::{AtomVerdicts, CascadeConfig, IndicatorId};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use vmq_detect::{CostLedger, Detector, Stage};
use vmq_filters::FilterKind;
use vmq_video::Frame;

/// Specification of an aggregate execution: the hopping window plus how the
/// control-variate indicators are derived from the filter estimates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregateSpec {
    /// Hopping window `(size, advance)` in frames — the parser's
    /// `WINDOW HOPPING (SIZE n, ADVANCE BY m)` clause. Ignored when
    /// [`AggregateSpec::seconds`] is set.
    pub window: (usize, usize),
    /// Time-based hopping window `(size, advance)` in *seconds* of stream
    /// time. When set, window segmentation follows [`Frame::timestamp`]
    /// instead of frame counts: window `k` covers timestamps
    /// `[k·advance, k·advance + size)` anchored at stream time zero, so two
    /// cameras with different `fps` produce wall-clock-aligned windows for
    /// the same statement (the frame-count mode would silently misalign
    /// them). A window emits once a frame at or past its end timestamp is
    /// observed; empty windows are skipped but still consume their index, so
    /// window `k` refers to the same wall-clock interval on every camera.
    #[serde(default)]
    pub seconds: Option<(f64, f64)>,
    /// Cascade tolerances used to derive the indicator columns.
    pub cascade: CascadeConfig,
    /// Grid threshold override for the indicators. The control only needs to
    /// be *correlated* with the detector verdict (not conservative like a
    /// query cascade), so a higher precision-oriented threshold typically
    /// yields better variance reduction; `None` uses each filter's own.
    pub indicator_threshold: Option<f32>,
}

impl AggregateSpec {
    /// A spec with the given window, the strict cascade and per-filter
    /// thresholds. `new(n, n)` over `n` frames is the one-shot estimate.
    pub fn new(size: usize, advance: usize) -> Self {
        AggregateSpec {
            window: (size, advance),
            seconds: None,
            cascade: CascadeConfig::strict(),
            indicator_threshold: None,
        }
    }

    /// A spec with a *time-based* hopping window (`size`, `advance` in
    /// seconds of stream time), the strict cascade and per-filter
    /// thresholds. See [`AggregateSpec::seconds`] for the segmentation
    /// semantics.
    pub fn hopping_seconds(size_s: f64, advance_s: f64) -> Self {
        assert!(size_s > 0.0, "aggregate window size must be positive");
        assert!(advance_s > 0.0, "aggregate window advance must be positive");
        AggregateSpec {
            window: (0, 0),
            seconds: Some((size_s, advance_s)),
            cascade: CascadeConfig::strict(),
            indicator_threshold: None,
        }
    }

    /// Overrides the indicator grid threshold.
    pub fn with_indicator_threshold(mut self, threshold: f32) -> Self {
        self.indicator_threshold = Some(threshold);
        self
    }

    /// Overrides the cascade tolerances of the indicators.
    pub fn with_cascade(mut self, cascade: CascadeConfig) -> Self {
        self.cascade = cascade;
        self
    }
}

/// One candidate backend's control-variate indicator columns over a
/// completed window, assembled by the plan's window emission for the window
/// estimator.
#[derive(Debug, Clone)]
pub struct WindowBackendColumns {
    /// Backend family name ("IC", "OD", "OD-COF", "CAL").
    pub backend: &'static str,
    /// The cost-model stage of the backend's filter.
    pub stage: Stage,
    /// Cascade-pass indicator per window frame (the single-CV control `X`).
    pub pass: Vec<f64>,
    /// Per-predicate indicator series, one per query predicate (plus the
    /// trailing conjunction series for multi-predicate queries), each
    /// parallel to `pass` (the MCV controls `Z`).
    pub predicates: Vec<Vec<f64>>,
}

impl WindowBackendColumns {
    /// Empty columns for a backend of `kind`.
    pub(super) fn empty(kind: FilterKind) -> Self {
        WindowBackendColumns { backend: kind.name(), stage: kind.stage(), pass: Vec::new(), predicates: Vec::new() }
    }

    /// Appends one frame's control-variate values: each per-predicate
    /// [`FilterCascade::cv_indicators`](crate::plan::FilterCascade::cv_indicators)
    /// value (graded in `[0, 1]`) to its series, and their product to `pass`
    /// (the soft conjunction, identical to the boolean one when every
    /// indicator is 0/1). A multi-predicate query also gets the product as a
    /// trailing series: the MCV regression's linear span cannot express
    /// `z₁·…·z_d`, yet for a conjunctive query that is the single most
    /// informative feature, so including it guarantees MCV explains at least
    /// as much variance as the single-CV control.
    pub(super) fn push_controls(&mut self, controls: impl IntoIterator<Item = f64>) {
        let predicates = &mut self.predicates;
        let mut push = |series: usize, v: f64| match predicates.get_mut(series) {
            Some(column) => column.push(v),
            None => predicates.push(vec![v]),
        };
        let mut pass = 1.0;
        let mut series = 0;
        for control in controls {
            pass *= control;
            push(series, control);
            series += 1;
        }
        if series > 1 {
            push(series, pass);
        }
        self.pass.push(pass);
    }

    /// A copy of the entries `range`.
    pub(super) fn slice(&self, range: std::ops::Range<usize>) -> Self {
        WindowBackendColumns {
            backend: self.backend,
            stage: self.stage,
            pass: self.pass[range.clone()].to_vec(),
            predicates: self.predicates.iter().map(|series| series[range.clone()].to_vec()).collect(),
        }
    }

    /// Drops the leading `k` entries.
    fn drain_front(&mut self, k: usize) {
        self.pass.drain(..k);
        for series in &mut self.predicates {
            series.drain(..k);
        }
    }
}

/// A completed hopping window handed to a [`WindowEstimator`]: the window's
/// frames plus every candidate backend's indicator columns over them.
#[derive(Debug)]
pub struct WindowData<'a> {
    /// Zero-based index of the window in the stream.
    pub index: usize,
    /// Stream offset of the window's first frame.
    pub start: usize,
    /// The frames of the window, in stream order.
    pub frames: &'a [Frame],
    /// Indicator columns, one entry per candidate backend in plan order.
    pub backends: &'a [WindowBackendColumns],
}

/// Detector work performed by a window estimator for one window, reported
/// back to the plan, which charges it to the statement's ledger and carries
/// it in the `aggregate-sink` stage row. Keeping the charging in the plan
/// means the honest-accounting invariant — the sum of per-operator
/// `virtual_ms` rows equals the ledger total — holds for aggregates too.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowCharge {
    /// Sampled detector invocations performed for the estimation trials.
    pub estimation_frames: u64,
    /// Detector invocations spent annotating the window's calibration
    /// prefix (adaptive control-variate backend selection); charged via
    /// [`CostLedger::charge_calibration`] so reports can attribute them.
    pub calibration_frames: u64,
}

impl WindowCharge {
    /// Total detector invocations charged for the window.
    pub fn total(&self) -> u64 {
        self.estimation_frames + self.calibration_frames
    }
}

/// Consumer of an aggregate statement's completed hopping windows.
///
/// Implemented by `vmq-aggregate`'s streaming estimator: per window it picks
/// a control-variate backend (optionally from a calibration prefix), samples
/// frames, runs the expensive detector on the samples only and computes the
/// plain / CV / MCV estimates. The estimator must *not* charge the ledger
/// itself; it reports its detector work in the returned [`WindowCharge`] and
/// the plan does the charging.
///
/// `Send`, because a plan moves to a pool thread while a fleet scheduler
/// stages its batch (the estimator is only called back on the caller).
pub trait WindowEstimator: Send {
    /// Processes one completed window, using `detector` for sampled (and
    /// calibration) inference and `ledger` for cost-model prices only.
    fn estimate_window(&mut self, window: WindowData<'_>, detector: &dyn Detector, ledger: &CostLedger)
        -> WindowCharge;

    /// Overload feedback from the runtime. Level 0 is normal operation;
    /// each higher level asks the estimator to shed detector *sampling*
    /// work (graceful degradation: estimates stay unbiased, confidence
    /// intervals widen, and the shed is reported). Only aggregate sampling
    /// is ever shed — select-query filter recall is not negotiable under
    /// load. Estimators that cannot shed may ignore this (the default).
    fn set_shed_level(&mut self, _level: u32) {}
}

/// How an aggregate's hopping windows cut the stream (the display form is
/// the window clause of its mode label).
#[derive(Debug, Clone, Copy)]
pub(super) enum Hop {
    /// `size` frames, one window every `advance` frames.
    Frames { size: usize, advance: usize },
    /// `size` seconds of stream time, one window every `advance` seconds
    /// from time zero (see [`AggregateSpec::seconds`]); `next` is where the
    /// next window starts.
    Seconds { size: f64, advance: f64, next: f64 },
}

impl Hop {
    /// The segmentation `spec` asks for.
    pub(super) fn of(spec: &AggregateSpec) -> Self {
        match spec.seconds {
            Some((size, advance)) => Hop::Seconds { size, advance, next: 0.0 },
            None => {
                let (size, advance) = spec.window;
                assert!(size > 0, "aggregate window size must be positive");
                assert!(advance > 0, "aggregate window advance must be positive");
                Hop::Frames { size, advance }
            }
        }
    }
}

impl std::fmt::Display for Hop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Hop::Frames { size, advance } => write!(f, "{size}/{advance}"),
            Hop::Seconds { size, advance, .. } => write!(f, "{size}s/{advance}s"),
        }
    }
}

/// One listed backend of an aggregate.
struct Input {
    backend: usize,
    /// The query's control-variate indicators, compiled into the backend's
    /// atom table.
    indicators: Box<[IndicatorId]>,
    /// The indicator columns from stream offset [`Aggregate::columns_start`]
    /// on.
    columns: WindowBackendColumns,
}

/// One aggregate statement's window state.
pub(super) struct Aggregate<'a> {
    /// The statement's query index.
    pub(super) q: usize,
    /// The listed backends, in the statement's order.
    inputs: Vec<Input>,
    estimator: &'a mut dyn WindowEstimator,
    /// Stream offset of every input's first buffered column entry.
    columns_start: usize,
    hop: Hop,
    /// Stream offset of the next window's first frame.
    next_start: usize,
    /// Index of the next window.
    index: usize,
    /// Detector work the estimator reported, summed over emitted windows.
    pub(super) charged: WindowCharge,
    /// Wall time spent emitting windows.
    pub(super) wall_ms: f64,
}

impl Aggregate<'_> {
    /// The listed backends, in the statement's order.
    pub(super) fn backends(&self) -> impl Iterator<Item = usize> + '_ {
        self.inputs.iter().map(|input| input.backend)
    }

    /// The buffer range `lo..hi` of the next completed window, given the
    /// buffer `frames` starting at stream offset `start`, or `None` while it
    /// is still open. A frame-count window completes once `size` frames are
    /// buffered past its start; a time window once a frame at or past its
    /// end timestamp arrives (timestamps are monotone per stream). Either
    /// way, a partial trailing window never emits.
    fn next_window(&self, frames: &[Frame], start: usize) -> Option<(usize, usize)> {
        match self.hop {
            Hop::Frames { size, .. } => {
                let lo = self.next_start - start;
                (lo + size <= frames.len()).then_some((lo, lo + size))
            }
            Hop::Seconds { size, next, .. } => {
                let end = next + size;
                if frames.last()?.timestamp < end {
                    return None;
                }
                Some((frames.partition_point(|f| f.timestamp < next), frames.partition_point(|f| f.timestamp < end)))
            }
        }
    }

    /// Moves past the window just handled, emitted or empty: an empty time
    /// window keeps its index, so window `k` means the same wall-clock
    /// interval on every camera.
    fn advance(&mut self, frames: &[Frame], start: usize) {
        self.index += 1;
        match &mut self.hop {
            Hop::Frames { advance, .. } => self.next_start += *advance,
            Hop::Seconds { advance, next, .. } => {
                *next += *advance;
                self.next_start = start + frames.partition_point(|f| f.timestamp < *next);
            }
        }
    }
}

/// Every aggregate statement of a plan, and the one buffer of stream frames
/// their windows read.
#[derive(Default)]
pub(super) struct Windows<'a> {
    /// The frames from stream offset `start` on, cloned once per batch for
    /// every aggregate; frames no aggregate's future window reaches are
    /// evicted.
    frames: Vec<Frame>,
    start: usize,
    /// In registration order.
    aggregates: Vec<Aggregate<'a>>,
}

impl<'a> Windows<'a> {
    /// Adds aggregate `q` over `inputs`: each listed backend with its filter
    /// kind and compiled indicators.
    pub(super) fn register(
        &mut self,
        q: usize,
        hop: Hop,
        inputs: Vec<(usize, FilterKind, Box<[IndicatorId]>)>,
        estimator: &'a mut dyn WindowEstimator,
    ) {
        let inputs = inputs
            .into_iter()
            .map(|(backend, kind, indicators)| Input {
                backend,
                indicators,
                columns: WindowBackendColumns::empty(kind),
            })
            .collect();
        let charged = WindowCharge::default();
        let (columns_start, next_start, index, wall_ms) = (0, 0, 0, 0.0);
        self.aggregates.push(Aggregate {
            q,
            inputs,
            estimator,
            columns_start,
            hop,
            next_start,
            index,
            charged,
            wall_ms,
        });
    }

    /// Every aggregate, in registration order.
    pub(super) fn aggregates(&self) -> &[Aggregate<'a>] {
        &self.aggregates
    }

    /// See [`SharedStreamPlan::set_shed_level`].
    pub(super) fn set_shed_level(&mut self, level: u32) {
        for aggregate in &mut self.aggregates {
            aggregate.estimator.set_shed_level(level);
        }
    }

    /// Phase 3 for aggregates: buffers the batch once for all of them and
    /// appends each one's indicator controls from its backends' `verdicts`.
    pub(super) fn append(&mut self, frames: &[Frame], verdicts: &[Option<AtomVerdicts>]) {
        if self.aggregates.is_empty() {
            return;
        }
        self.frames.extend(frames.iter().cloned());
        for input in self.aggregates.iter_mut().flat_map(|aggregate| &mut aggregate.inputs) {
            let verdicts = verdicts[input.backend].as_ref().expect("backend inference ran for its users");
            for i in 0..frames.len() {
                input.columns.push_controls(input.indicators.iter().map(|&id| verdicts.indicator(i, id)));
            }
        }
    }

    /// Hands every completed window of every aggregate, in registration
    /// order, to `estimate` (with the aggregate's query index and
    /// estimator), then evicts the columns and frames no future window can
    /// reach.
    fn emit(&mut self, mut estimate: impl FnMut(usize, &mut dyn WindowEstimator, WindowData<'_>) -> WindowCharge) {
        let (frames, start) = (&self.frames, self.start);
        for aggregate in &mut self.aggregates {
            // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only
            // the aggregate's `sink_wall_ms` stat; window boundaries come
            // from frame counts and frame timestamps.
            let clock = Instant::now();
            while let Some((lo, hi)) = aggregate.next_window(frames, start) {
                if hi > lo {
                    let (clo, chi) = (start + lo - aggregate.columns_start, start + hi - aggregate.columns_start);
                    let columns: Vec<WindowBackendColumns> =
                        aggregate.inputs.iter().map(|input| input.columns.slice(clo..chi)).collect();
                    let window = WindowData {
                        index: aggregate.index,
                        start: start + lo,
                        frames: &frames[lo..hi],
                        backends: &columns,
                    };
                    let charge = estimate(aggregate.q, &mut *aggregate.estimator, window);
                    aggregate.charged.estimation_frames += charge.estimation_frames;
                    aggregate.charged.calibration_frames += charge.calibration_frames;
                }
                aggregate.advance(frames, start);
            }
            let buffered = aggregate.inputs.first().map_or(0, |input| input.columns.pass.len());
            let evict = aggregate.next_start.saturating_sub(aggregate.columns_start).min(buffered);
            if evict > 0 {
                for input in &mut aggregate.inputs {
                    input.columns.drain_front(evict);
                }
                aggregate.columns_start += evict;
            }
            aggregate.wall_ms += clock.elapsed().as_secs_f64() * 1000.0;
        }
        if let Some(needed) = self.aggregates.iter().map(|aggregate| aggregate.next_start).min() {
            let evict = needed.saturating_sub(self.start).min(self.frames.len());
            if evict > 0 {
                self.frames.drain(..evict);
                self.start += evict;
            }
        }
    }
}

impl SharedStreamPlan<'_> {
    /// Phase 6: hands every completed hopping window of every aggregate
    /// query to its estimator (the segmentation [`AggregateSpec`] documents:
    /// partial trailing windows never emit), charging the reported detector
    /// work to the query's private ledger.
    pub(super) fn emit_ready_windows(&mut self) {
        let detector_stage = self.detector.stage();
        self.windows.emit(|q, estimator, window| {
            // The estimator samples through a cache-backed detector on
            // behalf of this query: misses charge the global ledger inside
            // the wrapper, while the private ledger is charged here with the
            // full as-if-isolated bill.
            let ledger = &self.queries[q].ledger;
            let cached = vmq_detect::CachedDetector::new(
                self.detector,
                &self.cache,
                self.user_ids[q],
                Some(self.global.clone()),
            );
            let charge = estimator.estimate_window(window, &cached, ledger);
            if charge.estimation_frames > 0 {
                ledger.charge(detector_stage, charge.estimation_frames);
            }
            if charge.calibration_frames > 0 {
                ledger.charge_calibration(detector_stage, charge.calibration_frames);
            }
            charge
        });
    }
}
